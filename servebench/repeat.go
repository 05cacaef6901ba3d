package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// repeatRuns runs the workload n times, each in a child process of its
// own with seeds seed..seed+n-1, and prints every metric's median,
// quartiles and spread (interquartile distance over median), taken as
// Python's statistics.quantiles(values, n=4) takes them.
func repeatRuns(n int, args []string, seed int64) error {
	var child []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		name, _, inline := strings.Cut(a, "=")
		if name == "repeat" || name == "seed" {
			if !inline {
				i++
			}
			continue
		}
		child = append(child, args[i])
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(os.Args[0], append(child, "--seed", strconv.FormatInt(s, 10))...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		var res result
		if err := json.Unmarshal(lastLine(out), &res); err != nil {
			return fmt.Errorf("seed %d: reading result: %w", s, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: incorrect output", s)
		}
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "seed %d: %s\n", s, lastLine(out))
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	summary := map[string]any{}
	for _, k := range names {
		v := values[k]
		q := quartiles(v)
		spread := 0.0
		if q[1] != 0 {
			spread = (q[2] - q[0]) / q[1]
		}
		fmt.Printf("%-32s %-14s median %12.5g  q1 %12.5g  q3 %12.5g  spread %.4f\n", k, units[k], q[1], q[0], q[2], spread)
		summary[k] = map[string]float64{"median": q[1], "q1": q[0], "q3": q[2], "spread": spread}
	}
	printJSON(map[string]any{"runs": n, "metrics": summary})
	return nil
}

func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

// quartiles is statistics.quantiles(v, n=4) with the default
// 'exclusive' method.
func quartiles(v []float64) [3]float64 {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	if len(d) == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	var q [3]float64
	m := len(d) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(d)-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q
}
