// Command servebench is the serving benchmark: it builds one workload's
// serving stack from source inputs drawn from a seed, drives it with a
// closed loop of clients for a fixed time, checks every answer against
// the seeded inputs, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as the last line of its output.
//
//	go run . --workload pop3-churn --seed 1 --seconds 10 --trace 0
//
// --repeat N runs the workload N times in child processes, seeds
// seed..seed+N-1, and prints each metric's median and quartiles.
package main

import (
	"crypto/rsa"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"wedge/internal/minissl"
)

// The load shape: a closed loop of numClients clients in this process.
const (
	numClients = 2
	// Stacks built per run, setup_s being their median: at least
	// minSetups, then more until setupBudget of set-up time is spent,
	// so a cheap stack's median rests on more builds.
	minSetups   = 9
	maxSetups   = 41
	setupBudget = time.Second
	warmup      = 500 * time.Millisecond // load before the baseline, untimed
	latCap      = 1 << 16                // per-client latency samples, over all windows

	// watchdogSlack is how long a run may take beyond --seconds: set-up,
	// warm-up and settling take a few seconds at most.
	watchdogSlack = 60 * time.Second
)

type opKind int

const (
	opPop3 opKind = iota
	opDNS
)

// workload is one traffic mix: the stack it builds and the round of
// operations each client repeats. Runs stop only at round boundaries.
type workload struct {
	name  string
	build func(*inputs, *rsa.PrivateKey) (*stack, error)
	round []opKind
	keep  bool // dnsd clients keep their socket (returning principals)
}

var workloads = []workload{
	{name: "pop3-churn", build: buildPop3, round: []opKind{opPop3}},
	{name: "dnsd-fresh", build: buildDnsd, round: []opKind{opDNS}},
	{name: "dnsd-returning", build: buildDnsd, round: []opKind{opDNS}, keep: true},
	{name: "cluster-mixed", build: buildCluster, round: []opKind{opPop3, opPop3, opPop3, opDNS}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type config struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	spans    string // traced runs write their spans here
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: pop3-churn, dnsd-fresh, dnsd-returning or cluster-mixed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: traced run, print the per-layer metrics")
	spans := flag.String("spans", "", "traced runs write their spans to this CSV (default .bench_build/servebench/spans-<workload>.csv)")
	repeat := flag.Int("repeat", 0, "run the workload this many times, seeds seed, seed+1, ..., and print medians and quartiles")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "servebench: bad arguments: workload %q seconds %v trace %d\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := repeatRuns(*repeat, os.Args[1:], *seed); err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
			os.Exit(1)
		}
		return
	}
	cfg := config{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, spans: *spans}
	if cfg.spans == "" {
		cfg.spans = fmt.Sprintf(".bench_build/servebench/spans-%s.csv", w.name)
	}
	printJSON(map[string]any{"host": hostShape(cfg)})
	// A run that hangs must still end: past the limit, dump every
	// goroutine's stack and exit without a result.
	limit := time.Duration(cfg.seconds*float64(time.Second)) + watchdogSlack
	time.AfterFunc(limit, func() {
		buf := make([]byte, 1<<22)
		os.Stderr.Write(buf[:runtime.Stack(buf, true)])
		fmt.Fprintf(os.Stderr, "servebench: run did not end within %v\n", limit)
		os.Exit(3)
	})
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	printJSON(res)
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of plain values are printed
	}
	fmt.Println(string(b))
}

// hostShape records what a result depends on besides the code.
func hostShape(cfg config) map[string]any {
	commit, modified := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	if modified {
		commit += "+modified"
	}
	return map[string]any{
		"workload":   cfg.workload.name,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"clients":    numClients,
	}
}

// clientResult is one client's tally for one phase.
type clientResult struct {
	attempted, failed int
	ok                atomic.Int64 // read by the window clock while the client runs
	wrong             error        // the first wrong output
	lat               []reservoir  // per window, milliseconds
}

func newClientResult(seed int64, client, windows int) *clientResult {
	r := &clientResult{lat: make([]reservoir, windows)}
	for k := range r.lat {
		r.lat[k] = newReservoir(latCap/windows, seed*1_000_003+int64(client*windows+k))
	}
	return r
}

// reservoir keeps a uniform sample of at most its capacity of values,
// so a latency record's size does not grow with the operation count.
type reservoir struct {
	n   int
	v   []float64
	rnd *rand.Rand
}

func newReservoir(size int, seed int64) reservoir {
	return reservoir{v: make([]float64, 0, size), rnd: rand.New(rand.NewSource(seed))}
}

func (r *reservoir) add(x float64) {
	r.n++
	if len(r.v) < cap(r.v) {
		r.v = append(r.v, x)
		return
	}
	if j := r.rnd.Intn(r.n); j < len(r.v) {
		r.v[j] = x
	}
}

// phase is a stretch of load cut into equal windows. The end-to-end
// rates and latencies are taken per window and reported as the median
// over windows: a burst of interference from outside the process moves
// one window, not the result.
type phase struct {
	windows int
	win     time.Duration
}

func newPhase(seconds float64) phase {
	d := time.Duration(seconds * float64(time.Second))
	n := max(int(d/time.Second), 5)
	return phase{windows: n, win: d / time.Duration(n)}
}

// window is what the window clock saw over one window.
type window struct {
	ops      int64 // operations completed without failure
	dur, cpu time.Duration
}

// drive runs every client's loop until the phase's last window ends,
// each client finishing its current round, and returns the windows and
// the wall time taken.
func drive(w workload, clients []*client, res []*clientResult, ph phase, nextOp []int64) ([]window, time.Duration) {
	start := time.Now()
	deadline := start.Add(time.Duration(ph.windows) * ph.win)
	clock := make(chan []window, 1)
	go func() {
		wins := make([]window, ph.windows)
		prevT, prevCPU, prevOps := start, cpuTime(), int64(0)
		for k := range wins {
			time.Sleep(time.Until(start.Add(time.Duration(k+1) * ph.win)))
			t, cpu, ops := time.Now(), cpuTime(), int64(0)
			for _, r := range res {
				ops += r.ok.Load()
			}
			wins[k] = window{ops: ops - prevOps, dur: t.Sub(prevT), cpu: cpu - prevCPU}
			prevT, prevCPU, prevOps = t, cpu, ops
		}
		clock <- wins
	}()
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(c *client, r *clientResult, op *int64) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				for _, kind := range w.round {
					*op++
					t0 := time.Now()
					root := c.tr.begin(spOp, -1, *op)
					var err error
					if kind == opPop3 {
						err = c.pop3(*op, root, c.gen.mail())
					} else {
						err = c.dns(*op, root, c.gen.name())
					}
					c.tr.end(root)
					r.attempted++
					var ce *checkError
					switch {
					case errors.As(err, &ce):
						r.failed++
						if r.wrong == nil {
							r.wrong = err
						}
					case err != nil:
						r.failed++
						fmt.Fprintf(os.Stderr, "servebench: op %d failed: %v\n", *op, err)
					default:
						t1 := time.Now()
						if k := int(t1.Sub(start) / ph.win); k < ph.windows {
							r.ok.Add(1)
							r.lat[k].add(float64(t1.Sub(t0)) / 1e6)
						}
					}
				}
			}
		}(clients[i], res[i], &nextOp[i])
	}
	wg.Wait()
	elapsed := time.Since(start)
	return <-clock, elapsed
}

// windowMedians reduces the windows to the reported end-to-end figures:
// the median over windows of each window's rate, CPU per operation, and
// latency percentiles.
func windowMedians(wins []window, res []*clientResult) (opsPerS, cpuPerOp, p50, p90 float64) {
	var rates, cpus, p50s, p90s []float64
	for k, w := range wins {
		rates = append(rates, float64(w.ops)/w.dur.Seconds())
		if w.ops > 0 {
			cpus = append(cpus, float64(w.cpu)/1e3/float64(w.ops))
		}
		var lats []float64
		for _, r := range res {
			lats = append(lats, r.lat[k].v...)
		}
		if len(lats) > 0 {
			sort.Float64s(lats)
			p50s = append(p50s, quantile(lats, 0.50))
			p90s = append(p90s, quantile(lats, 0.90))
		}
	}
	return median(rates), median(cpus), median(p50s), median(p90s)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail on Linux
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func heapAllocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// run is one benchmark run: set up, warm up, settle, measure, settle,
// check, report.
func run(cfg config) (*result, error) {
	w := cfg.workload
	in := newInputs(cfg.seed)
	var key *rsa.PrivateKey
	if slices.Contains(w.round, opDNS) {
		var err error
		// Key generation's prime search has a random running time; it
		// is done once, outside the timed set-up.
		if key, err = minissl.GenerateServerKey(); err != nil {
			return nil, err
		}
	}

	var setups []float64
	var spent time.Duration
	var st *stack
	for i := 0; i < maxSetups && (i < minSetups || spent < setupBudget); i++ {
		if st != nil {
			if err := st.stop(); err != nil {
				return nil, fmt.Errorf("tearing down set-up %d: %w", i, err)
			}
		}
		// Every set-up starts on a collected heap, so none of them pays
		// for its predecessor's garbage.
		runtime.GC()
		t0 := time.Now()
		var err error
		if st, err = w.build(in, key); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
	}

	base := time.Now()
	clients := make([]*client, numClients)
	results := make([]*clientResult, numClients)
	nextOp := make([]int64, numClients)
	for i := range clients {
		clients[i] = &client{net: st.net, gen: in.gen(i), keep: w.keep,
			viaDirector: st.director != nil, dnsServer: dnsAddr}
		if key != nil {
			clients[i].pub = &key.PublicKey
		}
		if cfg.trace {
			clients[i].tr = newTracer(base, cfg.seed+int64(i))
		}
		results[i] = newClientResult(cfg.seed, i, 1)
		nextOp[i] = int64(i) << 40
	}
	closeSockets := func() {
		for _, c := range clients {
			c.closeSocket()
		}
	}

	drive(w, clients, results, phase{windows: 1, win: warmup}, nextOp)
	closeSockets()
	if err := st.settle(); err != nil {
		return incorrect(fmt.Errorf("after warm-up: %w", err)), nil
	}
	ph := newPhase(cfg.seconds)
	for i := range results {
		if results[i].wrong != nil {
			return incorrect(fmt.Errorf("during warm-up: %w", results[i].wrong)), nil
		}
		results[i] = newClientResult(cfg.seed, i, ph.windows)
		clients[i].tr.reset()
		clients[i].retransmits = 0
	}
	baseline := st.baseline()
	var c0 counters
	var sm *sampler
	if cfg.trace {
		c0 = st.read()
		sm = st.startSampler()
	}

	alloc0 := heapAllocated()
	wins, elapsed := drive(w, clients, results, ph, nextOp)
	alloc1 := heapAllocated()
	if sm != nil {
		sm.finish()
	}
	closeSockets()

	res := &result{Correct: true, Metrics: map[string]metric{}}
	retransmits := 0
	for i, r := range results {
		res.Attempted += r.attempted
		res.Failed += r.failed
		if r.wrong != nil {
			fmt.Fprintln(os.Stderr, "servebench: wrong output:", r.wrong)
			res.Correct = false
		}
		retransmits += clients[i].retransmits
	}
	if err := st.settle(); err != nil {
		return incorrect(fmt.Errorf("after the run: %w", err)), nil
	}
	if err := st.check(baseline); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		res.Correct = false
	}
	ok := float64(res.Attempted - res.Failed)
	if ok == 0 {
		return incorrect(errors.New("no operation succeeded")), nil
	}
	opsPerS, cpuPerOp, p50, p90 := windowMedians(wins, results)

	if !cfg.trace {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		res.Metrics["ops_per_s"] = metric{opsPerS, "1/s"}
		res.Metrics["p50_ms"] = metric{p50, "ms"}
		res.Metrics["p90_ms"] = metric{p90, "ms"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["cpu_us_per_op"] = metric{cpuPerOp, "us/op"}
		res.Metrics["alloc_kb_per_op"] = metric{float64(alloc1-alloc0) / 1024 / ok, "KiB/op"}
		res.Metrics["heap_mb"] = metric{float64(ms.HeapAlloc) / (1 << 20), "MiB"}
	} else {
		c1 := st.read()
		tracers := make([]*tracer, len(clients))
		dropped := 0
		for i, c := range clients {
			tracers[i] = c.tr
			dropped += c.tr.dropped
		}
		perLayer(res.Metrics, tracers, c0, c1, sm, st, ok, retransmits)
		if err := writeSpans(cfg.spans, tracers); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		printJSON(map[string]any{"traced": map[string]any{
			"ops_per_s": opsPerS, "wall_s": elapsed.Seconds(), "spans": cfg.spans, "spans_dropped": dropped}})
	}
	if err := st.stop(); err != nil {
		return nil, fmt.Errorf("teardown: %w", err)
	}
	return res, nil
}

// incorrect is the result of a run whose stack failed a settled-state
// check: nothing after it can be trusted, so the stack is left as it is.
func incorrect(err error) *result {
	fmt.Fprintln(os.Stderr, "servebench:", err)
	return &result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metric{}}
}

// quantile is the nearest-rank quantile of a sorted sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// perLayer fills the traced run's metrics: span medians, counter deltas
// per operation, and the sampled figures. A layer a workload does not
// cross reads 0.
func perLayer(m map[string]metric, ts []*tracer, c0, c1 counters, sm *sampler, st *stack, ops float64, retransmits int) {
	med := spanMedians(ts)
	for _, sp := range []int32{spDial, spServeGreet, spAuth, spRetr, spQuit, spDnsdQuery, spVerify, spClusterGreet, spClusterQuery} {
		m[spanNames[sp]+"_us"] = metric{med[sp], "us"}
	}
	per := func(a, b uint64) float64 { return float64(b-a) / ops }
	m["dnsd.retransmits"] = metric{float64(retransmits), "count"}
	m["serve.snapshot_us"] = metric{median(sm.snapUs), "us"}
	m["serve.snapshot_kb"] = metric{snapshotKiB(st.snapHost), "KiB"}
	m["serve.admitted_per_op"] = metric{per(c0.admitted, c1.admitted), "count/op"}
	m["serve.expired_per_op"] = metric{per(c0.expired, c1.expired), "count/op"}
	m["serve.idle_resched_per_op"] = metric{per(c0.resched, c1.resched), "count/op"}
	m["gatepool.scrubs_per_op"] = metric{per(c0.scrubs, c1.scrubs), "count/op"}
	m["gatepool.scrubs_skipped_per_op"] = metric{per(c0.skipped, c1.skipped), "count/op"}
	entries := 0.0
	if c1.batches > c0.batches {
		entries = float64(c1.entries-c0.entries) / float64(c1.batches-c0.batches)
	}
	m["gatepool.entries_per_batch"] = metric{entries, "entries/batch"}
	m["gatepool.steals_per_op"] = metric{per(c0.steals, c1.steals), "count/op"}
	m["gatepool.conn_peak"] = metric{float64(sm.connPeak), "count"}
	m["sthread.recycled_calls_per_op"] = metric{per(c0.recycled, c1.recycled), "count/op"}
	m["sthread.created_per_op"] = metric{per(c0.created, c1.created), "count/op"}
	m["tags.smallocs_per_op"] = metric{per(c0.smallocs, c1.smallocs), "count/op"}
	m["cluster.admitted_per_op"] = metric{per(c0.clusterAdmitted, c1.clusterAdmitted), "count/op"}
}
