package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"wedge/internal/minissl"
	"wedge/internal/netsim"
)

// TestWorkloads runs every workload for a second, untraced and traced,
// and expects every check to pass and every metric to be reported.
func TestWorkloads(t *testing.T) {
	endToEnd := []string{"ops_per_s", "p50_ms", "p90_ms", "setup_s", "cpu_us_per_op", "alloc_kb_per_op", "heap_mb"}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				cfg := config{workload: w, seed: 7, seconds: 1, trace: trace,
					spans: filepath.Join(t.TempDir(), "spans.csv")}
				res, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if trace {
					want = []string{"netsim.dial_us", "sthread.recycled_calls_per_op", "gatepool.conn_peak", "serve.snapshot_us"}
				}
				for _, name := range want {
					if m, ok := res.Metrics[name]; !ok || m.Value <= 0 {
						t.Errorf("trace=%v: metric %s = %+v, want > 0", trace, name, m)
					}
				}
				if trace && len(res.Metrics) != 24 {
					t.Errorf("traced run reports %d metrics, want 24", len(res.Metrics))
				}
			}
		})
	}
}

// TestCorruptBodyFails serves a mailbox whose message differs by one
// byte from the seeded input: the session must fail its check.
func TestCorruptBodyFails(t *testing.T) {
	in := newInputs(3)
	served := newInputs(3)
	box := &served.boxes[0]
	msg := []byte(box.Messages[1])
	msg[len(msg)/2] ^= 1
	box.Messages[1] = string(msg)

	st, err := buildPop3(served, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.stop()
	c := &client{net: st.net}
	b := in.boxes[0]
	err = c.pop3(1, -1, mailOp{user: b.User, pass: b.Password, msg: 2, want: b.Messages[1]})
	var ce *checkError
	if !errors.As(err, &ce) {
		t.Fatalf("corrupted body: got %v, want a check error", err)
	}
	if err := c.pop3(2, -1, mailOp{user: b.User, pass: b.Password, msg: 1, want: b.Messages[0]}); err != nil {
		t.Fatalf("intact body: %v", err)
	}
}

// relay fronts the dnsd server at dnsAddr on n: it forwards queries
// through one mirror socket per client, swallows the first drop
// queries, and passes every answer through edit.
type relay struct {
	front   *netsim.PacketConn
	mu      sync.Mutex
	mirrors map[string]*netsim.PacketConn
	wg      sync.WaitGroup
}

func startRelay(t *testing.T, n *netsim.Network, addr string, drop int, edit func([]byte) []byte) {
	front, err := n.ListenPacket(addr)
	if err != nil {
		t.Fatal(err)
	}
	r := &relay{front: front, mirrors: map[string]*netsim.PacketConn{}}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		buf := make([]byte, 4096)
		for {
			k, from, err := front.ReadFrom(buf)
			if err != nil {
				return
			}
			if drop > 0 {
				drop--
				continue
			}
			r.mu.Lock()
			m := r.mirrors[from]
			if m == nil {
				if m, err = n.DialPacket(); err != nil {
					r.mu.Unlock()
					return
				}
				r.mirrors[from] = m
				r.wg.Add(1)
				go func(m *netsim.PacketConn, client string) {
					defer r.wg.Done()
					b := make([]byte, 4096)
					for {
						k, _, err := m.ReadFrom(b)
						if err != nil {
							return
						}
						front.WriteTo(edit(append([]byte(nil), b[:k]...)), client)
					}
				}(m, from)
			}
			r.mu.Unlock()
			m.WriteTo(buf[:k], dnsAddr)
		}
	}()
	t.Cleanup(func() {
		front.Close()
		r.mu.Lock()
		for _, m := range r.mirrors {
			m.Close()
		}
		r.mu.Unlock()
		r.wg.Wait()
	})
}

func dnsTestStack(t *testing.T) (*stack, *inputs, *client) {
	t.Helper()
	in := newInputs(5)
	key, err := minissl.GenerateServerKey()
	if err != nil {
		t.Fatal(err)
	}
	st, err := buildDnsd(in, key)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.stop() })
	return st, in, &client{net: st.net, pub: &key.PublicKey, dnsServer: dnsAddr}
}

// TestCorruptAnswerFails flips one byte of each answer's value, then of
// its signature: both must fail the check, and an absent name must be
// answered by a signed NXDOMAIN.
func TestCorruptAnswerFails(t *testing.T) {
	st, in, c := dnsTestStack(t)
	present := nameOp{name: in.zone[0].Name, present: true, value: in.zone[0].Value}
	if err := c.dns(1, -1, present); err != nil {
		t.Fatalf("direct: %v", err)
	}
	if err := c.dns(2, -1, nameOp{name: in.absent[0]}); err != nil {
		t.Fatalf("absent name: %v", err)
	}
	// Wire format: 'R', status, name length, name, value length (2),
	// value, signature length (2), signature.
	valueAt := 3 + len(present.name) + 2
	for k, at := range []int{valueAt, -1} {
		c.dnsServer = fmt.Sprintf("relay-%d:53", k)
		startRelay(t, st.net, c.dnsServer, 0, func(b []byte) []byte {
			i := at
			if i < 0 {
				i = len(b) - 1
			}
			b[i] ^= 1
			return b
		})
		err := c.dns(3, -1, present)
		var ce *checkError
		if !errors.As(err, &ce) {
			t.Fatalf("byte %d flipped: got %v, want a check error", at, err)
		}
	}
}

// TestSwallowedQueryRetransmits drops the first query: the client must
// retransmit after its deadline and get the answer, not hang.
func TestSwallowedQueryRetransmits(t *testing.T) {
	st, in, c := dnsTestStack(t)
	c.dnsServer = "relay:53"
	startRelay(t, st.net, c.dnsServer, 1, func(b []byte) []byte { return b })
	done := make(chan error, 1)
	go func() {
		done <- c.dns(1, -1, nameOp{name: in.zone[3].Name, present: true, value: in.zone[3].Value})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(dnsAttempts*dnsDeadline + 5*time.Second):
		t.Fatal("query hung after its first datagram was swallowed")
	}
	if c.retransmits < 1 {
		t.Fatalf("retransmits = %d, want at least 1", c.retransmits)
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartiles(t *testing.T) {
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q := quartiles(v); q != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", q)
	}
}

// TestInputsSeeded checks that a seed fixes the inputs and another
// seed changes them.
func TestInputsSeeded(t *testing.T) {
	a, b, c := newInputs(1), newInputs(1), newInputs(2)
	if a.boxes[5].Messages[2] != b.boxes[5].Messages[2] || a.zone[9] != b.zone[9] {
		t.Fatal("the same seed gave different inputs")
	}
	if a.zone[9] == c.zone[9] {
		t.Fatal("different seeds gave the same zone")
	}
	ga, gb := a.gen(0), b.gen(0)
	for i := 0; i < 100; i++ {
		if ga.name() != gb.name() || ga.mail().want != gb.mail().want {
			t.Fatal("the same seed gave different operations")
		}
	}
}
