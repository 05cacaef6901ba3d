package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// Span names. Every span is recorded by the benchmark around one call
// it makes into the program; none comes from inside the program.
const (
	spOp           int32 = iota // one whole operation
	spDial                      // netsim Dial or DialPacket
	spServeGreet                // dial to greeting, straight to the runtime
	spClusterGreet              // dial to greeting, through the director
	spAuth                      // USER and PASS round trips
	spRetr                      // RETR round trip and body
	spQuit                      // QUIT round trip
	spDnsdQuery                 // first send to answer, retransmit waits included
	spClusterQuery              // the same, through the director
	spAttempt                   // one send and its wait (a retransmit wait if it timed out)
	spVerify                    // client-side answer check and signature verification
	numSpans
)

var spanNames = [numSpans]string{
	"op", "netsim.dial", "serve.greet", "cluster.greet", "pop3.auth", "pop3.retr",
	"pop3.quit", "dnsd.query", "cluster.query", "dnsd.attempt", "dnsd.verify",
}

// span is one timed call: start and end are nanoseconds since the
// run's time base, parent indexes the same client's span slice (-1 for
// an operation's root).
type span struct {
	op         int64
	name       int32
	parent     int32
	start, end int64
}

// Span memory bounds, per client. The first maxSpans spans are kept
// whole for the spans file; every span's duration also enters its
// name's reservoir, so the per-layer medians cover the whole run.
const (
	maxSpans    = 1 << 17
	durSamples  = 1 << 14
	spanPending = 16 // one operation's spans
)

// tracer records one client's spans in memory. A nil tracer records
// nothing and costs one comparison per call.
type tracer struct {
	base    time.Time
	pending []span // the current operation's spans
	spans   []span // kept spans
	dropped int
	durs    [numSpans]reservoir // microseconds
}

func newTracer(base time.Time, seed int64) *tracer {
	t := &tracer{base: base, pending: make([]span, 0, spanPending), spans: make([]span, 0, maxSpans)}
	for i := range t.durs {
		t.durs[i] = newReservoir(durSamples, seed*int64(numSpans)+int64(i))
	}
	return t
}

func (t *tracer) begin(name, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	t.pending = append(t.pending, span{op: op, name: name, parent: parent, start: int64(time.Since(t.base))})
	return int32(len(t.pending) - 1)
}

// end closes span i; closing an operation's root span (parent -1)
// files the operation's spans.
func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	s := &t.pending[i]
	s.end = int64(time.Since(t.base))
	if s.parent >= 0 {
		return
	}
	off := int32(len(t.spans))
	keep := len(t.spans)+len(t.pending) <= cap(t.spans)
	for _, p := range t.pending {
		t.durs[p.name].add(float64(p.end-p.start) / 1e3)
		if keep {
			if p.parent >= 0 {
				p.parent += off
			}
			t.spans = append(t.spans, p)
		}
	}
	if !keep {
		t.dropped += len(t.pending)
	}
	t.pending = t.pending[:0]
}

// reset forgets the warm-up's spans.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.spans, t.dropped = t.spans[:0], 0
	for i := range t.durs {
		t.durs[i].n, t.durs[i].v = 0, t.durs[i].v[:0]
	}
}

// spanMedians returns each span name's median duration in microseconds
// across all clients.
func spanMedians(ts []*tracer) (med [numSpans]float64) {
	for i := range med {
		var all []float64
		for _, t := range ts {
			all = append(all, t.durs[i].v...)
		}
		med[i] = median(all)
	}
	return med
}

// writeSpans writes every kept span as CSV: client, op, index, parent,
// name, start_ns, end_ns.
func writeSpans(path string, ts []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "client,op,index,parent,name,start_ns,end_ns")
	for c, t := range ts {
		for i, s := range t.spans {
			fmt.Fprintf(w, "%d,%d,%d,%d,%s,%d,%d\n", c, s.op, i, s.parent, spanNames[s.name], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counters are the program's own counters summed over the stack, read
// from outside: runtime snapshots, pool stats, the apps' primitive
// counts, the tag registries and the director's ledger.
type counters struct {
	admitted, expired, resched          uint64
	scrubs, skipped, batches, entries   uint64
	steals, recycled, created, smallocs uint64
	clusterAdmitted                     uint64
}

// read must run while the stack is settled: the tag registry's smalloc
// count is a plain field written under its own lock.
func (s *stack) read() counters {
	var c counters
	for _, h := range s.hosts {
		sn := h.snap()
		c.admitted += sn.Admitted
		c.expired += sn.Expired
		c.resched += sn.IdleResched
		c.scrubs += sn.Pool.Scrubs
		c.skipped += sn.Pool.ScrubsSkipped
		c.batches += sn.Pool.Batches
		c.entries += sn.Pool.BatchEntries
		c.steals += sn.Pool.Steals
		c.recycled += h.app.Stats.RecycledCalls.Load()
		c.created += h.app.Stats.SthreadsCreated.Load()
		c.smallocs += h.app.Tags.Smallocs
	}
	if s.director != nil {
		c.clusterAdmitted = s.director.Stats().Admitted
	}
	return c
}

// sampler polls the stack while a traced run's load runs: the peak
// conn-table occupancy summed over runtimes, and the time one Snapshot
// of the stack's snapshot host takes.
type sampler struct {
	stop, done chan struct{}
	connPeak   int
	snapUs     []float64
}

const sampleEvery = 10 * time.Millisecond

func (s *stack) startSampler() *sampler {
	sm := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(sm.done)
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-sm.stop:
				return
			case <-tick.C:
			}
			conns := 0
			for _, h := range s.hosts {
				if h == s.snapHost {
					t0 := time.Now()
					sn := h.snap()
					sm.snapUs = append(sm.snapUs, float64(time.Since(t0))/1e3)
					conns += sn.Conns.Entries
					continue
				}
				conns += h.snap().Conns.Entries
			}
			if conns > sm.connPeak {
				sm.connPeak = conns
			}
		}
	}()
	return sm
}

func (sm *sampler) finish() { close(sm.stop); <-sm.done }

// snapshotKiB is the heap one Snapshot of h allocates, averaged over
// several calls on a settled stack.
func snapshotKiB(h *host) float64 {
	const calls = 16
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < calls; i++ {
		h.snap()
	}
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / calls / 1024
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
