package main

import (
	"crypto/rsa"
	"fmt"
	"time"

	"wedge/internal/cluster"
	"wedge/internal/dnsd"
	"wedge/internal/kernel"
	"wedge/internal/netsim"
	"wedge/internal/pop3"
	"wedge/internal/serve"
	"wedge/internal/sthread"
	"wedge/internal/vm"
)

// Server configuration. Slot counts are fixed, not derived from the
// host's parallelism, so two hosts run the same stack.
const (
	pop3Slots      = 4
	dnsdSlots      = 4
	dnsdIdle       = 10 * time.Millisecond // single-runtime flow-expiry window
	memberDNSSlots = 256                   // cluster members' dnsd pool width
	memberDNSIdle  = 4 * time.Millisecond  // cluster members' flow-expiry window
	clusterMembers = 3
	directorIdle   = 250 * time.Millisecond // director-side packet relay idle bound
	premainImage   = 1 << 20                // pre-main image every host carries

	pop3Addr = "pop3:110"
	dnsAddr  = "dns:53"
)

// host is one booted wedge application running one serve runtime: its
// own kernel, its own tag registry, Main running until stop.
type host struct {
	name string
	k    *kernel.Kernel
	app  *sthread.App
	snap func() serve.Snapshot

	quit chan struct{}
	done chan error
}

// bootHost boots a kernel and an application carrying the pre-main
// image, and runs build as its Main. build returns the runtime's
// snapshot and a cleanup that stop runs inside Main before it returns.
func bootHost(name string, build func(root *sthread.Sthread) (snap func() serve.Snapshot, cleanup func(), err error)) (*host, error) {
	h := &host{name: name, k: kernel.New(), quit: make(chan struct{}), done: make(chan error, 1)}
	h.app = sthread.Boot(h.k)
	if err := h.app.Premain(touchImage); err != nil {
		return nil, err
	}
	ready := make(chan error, 1)
	go func() {
		h.done <- h.app.Main(func(root *sthread.Sthread) {
			snap, cleanup, err := build(root)
			h.snap = snap
			ready <- err
			if err != nil {
				return
			}
			<-h.quit
			cleanup()
		})
	}()
	if err := <-ready; err != nil {
		<-h.done
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return h, nil
}

// touchImage maps and writes the pre-main image: loader relocations and
// static data every sthread inherits copy-on-write.
func touchImage(init *kernel.Task) {
	base, err := init.Mmap(premainImage, vm.PermRW)
	if err != nil {
		panic(err) // a fresh kernel always has room for the image
	}
	for off := 0; off < premainImage; off += vm.PageSize {
		init.AS.Store64(base+vm.Addr(off), uint64(off))
	}
}

func (h *host) stop() error {
	close(h.quit)
	if err := <-h.done; err != nil {
		return fmt.Errorf("%s: %w", h.name, err)
	}
	return nil
}

// stack is one workload's serving stack: the network clients dial, the
// hosts behind it, and, for the cluster, the director in front.
type stack struct {
	net      *netsim.Network
	hosts    []*host
	director *cluster.Director
	// snapHost is the host whose Snapshot the traced run times: the
	// dnsd runtime where there is one.
	snapHost  *host
	stopFront func()
}

func (s *stack) stop() error {
	if s.stopFront != nil {
		s.stopFront()
	}
	var first error
	for _, h := range s.hosts {
		if err := h.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// pop3Host builds a pooled pop3 runtime. With listen set it serves
// pop3Addr on its own kernel's network; a cluster member does not
// listen, the director hands it connections.
func pop3Host(name string, in *inputs, listen bool) (*host, *pop3.PooledServer, error) {
	var srv *pop3.PooledServer
	h, err := bootHost(name, func(root *sthread.Sthread) (func() serve.Snapshot, func(), error) {
		var err error
		srv, err = pop3.NewPooled(root, in.boxes, pop3Slots, pop3.Hooks{})
		if err != nil {
			return nil, nil, err
		}
		if !listen {
			return srv.Snapshot, func() { srv.Close() }, nil
		}
		l, err := root.Task.Listen(pop3Addr)
		if err != nil {
			srv.Close()
			return nil, nil, err
		}
		served := make(chan struct{})
		go func() { srv.Serve(l); close(served) }()
		return srv.Snapshot, func() { l.Close(); <-served; srv.Close() }, nil
	})
	return h, srv, err
}

// dnsdHost builds a pooled dnsd runtime; listen as for pop3Host.
func dnsdHost(name string, in *inputs, key *rsa.PrivateKey, slots int, idle time.Duration, listen bool) (*host, *dnsd.Resolver, error) {
	var rt *dnsd.Resolver
	h, err := bootHost(name, func(root *sthread.Sthread) (func() serve.Snapshot, func(), error) {
		var err error
		rt, err = dnsd.NewPooled(root, key, in.zone, dnsd.Config{Slots: slots, IdleTimeout: idle})
		if err != nil {
			return nil, nil, err
		}
		if !listen {
			return rt.Snapshot, func() { rt.Close() }, nil
		}
		pc, err := root.Task.ListenPacket(dnsAddr)
		if err != nil {
			rt.Close()
			return nil, nil, err
		}
		served := make(chan struct{})
		go func() { rt.ServePackets(pc); close(served) }()
		return rt.Snapshot, func() { pc.Close(); <-served; rt.Close() }, nil
	})
	return h, rt, err
}

func buildPop3(in *inputs, _ *rsa.PrivateKey) (*stack, error) {
	h, _, err := pop3Host("pop3", in, true)
	if err != nil {
		return nil, err
	}
	return &stack{net: h.k.Net, hosts: []*host{h}, snapHost: h}, nil
}

func buildDnsd(in *inputs, key *rsa.PrivateKey) (*stack, error) {
	h, _, err := dnsdHost("dnsd", in, key, dnsdSlots, dnsdIdle, true)
	if err != nil {
		return nil, err
	}
	return &stack{net: h.k.Net, hosts: []*host{h}, snapHost: h}, nil
}

// buildCluster boots clusterMembers members, each a pop3 host and a
// dnsd host (the dnsd kernel's network is the member's segment for
// packet relays), behind a director serving the front network.
func buildCluster(in *inputs, key *rsa.PrivateKey) (*stack, error) {
	s := &stack{net: netsim.New(), director: cluster.New()}
	s.director.PacketIdle = int64(directorIdle)
	fail := func(err error) (*stack, error) {
		s.stop()
		return nil, err
	}
	for i := 0; i < clusterMembers; i++ {
		name := fmt.Sprintf("m%d", i)
		ph, pop, err := pop3Host(name+"-pop3", in, false)
		if err != nil {
			return fail(err)
		}
		s.hosts = append(s.hosts, ph)
		dh, dns, err := dnsdHost(name+"-dnsd", in, key, memberDNSSlots, memberDNSIdle, false)
		if err != nil {
			return fail(err)
		}
		s.hosts = append(s.hosts, dh)
		if s.snapHost == nil {
			s.snapHost = dh
		}
		if err := s.director.Add(cluster.Member{Name: name, Stream: pop, Packet: dns, Host: dh.k.Net}); err != nil {
			return fail(err)
		}
	}
	l, err := s.net.Listen(pop3Addr)
	if err != nil {
		return fail(err)
	}
	pc, err := s.net.ListenPacket(dnsAddr)
	if err != nil {
		l.Close()
		return fail(err)
	}
	sdone, pdone := make(chan struct{}), make(chan struct{})
	go func() { s.director.Serve(l); close(sdone) }()
	go func() { s.director.ServePackets(pc); close(pdone) }()
	s.stopFront = func() { l.Close(); pc.Close(); <-sdone; <-pdone }
	return s, nil
}

// settle waits until every runtime is quiet — nothing in flight, no busy
// slot, no live flow, an empty conn table — and, for the cluster, no
// live director session.
func (s *stack) settle() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		busy := ""
		for _, h := range s.hosts {
			sn := h.snap()
			if sn.Inflight != 0 || sn.Pool.Busy != 0 || sn.Flows != 0 || sn.Conns.Entries != 0 {
				busy = fmt.Sprintf("%s: inflight=%d busy=%d flows=%d conn-entries=%d",
					h.name, sn.Inflight, sn.Pool.Busy, sn.Flows, sn.Conns.Entries)
				break
			}
		}
		if busy == "" && s.director != nil {
			if st := s.director.Stats(); st.Sessions != 0 {
				busy = fmt.Sprintf("director: %d live sessions", st.Sessions)
			}
		}
		if busy == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not quiescent after 10s: %s", busy)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// baseline is each host's kernel task count and live tag count at a
// settled moment.
type baseline []struct{ tasks, tags int }

func (s *stack) baseline() baseline {
	b := make(baseline, len(s.hosts))
	for i, h := range s.hosts {
		b[i].tasks = h.k.TaskCount()
		b[i].tags = len(h.app.Tags.Tags())
	}
	return b
}

// check runs the settled-state checks: every runtime's admission ledger
// balances, and every host's task and tag counts are back at b.
func (s *stack) check(b baseline) error {
	for i, h := range s.hosts {
		sn := h.snap()
		if sn.Admitted != sn.Served+sn.Failed+sn.Handed {
			return fmt.Errorf("%s ledger: admitted=%d != served=%d + failed=%d + handed=%d",
				h.name, sn.Admitted, sn.Served, sn.Failed, sn.Handed)
		}
		if got := h.k.TaskCount(); got != b[i].tasks {
			return fmt.Errorf("%s: %d kernel tasks after the run, %d after warm-up", h.name, got, b[i].tasks)
		}
		if got := len(h.app.Tags.Tags()); got != b[i].tags {
			return fmt.Errorf("%s: %d live tags after the run, %d after warm-up", h.name, got, b[i].tags)
		}
	}
	return nil
}
