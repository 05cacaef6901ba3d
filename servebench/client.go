package main

import (
	"bytes"
	"crypto/rsa"
	"errors"
	"fmt"
	"strconv"
	"time"

	"wedge/internal/dnsd"
	"wedge/internal/netsim"
)

// dnsd client retransmission: a query unanswered after dnsDeadline is
// resent from a fresh socket, at most dnsAttempts times in all.
const (
	dnsDeadline = 50 * time.Millisecond
	dnsAttempts = 8
)

// checkError is a wrong output: the program answered, and the answer
// is not what the seeded input says it must be. Any one makes the run
// incorrect.
type checkError struct{ msg string }

func (e *checkError) Error() string { return e.msg }

func wrong(format string, args ...any) error {
	return &checkError{fmt.Sprintf(format, args...)}
}

// client is one closed-loop load generator: one connection or socket
// at a time, each operation checked before the next starts.
type client struct {
	net *netsim.Network
	gen *opGen
	pub *rsa.PublicKey
	tr  *tracer

	// viaDirector names the greeting and query spans for the cluster.
	viaDirector bool
	// keep holds the dnsd socket across queries (a returning principal);
	// otherwise every query comes from a fresh socket.
	keep        bool
	dnsServer   string
	pc          *netsim.PacketConn
	retransmits int

	r lineReader
}

// closeSocket drops a kept dnsd socket, so its server-side flow can
// expire.
func (c *client) closeSocket() {
	if c.pc != nil {
		c.pc.Close()
		c.pc = nil
	}
}

// pop3 runs one session: connect, greeting, USER, PASS, RETR, QUIT. The
// retrieved body must equal the seeded message byte for byte.
func (c *client) pop3(op int64, parent int32, m mailOp) error {
	sp := c.tr.begin(spDial, parent, op)
	conn, err := c.net.Dial(pop3Addr)
	c.tr.end(sp)
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	defer conn.Close()
	c.r.reset(conn)
	send := func(cmd string) error {
		_, err := conn.Write([]byte(cmd + "\r\n"))
		return err
	}
	greet := spServeGreet
	if c.viaDirector {
		greet = spClusterGreet
	}
	sp = c.tr.begin(greet, parent, op)
	err = c.r.expectOK("greeting")
	c.tr.end(sp)
	if err != nil {
		return err
	}

	sp = c.tr.begin(spAuth, parent, op)
	err = send("USER " + m.user)
	if err == nil {
		err = c.r.expectOK("USER")
	}
	if err == nil {
		err = send("PASS " + m.pass)
	}
	if err == nil {
		err = c.r.expectOK("PASS")
	}
	c.tr.end(sp)
	if err != nil {
		return err
	}

	sp = c.tr.begin(spRetr, parent, op)
	err = send("RETR " + strconv.Itoa(m.msg))
	if err == nil {
		err = c.retr(m)
	}
	c.tr.end(sp)
	if err != nil {
		return err
	}

	sp = c.tr.begin(spQuit, parent, op)
	err = send("QUIT")
	if err == nil {
		err = c.r.expectOK("QUIT")
	}
	c.tr.end(sp)
	return err
}

// retr reads one RETR response — "+OK <n> octets", n body bytes, then
// the terminating "." line — and checks the body.
func (c *client) retr(m mailOp) error {
	line, err := c.r.line()
	if err != nil {
		return err
	}
	var n int
	if _, err := fmt.Sscanf(line, "+OK %d octets", &n); err != nil {
		return wrong("RETR %d for %s: got %q, want +OK <n> octets", m.msg, m.user, line)
	}
	if n != len(m.want) {
		return wrong("RETR %d for %s: %d octets, the seeded message has %d", m.msg, m.user, n, len(m.want))
	}
	body, err := c.r.next(n)
	if err != nil {
		return err
	}
	if err := checkBody(body, m); err != nil {
		return err
	}
	for _, want := range []string{"", "."} {
		line, err := c.r.line()
		if err != nil {
			return err
		}
		if line != want {
			return wrong("RETR %d for %s: got %q after the body, want %q", m.msg, m.user, line, want)
		}
	}
	return nil
}

// checkBody compares a retrieved body with the seeded message.
func checkBody(body []byte, m mailOp) error {
	if string(body) == m.want {
		return nil
	}
	i := 0
	for i < len(body) && i < len(m.want) && body[i] == m.want[i] {
		i++
	}
	return wrong("RETR %d for %s: body differs from the seeded message at byte %d", m.msg, m.user, i)
}

// dns runs one query: send, wait for the signed answer with a deadline,
// retransmit from a fresh socket on timeout, then check and verify the
// answer. Only a spent retransmit budget fails the operation.
func (c *client) dns(op int64, parent int32, q nameOp) error {
	name := spDnsdQuery
	if c.viaDirector {
		name = spClusterQuery
	}
	qs := c.tr.begin(name, parent, op)
	a, err := c.exchange(op, qs, q)
	c.tr.end(qs)
	if err != nil {
		return err
	}
	sp := c.tr.begin(spVerify, parent, op)
	err = checkAnswer(a, q, c.pub)
	c.tr.end(sp)
	return err
}

func (c *client) exchange(op int64, parent int32, q nameOp) (*dnsd.Answer, error) {
	for attempt := 1; ; attempt++ {
		if c.pc == nil {
			sp := c.tr.begin(spDial, parent, op)
			pc, err := c.net.DialPacket()
			c.tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("dial: %w", err)
			}
			c.pc = pc
		}
		pc := c.pc
		sp := c.tr.begin(spAttempt, parent, op)
		// Closing the socket is the deadline: it fails the blocked read.
		timer := time.AfterFunc(dnsDeadline, func() { pc.Close() })
		a, err := dnsd.Query(pc, c.dnsServer, q.name)
		fired := !timer.Stop()
		c.tr.end(sp)
		if err != nil || fired || !c.keep {
			c.closeSocket()
		}
		if err == nil {
			return a, nil
		}
		if !fired || !errors.Is(err, netsim.ErrClosed) {
			return nil, wrong("query %s: %v", q.name, err)
		}
		if attempt == dnsAttempts {
			return nil, fmt.Errorf("query %s: no answer after %d attempts %v apart", q.name, dnsAttempts, dnsDeadline)
		}
		c.retransmits++
	}
}

// checkAnswer checks one answer against the seeded zone: the queried
// name echoed, NOERROR with the zone's value for a present name,
// NXDOMAIN with no value for an absent one, and a signature that
// verifies under the zone's public key.
func checkAnswer(a *dnsd.Answer, q nameOp, pub *rsa.PublicKey) error {
	if string(a.Name) != q.name {
		return wrong("query %s: answer names %q", q.name, a.Name)
	}
	if q.present {
		if a.Status != dnsd.StatusNoError {
			return wrong("query %s: status %d, want NOERROR", q.name, a.Status)
		}
		if string(a.Value) != q.value {
			return wrong("query %s: value %q, the zone holds %q", q.name, a.Value, q.value)
		}
	} else {
		if a.Status != dnsd.StatusNXDomain {
			return wrong("query %s (absent): status %d, want NXDOMAIN", q.name, a.Status)
		}
		if len(a.Value) != 0 {
			return wrong("query %s (absent): denial carries value %q", q.name, a.Value)
		}
	}
	if err := a.Verify(pub); err != nil {
		return wrong("query %s: signature: %v", q.name, err)
	}
	return nil
}

// lineReader reads CRLF lines and counted bodies from one connection,
// reusing its buffer across connections.
type lineReader struct {
	conn *netsim.Conn
	buf  []byte
	off  int
}

func (l *lineReader) reset(conn *netsim.Conn) {
	if l.buf == nil {
		l.buf = make([]byte, 0, 4096)
	}
	l.conn, l.buf, l.off = conn, l.buf[:0], 0
}

// fill reads more bytes, compacting and growing the buffer as needed.
func (l *lineReader) fill() error {
	if l.off > 0 {
		l.buf = l.buf[:copy(l.buf, l.buf[l.off:])]
		l.off = 0
	}
	if len(l.buf) == cap(l.buf) {
		grown := make([]byte, len(l.buf), 2*cap(l.buf))
		copy(grown, l.buf)
		l.buf = grown
	}
	n, err := l.conn.Read(l.buf[len(l.buf):cap(l.buf)])
	if err != nil {
		return err
	}
	l.buf = l.buf[:len(l.buf)+n]
	return nil
}

func (l *lineReader) line() (string, error) {
	for {
		if i := bytes.IndexByte(l.buf[l.off:], '\n'); i >= 0 {
			line := l.buf[l.off : l.off+i]
			l.off += i + 1
			return string(bytes.TrimSuffix(line, []byte{'\r'})), nil
		}
		if err := l.fill(); err != nil {
			return "", err
		}
	}
}

// next returns the next n bytes; they stay valid until the next read.
func (l *lineReader) next(n int) ([]byte, error) {
	for len(l.buf)-l.off < n {
		if err := l.fill(); err != nil {
			return nil, err
		}
	}
	b := l.buf[l.off : l.off+n]
	l.off += n
	return b, nil
}

func (l *lineReader) expectOK(what string) error {
	line, err := l.line()
	if err != nil {
		return err
	}
	if len(line) < 3 || line[:3] != "+OK" {
		return wrong("%s: got %q, want +OK", what, line)
	}
	return nil
}
