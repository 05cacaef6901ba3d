package main

import (
	"fmt"
	"math/rand"
	"strings"

	"wedge/internal/dnsd"
	"wedge/internal/pop3"
)

// The input make-up. Every workload draws from one seeded input set;
// only --seed changes it. The README records these figures.
const (
	numUsers     = 32   // pop3 mailboxes
	msgsPerUser  = 4    // messages per mailbox
	minMsgBytes  = 256  // message size range, uniform
	maxMsgBytes  = 1400 // below the server's 1656-byte RETR bound
	zoneRecords  = 64   // dnsd zone size
	absentEvery  = 8    // about one query in absentEvery asks for an absent name
	absentPool   = 64   // distinct absent names
	maxValueSize = 48   // zone value length bound (values are 8..48 bytes)
)

// inputs is the seeded input set: the mailboxes the pop3 servers are
// provisioned with, the zone the dnsd servers sign, and the absent
// names. The load generator keeps its own copy and checks every answer
// against it, never against anything the server reports.
type inputs struct {
	seed   int64
	boxes  []pop3.Mailbox
	zone   []dnsd.Record
	absent []string
}

const alnum = "abcdefghijklmnopqrstuvwxyz0123456789"

func randWord(r *rand.Rand, min, max int) string {
	n := min + r.Intn(max-min+1)
	b := make([]byte, n)
	for i := range b {
		b[i] = alnum[r.Intn(len(alnum))]
	}
	return string(b)
}

// randBody is a printable message of exactly n bytes: a header, a blank
// line, then lines of words.
func randBody(r *rand.Rand, user string, idx, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "From: %s@example\r\nSubject: message %d\r\n\r\n", user, idx)
	for b.Len() < n {
		b.WriteString(randWord(r, 1, 12))
		if r.Intn(10) == 0 {
			b.WriteString("\r\n")
		} else {
			b.WriteByte(' ')
		}
	}
	return b.String()[:n]
}

func newInputs(seed int64) *inputs {
	r := rand.New(rand.NewSource(seed))
	in := &inputs{seed: seed}
	for u := 0; u < numUsers; u++ {
		user := fmt.Sprintf("u%02d%s", u, randWord(r, 3, 8))
		box := pop3.Mailbox{User: user, Password: randWord(r, 8, 16), UID: 1000 + u}
		for m := 0; m < msgsPerUser; m++ {
			n := minMsgBytes + r.Intn(maxMsgBytes-minMsgBytes+1)
			box.Messages = append(box.Messages, randBody(r, user, m+1, n))
		}
		in.boxes = append(in.boxes, box)
	}
	for i := 0; i < zoneRecords; i++ {
		// The index prefix keeps names distinct; "nx" never starts one.
		name := fmt.Sprintf("h%02d-%s.zone.example", i, randWord(r, 4, 16))
		in.zone = append(in.zone, dnsd.Record{Name: name, Value: randWord(r, 8, maxValueSize)})
	}
	for i := 0; i < absentPool; i++ {
		in.absent = append(in.absent, fmt.Sprintf("nx%02d-%s.zone.example", i, randWord(r, 4, 16)))
	}
	return in
}

// opGen draws one client's operations: which mailbox and message a pop3
// session retrieves, which name a dnsd query asks for. Each client has
// its own stream, derived from the seed and the client index.
type opGen struct {
	in *inputs
	r  *rand.Rand
}

func (in *inputs) gen(client int) *opGen {
	return &opGen{in: in, r: rand.New(rand.NewSource(in.seed*1_000_003 + int64(client) + 1))}
}

// mailOp is one pop3 session's input and its expected output.
type mailOp struct {
	user, pass string
	msg        int // 1-based message number
	want       string
}

func (g *opGen) mail() mailOp {
	b := &g.in.boxes[g.r.Intn(len(g.in.boxes))]
	m := g.r.Intn(len(b.Messages))
	return mailOp{user: b.User, pass: b.Password, msg: m + 1, want: b.Messages[m]}
}

// nameOp is one dnsd query's input and its expected output: present
// names expect NOERROR and the zone value, absent names NXDOMAIN and no
// value.
type nameOp struct {
	name    string
	present bool
	value   string
}

func (g *opGen) name() nameOp {
	if g.r.Intn(absentEvery) == 0 {
		return nameOp{name: g.in.absent[g.r.Intn(len(g.in.absent))]}
	}
	rec := g.in.zone[g.r.Intn(len(g.in.zone))]
	return nameOp{name: rec.Name, present: true, value: rec.Value}
}
