package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/wire"
)

// describe prints every field of a message exactly — floats as their bits,
// so NaN payloads and -0 compare — and a slice with no elements the same
// whether it is nil or empty, which is all the layout can carry.
func describe(m *message) string {
	var b strings.Builder
	ints := func(vs []int) {
		fmt.Fprintf(&b, "%d[", len(vs))
		for _, v := range vs {
			fmt.Fprintf(&b, "%d ", v)
		}
		b.WriteString("]")
	}
	bits := func(x float64) uint64 { return math.Float64bits(x) }
	fmt.Fprintf(&b, "%s proto=%d mv=%d window=%d id=%d pick=%d err=%q weights=%x resources=%q caps=",
		m.Type, m.Proto, m.ModelVersion, m.Window, m.ID, m.Pick, m.Err, m.Weights, append([]string{}, m.Resources...))
	ints(m.Capacities)
	fmt.Fprintf(&b, " now=%016x queue=%d", bits(m.Req.Now), len(m.Req.Queue))
	for _, q := range m.Req.Queue {
		b.WriteString(" {")
		ints(q.Demand)
		fmt.Fprintf(&b, " %016x %016x}", bits(q.Walltime), bits(q.Submit))
	}
	fmt.Fprintf(&b, " running=%d", len(m.Req.Running))
	for _, a := range m.Req.Running {
		fmt.Fprintf(&b, " {%d ", a.JobID)
		ints(a.Demand)
		fmt.Fprintf(&b, " %016x %016x}", bits(a.Start), bits(a.EstEnd))
	}
	return b.String()
}

// Random field values, weighted toward the edges of each form.
func randomFloat(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return math.Inf(1 - 2*rng.Intn(2))
	case 2: // a NaN with a random payload and sign
		return math.Float64frombits(0x7FF0000000000001 | rng.Uint64())
	case 3:
		return math.Float64frombits(rng.Uint64())
	}
	return rng.NormFloat64() * 1e5
}

func randomInt(rng *rand.Rand) int {
	switch rng.Intn(8) {
	case 0:
		return -1
	case 1:
		return math.MaxInt
	case 2:
		return math.MinInt
	case 3:
		return int(rng.Uint64())
	}
	return rng.Intn(300) - 20
}

func randomUint(rng *rand.Rand) uint64 {
	switch rng.Intn(4) {
	case 0:
		return math.MaxUint64
	case 1:
		return rng.Uint64()
	}
	return uint64(rng.Intn(1 << 14))
}

// randomInts is nil, empty or up to four values: ragged on purpose.
func randomInts(rng *rand.Rand) []int {
	switch n := rng.Intn(6); n {
	case 0:
		return nil
	case 1:
		return []int{}
	default:
		vs := make([]int, n-1)
		for i := range vs {
			vs[i] = randomInt(rng)
		}
		return vs
	}
}

func randomString(rng *rand.Rand) string {
	b := make([]byte, rng.Intn(3)*rng.Intn(40))
	rng.Read(b)
	return string(b)
}

// randomMessage draws a message of type t with only t's fields set: the
// layout carries nothing else.
func randomMessage(rng *rand.Rand, t msgType) *message {
	m := &message{Type: t}
	switch t {
	case msgHello:
		m.Proto = randomInt(rng)
	case msgWelcome:
		m.Proto, m.ModelVersion, m.Window = randomInt(rng), randomUint(rng), randomInt(rng)
		if n := rng.Intn(4); n > 0 {
			m.Resources = make([]string, n-1)
			for i := range m.Resources {
				m.Resources[i] = randomString(rng)
			}
		}
		m.Capacities, m.Err = randomInts(rng), randomString(rng)
	case msgDecide:
		m.ID, m.Req.Now = randomUint(rng), randomFloat(rng)
		if n := rng.Intn(12); n > 0 {
			m.Req.Queue = make([]Job, n-1)
			for i := range m.Req.Queue {
				m.Req.Queue[i] = Job{Demand: randomInts(rng), Walltime: randomFloat(rng), Submit: randomFloat(rng)}
			}
		}
		if n := rng.Intn(8); n > 0 {
			m.Req.Running = make([]Alloc, n-1)
			for i := range m.Req.Running {
				m.Req.Running[i] = Alloc{JobID: randomInt(rng), Demand: randomInts(rng), Start: randomFloat(rng), EstEnd: randomFloat(rng)}
			}
		}
	case msgDecision:
		m.ID, m.Pick, m.ModelVersion, m.Err = randomUint(rng), randomInt(rng), randomUint(rng), randomString(rng)
	case msgSwap:
		m.ID, m.Weights = randomUint(rng), []byte(randomString(rng))
	case msgSwapped:
		m.ID, m.ModelVersion, m.Err = randomUint(rng), randomUint(rng), randomString(rng)
	}
	return m
}

var allTypes = []msgType{msgHello, msgWelcome, msgDecide, msgDecision, msgSwap, msgSwapped}

func mustEncode(t testing.TB, m *message) []byte {
	t.Helper()
	b, err := appendMessage(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCodecRoundTrip: decode(encode(m)) is m and encode(decode(b)) is b, for
// every message type over random values, decoding into one scratch that is
// never cleared between messages — what a connection does.
func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	var (
		got   message
		arena []int
	)
	for _, typ := range allTypes {
		for i := 0; i < 300; i++ {
			m := randomMessage(rng, typ)
			b := mustEncode(t, m)
			var err error
			if arena, err = decodeMessage(b, &got, arena); err != nil {
				t.Fatalf("%s #%d: decoding its own encoding: %v", typ, i, err)
			}
			if d, want := describe(&got), describe(m); d != want {
				t.Fatalf("%s #%d changed in a round trip:\n got %s\nwant %s", typ, i, d, want)
			}
			if re := mustEncode(t, &got); !bytes.Equal(re, b) {
				t.Fatalf("%s #%d: re-encoding differs:\n got %x\nwant %x", typ, i, re, b)
			}
		}
	}
	if _, err := appendMessage(nil, &message{Type: 99}); err == nil {
		t.Fatal("a message of no known type encoded cleanly")
	}
}

// TestCodecRefusesDamage: every proper prefix of a valid payload, the payload
// with one byte after it, a varint written long, an unknown type and a wrong
// layout byte are all ErrCorruptFrame, none a panic.
func TestCodecRefusesDamage(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	refused := func(what string, b []byte) {
		t.Helper()
		if _, err := decodeMessage(b, new(message), nil); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("%s (%x) decoded with %v, want ErrCorruptFrame", what, b, err)
		}
	}
	for _, typ := range allTypes {
		for i := 0; i < 20; i++ {
			b := mustEncode(t, randomMessage(rng, typ))
			for cut := 0; cut < len(b); cut++ {
				refused(fmt.Sprintf("%s cut at %d of %d", typ, cut, len(b)), b[:cut])
			}
			refused(typ.String()+" with a trailing byte", append(b[:len(b):len(b)], 0))
		}
	}
	hello := mustEncode(t, &message{Type: msgHello, Proto: 1})
	refused("hello with a two-byte varint for 2", append(hello[:2:2], 0x82, 0x00))
	refused("unknown type", []byte{ProtocolVersion, 99, 0})
	refused("layout byte of another revision", append([]byte{ProtocolVersion + 1}, hello[1:]...))
}

// TestCodecChecksCountsBeforeSizing: a count the unread bytes cannot hold is
// refused before anything is sized from it — a refusal allocates its error (a
// handful of small objects, a few hundred bytes) and nothing that grows with
// the count.
func TestCodecChecksCountsBeforeSizing(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	payload := func(typ msgType, fields ...[]byte) []byte {
		return append([]byte{ProtocolVersion, byte(typ)}, bytes.Join(fields, nil)...)
	}
	one, f64 := []byte{2}, make([]byte, 8) // the varint for 1, a float64
	cases := map[string][]byte{
		"welcome resources":  payload(msgWelcome, one, one, one, huge, f64),
		"welcome capacities": payload(msgWelcome, one, one, one, []byte{0}, huge, f64),
		"welcome error":      payload(msgWelcome, one, one, one, []byte{0, 0}, huge, f64),
		"decide queue":       payload(msgDecide, one, f64, huge, f64, f64, f64),
		"decide job demand":  payload(msgDecide, one, f64, []byte{1}, huge, f64, f64),
		"decide running":     payload(msgDecide, one, f64, []byte{0}, huge, f64, f64, f64),
		"decide held demand": payload(msgDecide, one, f64, []byte{0, 1}, one, huge, f64, f64),
		"decision error":     payload(msgDecision, one, one, one, huge, f64),
		"swap weights":       payload(msgSwap, one, huge, f64),
		"swapped error":      payload(msgSwapped, one, one, huge, f64),
	}
	var m message
	for name, b := range cases {
		if _, err := decodeMessage(b, &m, nil); err == nil || !strings.Contains(err.Error(), "count exceeds") {
			t.Fatalf("%s: %v, want the count refused", name, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := decodeMessage(b, &m, nil); !errors.Is(err, ErrCorruptFrame) {
				t.Fatalf("%s decoded with %v, want ErrCorruptFrame", name, err)
			}
		})
		runtime.ReadMemStats(&after)
		if perRun := (after.TotalAlloc - before.TotalAlloc) / 51; allocs > 8 || perRun > 1024 {
			t.Fatalf("%s: a refusal made %v allocations of %d bytes, want only its error", name, allocs, perRun)
		}
	}
}

// frozenMessages is one message per type whose frame is pinned, byte for
// byte, in testdata/frames-v2.hex.
func frozenMessages() []*message {
	return []*message{
		{Type: msgHello, Proto: ProtocolVersion},
		{Type: msgWelcome, Proto: ProtocolVersion, ModelVersion: 3, Window: 10,
			Resources: []string{"node", "bb"}, Capacities: []int{137, 40}},
		{Type: msgDecide, ID: 300, Req: Request{
			Now: 86400.5,
			Queue: []Job{
				{Demand: []int{64, 3}, Walltime: 3600, Submit: 86000.25},
				{Demand: []int{1, 0}, Walltime: 120, Submit: 86399},
			},
			Running: []Alloc{{JobID: 1041, Demand: []int{70, 12}, Start: 80000, EstEnd: 90800}},
		}},
		{Type: msgDecision, ID: 300, Pick: 1, ModelVersion: 3},
		{Type: msgSwap, ID: 301, Weights: []byte("weights")},
		{Type: msgSwapped, ID: 301, ModelVersion: 3, Err: "serve: loading swap weights: nope"},
	}
}

// TestFrozenFrames holds the layout still: the frame each frozen message
// encodes to is the committed one, and the committed one decodes to the
// message. A deliberate layout change bumps ProtocolVersion and replaces the
// file with the frames this test prints.
func TestFrozenFrames(t *testing.T) {
	f, err := os.Open("testdata/frames-v2.hex")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	frozen := make(map[string][]byte)
	for sc := bufio.NewScanner(f); sc.Scan(); {
		name, hexFrame, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("testdata line %q is not \"<type> <hex>\"", sc.Text())
		}
		if frozen[name], err = hex.DecodeString(hexFrame); err != nil {
			t.Fatalf("testdata %s frame: %v", name, err)
		}
	}
	if len(frozen) != len(allTypes) {
		t.Fatalf("testdata holds %d frames, the protocol has %d message types", len(frozen), len(allTypes))
	}
	for _, m := range frozenMessages() {
		var buf bytes.Buffer
		if err := writeMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
		want := frozen[m.Type.String()]
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("the %s frame changed:\n%s %x\nfrozen:\n%s %x", m.Type, m.Type, buf.Bytes(), m.Type, want)
			continue
		}
		payload, err := wire.ReadFrame(bytes.NewReader(want))
		if err != nil {
			t.Fatalf("frozen %s frame: %v", m.Type, err)
		}
		var got message
		if _, err := decodeMessage(payload, &got, nil); err != nil {
			t.Fatalf("frozen %s frame: %v", m.Type, err)
		}
		if describe(&got) != describe(m) {
			t.Errorf("frozen %s frame decodes to\n%s\nwant\n%s", m.Type, describe(&got), describe(m))
		}
	}
}
