package serve

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/wire"
)

// FuzzDecodeRequest wires the serve protocol's layout to the shared fuzz
// discipline (wire.FuzzDecodeFrame, distrib.FuzzDecodeMessage): an
// arbitrary CRC-verified payload must either decode into a message or fail
// loudly with ErrCorruptFrame — never panic, never succeed silently with a
// half-decoded struct that later trips the server. The corpus seeds every
// real frame type from the encoder plus the standard damage taxonomy
// (truncation, bitflip, garbage) and one revision-1 frame: a gob-encoded
// decide, which this revision must refuse.
func FuzzDecodeRequest(f *testing.F) {
	encode := func(m *message) []byte { return mustEncode(f, m) }
	rng := rand.New(rand.NewSource(53))
	req := randomRequest(rng, testSystem())

	hello := encode(&message{Type: msgHello, Proto: ProtocolVersion})
	welcome := encode(&message{Type: msgWelcome, Proto: ProtocolVersion, ModelVersion: 3, Window: 6,
		Resources: []string{"node", "bb"}, Capacities: []int{12, 8}})
	decide := encode(&message{Type: msgDecide, ID: 17, Req: req})
	decision := encode(&message{Type: msgDecision, ID: 17, Pick: 2, ModelVersion: 3})
	swap := encode(&message{Type: msgSwap, ID: 18, Weights: []byte{1, 2, 3, 4}})
	rejected := encode(&message{Type: msgDecision, ID: 19, Pick: -1, Err: "serve: nope"})

	f.Add([]byte(nil))
	f.Add(hello)
	f.Add(welcome)
	f.Add(decide)
	f.Add(decision)
	f.Add(swap)
	f.Add(rejected)
	f.Add(decide[:len(decide)/2])
	bitflip := append([]byte(nil), decide...)
	bitflip[len(bitflip)/3] ^= 0x04
	f.Add(bitflip)
	nanReq := randomRequest(rng, testSystem())
	nanReq.Running = append(nanReq.Running, Alloc{JobID: 1 << 20, Demand: []int{0, 0}, EstEnd: math.NaN()})
	f.Add(encode(&message{Type: msgDecide, ID: 20, Req: nanReq}))
	dupReq := randomRequest(rng, testSystem())
	dupReq.Running = append(dupReq.Running,
		Alloc{JobID: 1 << 20, Demand: []int{1, 0}, EstEnd: 10}, Alloc{JobID: 1 << 20, Demand: []int{1, 0}, EstEnd: 20})
	f.Add(encode(&message{Type: msgDecide, ID: 21, Req: dupReq}))
	f.Add([]byte("MRSCH SERVE, BUT NOT THE LAYOUT"))
	gobDecide, err := wire.EncodeGob(&message{Type: msgDecide, ID: 17, Req: req})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := decodeMessage(gobDecide, new(message), nil); !errors.Is(err, ErrCorruptFrame) {
		f.Fatalf("a revision-1 gob decide decoded with %v, want ErrCorruptFrame", err)
	}
	f.Add(gobDecide)

	f.Fuzz(func(t *testing.T, payload []byte) {
		p := new(pending)
		var err error
		p.demands, err = decodeMessage(payload, &p.m, p.demands)
		if err != nil {
			if !errors.Is(err, ErrCorruptFrame) {
				t.Fatalf("decode failure %v does not wrap ErrCorruptFrame", err)
			}
			return
		}
		// Whatever decoded is canonical: it encodes back to the same bytes.
		// (Before buildContext, which is free to reuse the scratch.)
		re, err := appendMessage(nil, &p.m)
		if err != nil {
			t.Fatalf("re-encoding a decoded message: %v", err)
		}
		if !bytes.Equal(re, payload) {
			t.Fatalf("round trip changed the payload:\n got %x\nwant %x", re, payload)
		}
		// A decoded request is rebuilt into a decision instant or refused
		// (rule 4), never a panic, and never an instant with a NaN or
		// infinite time or a running job ID twice in it.
		if err := p.buildContext(testSystem(), 6); err == nil {
			if err := p.ctx.Cluster.CheckInvariants(); err != nil {
				t.Fatalf("buildContext accepted %+v: %v", p.m.Req.Running, err)
			}
			ctx := &p.ctx
			ok := finite(ctx.Now)
			for _, j := range ctx.Queue {
				ok = ok && finite(j.Walltime) && finite(j.Submit)
			}
			for _, a := range ctx.Cluster.Running() {
				ok = ok && finite(a.Start) && finite(a.EstEnd)
			}
			if !ok {
				t.Fatalf("buildContext accepted a non-finite time: %+v", p.m.Req)
			}
		}
	})
}
