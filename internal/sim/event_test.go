package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// boxedQueue is the retired event queue: container/heap over any-boxed
// events, ordered by the same (time, kind, seq). It is the oracle the typed
// heap is held against.
type boxedQueue []event

func (q boxedQueue) Len() int           { return len(q) }
func (q boxedQueue) Less(i, j int) bool { return q[i].before(&q[j]) }
func (q boxedQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *boxedQueue) Push(x any)        { *q = append(*q, x.(event)) }
func (q *boxedQueue) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// Random interleavings of pushes and pops, with few distinct times so that
// ties on time and on (time, kind) are the common case: the typed heap pops
// exactly what container/heap pops.
func TestEventQueueMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 200; trial++ {
		var q eventQueue
		var ref boxedQueue
		for step := 0; step < 400; step++ {
			if len(ref) == 0 || rng.Intn(5) < 3 {
				tm, k := float64(rng.Intn(6)), eventKind(rng.Intn(2))
				heap.Push(&ref, event{time: tm, kind: k, seq: q.next})
				q.push(tm, k, nil)
				continue
			}
			if head, ok := q.peek(); !ok || head != ref[0] {
				t.Fatalf("trial %d step %d: peek %+v (%v), container/heap has %+v", trial, step, head, ok, ref[0])
			}
			if got, want := q.pop(), heap.Pop(&ref).(event); got != want {
				t.Fatalf("trial %d step %d: popped %+v, container/heap popped %+v", trial, step, got, want)
			}
		}
		if len(q.items) != len(ref) {
			t.Fatalf("trial %d: %d events left, container/heap has %d", trial, len(q.items), len(ref))
		}
	}
}
