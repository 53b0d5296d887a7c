package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// boxedQueue is the retired event queue: container/heap over any-boxed
// entries, ordered by the same before. It is the oracle the typed heap is
// held against. (The retired all-events order, with kinds, is oracle_test.go's.)
type boxedQueue []finish

func (q boxedQueue) Len() int           { return len(q) }
func (q boxedQueue) Less(i, j int) bool { return q[i].before(&q[j]) }
func (q boxedQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *boxedQueue) Push(x any)        { *q = append(*q, x.(finish)) }
func (q *boxedQueue) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// Random interleavings of pushes and pops, with few distinct times so that
// ties on time are the common case: the typed heap pops exactly what
// container/heap pops.
func TestEventQueueMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 200; trial++ {
		var q finishQueue
		var ref boxedQueue
		for step := 0; step < 400; step++ {
			if len(ref) == 0 || rng.Intn(5) < 3 {
				tm := float64(rng.Intn(6))
				heap.Push(&ref, finish{time: tm, seq: q.next})
				q.push(tm, nil)
				continue
			}
			if len(q.items) == 0 || q.items[0] != ref[0] {
				t.Fatalf("trial %d step %d: head of %+v, container/heap has %+v", trial, step, q.items, ref[0])
			}
			if got, want := q.pop(), heap.Pop(&ref).(finish); got != want {
				t.Fatalf("trial %d step %d: popped %+v, container/heap popped %+v", trial, step, got, want)
			}
		}
		if len(q.items) != len(ref) {
			t.Fatalf("trial %d: %d events left, container/heap has %d", trial, len(q.items), len(ref))
		}
	}
}
