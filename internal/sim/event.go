package sim

import "repro/internal/job"

// eventKind distinguishes the two triggers the paper names (§IV): a new job
// entering the queue and a running job leaving the system.
type eventKind int

const (
	evSubmit eventKind = iota
	evFinish
)

type event struct {
	time float64
	kind eventKind
	seq  int // tie-breaker preserving insertion order at equal times
	job  *job.Job
}

// before is the queue's order, (time, kind, seq): finishes apply before
// submits at the same instant so freed resources are visible to the arriving
// job's scheduling round. seq is unique, so the order is total and the pop
// sequence does not depend on how the heap arranges equal keys.
func (a *event) before(b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.kind != b.kind {
		return a.kind == evFinish
	}
	return a.seq < b.seq
}

// eventQueue is a binary min-heap of event values ordered by before.
type eventQueue struct {
	items []event
	next  int
}

func (q *eventQueue) push(t float64, k eventKind, j *job.Job) {
	q.items = append(q.items, event{time: t, kind: k, seq: q.next, job: j})
	q.next++
	h := q.items
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *eventQueue) pop() event {
	h := q.items
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // drop the job pointer
	h = h[:n]
	q.items = h
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && h[l].before(&h[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && h[r].before(&h[least]) {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	return top
}

func (q *eventQueue) peek() (event, bool) {
	if len(q.items) == 0 {
		return event{}, false
	}
	return q.items[0], true
}
