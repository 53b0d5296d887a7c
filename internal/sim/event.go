package sim

import (
	"cmp"
	"slices"

	"repro/internal/job"
)

// The paper names two triggers (§IV): a new job entering the queue and a
// running job leaving the system. They come from two sources here. Arrivals
// are known when the trace is loaded, so they wait in a list sorted once;
// finishes become known as jobs start, so they wait in a heap that holds the
// running set. Step merges the two: see Simulator.Step for the order.

// arrival is a loaded job waiting for its submit time. The time is the
// job's Submit as Load read it.
type arrival struct {
	time float64
	job  *job.Job
}

// arrivals is every job loaded so far in (submit time, load order), with a
// cursor: items[:next] have entered the waiting queue. Consumed entries
// stay, so the list is also the record of every ID the simulation has seen.
type arrivals struct {
	items []arrival
	next  int
}

// add appends j's arrival and reports whether the unconsumed tail is still
// in order with it at the end — it is whenever submit times do not decrease
// in load order. The consumed prefix is history and is not compared against:
// an arrival earlier than the clock surfaces in Step as time going backwards.
func (a *arrivals) add(j *job.Job) bool {
	n := len(a.items)
	a.items = append(a.items, arrival{time: j.Submit, job: j})
	return n == a.next || a.items[n-1].time <= j.Submit
}

// sortTail restores the order of the unconsumed tail after an add reported
// it broken. The sort is stable, so equal submit times stay in load order.
func (a *arrivals) sortTail() {
	slices.SortStableFunc(a.items[a.next:], func(x, y arrival) int { return cmp.Compare(x.time, y.time) })
}

// finish is a running job's completion.
type finish struct {
	time float64
	seq  int // tie-breaker preserving start order at equal times
	job  *job.Job
}

// before is the heap's order, (time, seq): completions at one instant apply
// in the order the jobs were started. seq is unique, so the order is total
// and the pop sequence does not depend on how the heap arranges equal keys.
// Arrivals never enter this comparison: Step drains the finishes of an
// instant before it admits that instant's arrivals, so freed resources are
// visible to the arriving job's scheduling round.
func (a *finish) before(b *finish) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// finishQueue is a binary min-heap of finish values ordered by before. It
// holds one entry per running job.
type finishQueue struct {
	items []finish
	next  int
}

func (q *finishQueue) push(t float64, j *job.Job) {
	q.items = append(q.items, finish{time: t, seq: q.next, job: j})
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

func (q *finishQueue) pop() finish {
	h := q.items
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = finish{} // drop the job pointer
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
