package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/job"
)

// The event-order oracle. Until arrivals left the heap, every event — a
// submit pushed by Load, a finish pushed by a start — went through one
// binary heap ordered by (time, finish before submit, push order), and Load
// kept a map of every ID. That mechanism is kept here, as it was, as the
// reference: heapSim is the retired Load/Step/startAt around the retired
// heap, and the tests below replay random and fuzzed operation strings
// through it and through the Simulator, requiring the same clock, the same
// waiting queue, the same finished jobs and the same errors after every
// operation.

type refKind int

const (
	refSubmit refKind = iota
	refFinish
)

type refEvent struct {
	time float64
	kind refKind
	seq  int
	job  *job.Job
}

func (a *refEvent) before(b *refEvent) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.kind != b.kind {
		return a.kind == refFinish
	}
	return a.seq < b.seq
}

type refQueue struct {
	items []refEvent
	next  int
}

func (q *refQueue) push(t float64, k refKind, j *job.Job) {
	q.items = append(q.items, refEvent{time: t, kind: k, seq: q.next, job: j})
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

func (q *refQueue) pop() refEvent {
	h := q.items
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
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

// heapSim is the simulator core as it was with the all-events heap. Its
// policy is fixed: greedyFirstFit, the same the Simulator under test runs.
type heapSim struct {
	clk      float64
	cl       *cluster.Cluster
	events   refQueue
	queue    []*job.Job
	byID     map[int]*job.Job
	finished []*job.Job
}

func (s *heapSim) load(jobs []*job.Job) error {
	caps := s.cl.Config().Capacities
	for _, j := range jobs {
		if err := j.Validate(caps); err != nil {
			return fmt.Errorf("sim: load: %w", err)
		}
		if _, dup := s.byID[j.ID]; dup {
			return fmt.Errorf("sim: load: duplicate job ID %d", j.ID)
		}
		j.State = job.Queued
		s.byID[j.ID] = j
		s.events.push(j.Submit, refSubmit, j)
	}
	return nil
}

func (s *heapSim) step() (bool, error) {
	if len(s.events.items) == 0 {
		return false, nil
	}
	head := s.events.items[0]
	if head.time < s.clk {
		return false, fmt.Errorf("sim: time went backwards: %v -> %v", s.clk, head.time)
	}
	s.clk = head.time
	for len(s.events.items) > 0 && s.events.items[0].time == s.clk {
		e := s.events.pop()
		j := e.job
		switch e.kind {
		case refSubmit:
			s.queue = append(s.queue, j)
		case refFinish:
			if err := s.cl.Release(j.ID, j.Start+j.Walltime); err != nil {
				return false, fmt.Errorf("sim: finish: %w", err)
			}
			j.State = job.Finished
			j.End = s.clk
			s.finished = append(s.finished, j)
		}
	}
	for i := 0; i < len(s.queue); { // greedyFirstFit
		j := s.queue[i]
		if !s.cl.CanFit(j.Demand) {
			i++
			continue
		}
		if err := s.cl.Allocate(j.ID, j.Demand, s.clk, s.clk+j.Walltime); err != nil {
			return false, err
		}
		j.State = job.Running
		j.Start = s.clk
		s.events.push(s.clk+j.Runtime, refFinish, j)
		s.queue = slices.Delete(s.queue, i, i+1)
	}
	return true, nil
}

// greedyFirstFit starts every waiting job that fits, in queue order: more
// starts per round than a head-blocking policy, so more finishes in flight
// and more of them at one instant.
func greedyFirstFit(s *Simulator) {
	for i := 0; i < len(s.Queue()); {
		if !s.Cluster().CanFit(s.Queue()[i].Demand) {
			i++
			continue
		}
		if err := s.startAt(i); err != nil {
			panic(err)
		}
	}
}

type snapshot struct {
	clk      float64
	queue    []int
	finished [][3]float64 // ID, Start, End
}

func snap(clk float64, queue, finished []*job.Job) snapshot {
	sn := snapshot{clk: clk}
	for _, j := range queue {
		sn.queue = append(sn.queue, j.ID)
	}
	for _, j := range finished {
		sn.finished = append(sn.finished, [3]float64{float64(j.ID), j.Start, j.End})
	}
	return sn
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// runEventOrderOps drives both simulators from a byte string. The first
// byte picks the time base: 0, or 2^57, where the clock's spacing is 32 s
// and a short runtime added to it lands on the clock again. Every following
// three bytes are one operation: step; load jobs in submit order; load jobs
// sorted backwards (IDs descending too, for half of them); load one job and
// step; load a pair whose second ID is already taken — ascending and not,
// by a waiting, a running or a finished job; load a job that should already
// have arrived. Times come from a handful of values, so equal-time submits,
// equal-time finishes and a finish at a submit's instant are the common
// case.
func runEventOrderOps(t testing.TB, data []byte) {
	if len(data) == 0 {
		return
	}
	sys := cluster.Config{Name: "oracle", Resources: []string{"nodes", "bb"}, Capacities: []int{8, 6}}
	base, grain := 0.0, 1.0
	if data[0]&1 != 0 {
		base, grain = 1<<57, 32
	}
	s := New(sys, PolicyFunc(greedyFirstFit))
	ref := &heapSim{cl: cluster.New(sys), byID: map[int]*job.Job{}}
	nextID := 0
	mk := func(id int, submit float64, a, b int) *job.Job {
		return &job.Job{ID: id, Submit: submit, Runtime: float64(1+a%5) * 8, Walltime: float64(1+b%7) * 16,
			Demand: []int{1 + a%sys.Capacities[0], b % (sys.Capacities[1] + 1)}}
	}
	load := func(jobs []*job.Job) {
		t.Helper()
		got, want := s.Load(job.CloneAll(jobs)), ref.load(job.CloneAll(jobs))
		if errText(got) != errText(want) {
			t.Fatalf("Load: %v, the all-events simulator says %v", got, want)
		}
	}
	step := func() (stuck bool) {
		t.Helper()
		more, err := s.Step()
		refMore, refErr := ref.step()
		if more != refMore || errText(err) != errText(refErr) {
			t.Fatalf("Step: (%v, %v), the all-events simulator says (%v, %v)", more, err, refMore, refErr)
		}
		return err != nil
	}
	same := func(when string) {
		t.Helper()
		got, want := snap(s.Now(), s.Queue(), s.Finished()), snap(ref.clk, ref.queue, ref.finished)
		if got.clk != want.clk || !slices.Equal(got.queue, want.queue) || !slices.Equal(got.finished, want.finished) {
			t.Fatalf("after %s:\n  clock %v, waiting %v, finished %v\nthe all-events simulator has\n  clock %v, waiting %v, finished %v",
				when, got.clk, got.queue, got.finished, want.clk, want.queue, want.finished)
		}
	}
	now := func() float64 { return max(s.Now(), base) }
	for data = data[1:]; len(data) >= 3; data = data[3:] {
		op, a, b := data[0]%6, int(data[1]), int(data[2])
		k := 1 + a%4
		switch op {
		case 0:
			if step() {
				if !strings.Contains(errText(func() error { _, err := s.Step(); return err }()), "time went backwards") {
					t.Fatal("a stuck simulator must keep reporting that time went backwards")
				}
				return
			}
		case 1, 2:
			batch := make([]*job.Job, k)
			for i := range batch {
				batch[i] = mk(nextID+i, now()+float64((b+i)%4)*grain, a+i, b+i)
			}
			nextID += k
			if op == 1 {
				slices.SortStableFunc(batch, func(x, y *job.Job) int { return cmp.Compare(x.Submit, y.Submit) })
			} else {
				slices.SortStableFunc(batch, func(x, y *job.Job) int { return cmp.Compare(y.Submit, x.Submit) })
				if b&1 != 0 {
					slices.SortStableFunc(batch, func(x, y *job.Job) int { return cmp.Compare(y.ID, x.ID) })
				}
			}
			load(batch)
		case 3:
			load([]*job.Job{mk(nextID, now()+float64(b%3)*grain, a, b)})
			nextID++
			if step() {
				return
			}
		case 4:
			if nextID == 0 {
				continue
			}
			fresh, taken := mk(nextID, now()+grain, a, b), mk(b%nextID, now(), b, a)
			nextID++
			load([]*job.Job{fresh, taken}) // refused, and fresh stays loaded
		case 5:
			if s.Now() <= base {
				continue
			}
			load([]*job.Job{mk(nextID, s.Now()-grain, a, b)})
			nextID++
		}
		same(fmt.Sprintf("op %d (%d, %d)", op, a, b))
		checkMirror(t, s)
	}
	// Drain: whatever is still in flight finishes in the same order.
	for more := true; more; {
		var err error
		more, err = s.Step()
		refMore, refErr := ref.step()
		if more != refMore || errText(err) != errText(refErr) {
			t.Fatalf("drain: (%v, %v), the all-events simulator says (%v, %v)", more, err, refMore, refErr)
		}
		more = more && err == nil
	}
	same("the drain")
}

// Load refuses an ID a loaded job already has, with one error text, whether
// the comparison with the last ID or the map built after the first
// out-of-order ID finds it — and an out-of-order ID that is new is accepted.
func TestLoadRefusesDuplicateIDs(t *testing.T) {
	ids := func(ids ...int) []*job.Job {
		jobs := make([]*job.Job, len(ids))
		for i, id := range ids {
			jobs[i] = mk(id, float64(i), 5, 1, 0)
		}
		return jobs
	}
	for _, tc := range []struct {
		name   string
		loads  [][]*job.Job
		finish bool // run the first load to completion before the second
		want   string
	}{
		{name: "ascending", loads: [][]*job.Job{ids(1, 2, 2)}, want: "sim: load: duplicate job ID 2"},
		{name: "out of order", loads: [][]*job.Job{ids(5, 3, 5)}, want: "sim: load: duplicate job ID 5"},
		{name: "out of order, earlier one", loads: [][]*job.Job{ids(5, 7, 3, 9, 7)}, want: "sim: load: duplicate job ID 7"},
		{name: "across two loads", loads: [][]*job.Job{ids(1, 2), ids(2)}, want: "sim: load: duplicate job ID 2"},
		{name: "across two loads, below the last", loads: [][]*job.Job{ids(1, 2, 3), ids(1)}, want: "sim: load: duplicate job ID 1"},
		{name: "holder finished", loads: [][]*job.Job{ids(4), ids(4)}, finish: true, want: "sim: load: duplicate job ID 4"},
		{name: "new IDs in any order", loads: [][]*job.Job{ids(5, 3, 4), ids(1, 9)}},
	} {
		s := New(cfg2(), greedyFCFS())
		var err error
		for i, jobs := range tc.loads {
			if err = s.Load(jobs); err != nil {
				break
			}
			if tc.finish && i == 0 {
				if err := s.Run(); err != nil {
					t.Fatal(err)
				}
				if len(s.Finished()) != len(jobs) {
					t.Fatalf("%s: %d of %d jobs finished", tc.name, len(s.Finished()), len(jobs))
				}
			}
		}
		if errText(err) != tc.want {
			t.Errorf("%s: Load error %q, want %q", tc.name, errText(err), tc.want)
		}
	}
}

func TestEventOrderMatchesAllEventsHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 400; trial++ {
		data := make([]byte, 1+3*120)
		rng.Read(data)
		runEventOrderOps(t, data)
	}
}

func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{0, 1, 3, 0, 0, 0, 0, 2, 7, 1, 0, 0, 0, 4, 0, 2, 0, 0, 0})
	f.Add([]byte{1, 3, 0, 0, 3, 1, 2, 5, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 2, 3, 1, 3, 0, 0, 5, 9, 9, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) { runEventOrderOps(t, data) })
}
