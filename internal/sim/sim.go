package sim

import (
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/job"
)

// Policy is a scheduling strategy. OnSchedule is invoked by the simulator
// whenever the waiting queue or the system state changes (job submitted or
// finished); the policy examines the simulator and starts jobs via StartJob.
type Policy interface {
	OnSchedule(s *Simulator)
}

// PolicyFunc adapts a function to the Policy interface.
type PolicyFunc func(s *Simulator)

// OnSchedule implements Policy.
func (f PolicyFunc) OnSchedule(s *Simulator) { f(s) }

// Simulator replays a job trace against a cluster under a Policy.
type Simulator struct {
	clk      float64
	clock0   float64 // time of the first event (metrics window start)
	started  bool
	cl       *cluster.Cluster
	arrivals arrivals    // loaded jobs by submit time; the cursor splits past from future
	finishes finishQueue // completions of the running jobs
	queue    []*job.Job  // waiting jobs in arrival order
	qKey     []uint64    // lanes.key(queue[i].Demand), index for index: see nextBackfill
	qWall    []float64   // queue[i].Walltime, index for index
	lanes    lanes
	finished []*job.Job
	policy   Policy
	easy     easy  // what backfill keeps from one round to the next
	free     []int // Startable's scratch: the cluster's free units

	// Load refuses an ID twice. While IDs arrive in ascending order — as the
	// generators, the SWF reader and job.CloneAll produce them — comparing
	// with the last one is the whole check; ids is built, from the arrival
	// list, when the first ID breaks that order, and consulted from then on.
	lastID int
	ids    map[int]struct{}

	acct      accounting
	maxEvents int
}

// New builds a simulator over a fresh cluster with the given policy.
func New(cfg cluster.Config, p Policy) *Simulator {
	return &Simulator{
		cl:     cluster.New(cfg),
		lanes:  newLanes(len(cfg.Capacities)),
		policy: p,
	}
}

// Cluster exposes the simulated system.
func (s *Simulator) Cluster() *cluster.Cluster { return s.cl }

// Now returns the current simulation time.
func (s *Simulator) Now() float64 { return s.clk }

// Queue returns the waiting jobs in arrival order. Callers must not mutate
// the returned slice.
func (s *Simulator) Queue() []*job.Job { return s.queue }

// Finished returns all completed jobs.
func (s *Simulator) Finished() []*job.Job { return s.finished }

// Load validates and registers jobs to arrive at their submit times. It is
// normally called before Run, but jobs may be added between Steps; jobs must
// have IDs unique within the simulation. On an error the jobs before the
// offending one stay loaded.
func (s *Simulator) Load(jobs []*job.Job) error {
	caps := s.cl.Config().Capacities
	a := &s.arrivals
	a.items = slices.Grow(a.items, len(jobs))
	inOrder := true
	var err error
	for _, j := range jobs {
		if err = j.Validate(caps); err != nil {
			err = fmt.Errorf("sim: load: %w", err)
			break
		}
		if s.seen(j.ID) {
			err = fmt.Errorf("sim: load: duplicate job ID %d", j.ID)
			break
		}
		j.State = job.Queued
		inOrder = a.add(j) && inOrder
	}
	if !inOrder {
		a.sortTail()
	}
	return err
}

// seen reports whether a loaded job already has id, and records id as taken
// when none does.
func (s *Simulator) seen(id int) bool {
	if s.ids == nil {
		if len(s.arrivals.items) == 0 || id > s.lastID {
			s.lastID = id
			return false
		}
		s.ids = make(map[int]struct{}, len(s.arrivals.items)+1)
		for _, a := range s.arrivals.items {
			s.ids[a.job.ID] = struct{}{}
		}
	}
	if _, dup := s.ids[id]; dup {
		return true
	}
	s.ids[id] = struct{}{}
	return false
}

// StartJob begins executing a waiting job now. It allocates resources,
// schedules the completion event, and removes the job from the queue.
// Policies must only call it for jobs that currently fit.
func (s *Simulator) StartJob(j *job.Job) error {
	for i, q := range s.queue {
		if q == j {
			return s.startAt(i)
		}
	}
	return fmt.Errorf("sim: start job %d in state %v: not in the waiting queue", j.ID, j.State)
}

// startAt is StartJob for the job at queue[i], for a caller that already
// holds the index: the job is removed there instead of searched for. Every
// start comes through here, so here backfill's count of refused jobs stays
// exact.
func (s *Simulator) startAt(i int) error {
	if i < 0 || i >= len(s.queue) {
		return fmt.Errorf("sim: start queue[%d] of %d waiting jobs", i, len(s.queue))
	}
	j := s.queue[i]
	if err := s.cl.Allocate(j.ID, j.Demand, s.clk, s.clk+j.Walltime); err != nil {
		return fmt.Errorf("sim: start: %w", err)
	}
	j.State = job.Running
	j.Start = s.clk
	s.finishes.push(s.clk+j.Runtime, j)
	s.queue = removeAt(s.queue, i)
	s.qKey = removeAt(s.qKey, i)
	s.qWall = removeAt(s.qWall, i)
	if i < s.easy.refused {
		s.easy.refused-- // one of the jobs the last backfill scan refused
	}
	return nil
}

// removeAt deletes q[i] by moving the shorter side of q and zeroes the slot
// that frees, so the backing array does not keep a started job alive.
func removeAt[T any](q []T, i int) []T {
	last := len(q) - 1
	if i < last-i {
		copy(q[1:i+1], q[:i])
		clear(q[:1])
		return q[1:]
	}
	copy(q[i:], q[i+1:])
	clear(q[last:])
	return q[:last]
}

// Step processes all events at the next event time, then invokes the policy
// once. It returns false when no events remain.
//
// The next event is the earlier of the next arrival and the earliest finish.
// At one instant every finish applies before any arrival, so freed
// resources are visible to the arriving job's scheduling round; finishes
// apply in the order their jobs were started, arrivals in the order they
// were loaded. That is a total order, (time, finish before submit,
// insertion order), and the only one results depend on.
func (s *Simulator) Step() (bool, error) {
	arr, fin := s.arrivals.items[s.arrivals.next:], s.finishes.items
	var t float64
	switch {
	case len(arr) == 0 && len(fin) == 0:
		return false, nil
	case len(fin) == 0 || (len(arr) > 0 && arr[0].time < fin[0].time):
		t = arr[0].time
	default:
		t = fin[0].time
	}
	if !s.started {
		s.started = true
		s.clock0 = t
		s.acct.init(s.cl, t)
	}
	if t < s.clk {
		return false, fmt.Errorf("sim: time went backwards: %v -> %v", s.clk, t)
	}
	s.acct.advance(s.cl, t)
	s.clk = t
	for len(s.finishes.items) > 0 && s.finishes.items[0].time == t {
		j := s.finishes.pop().job
		if err := s.cl.Release(j.ID, j.Start+j.Walltime); err != nil { // startAt's key
			return false, fmt.Errorf("sim: finish: %w", err)
		}
		j.State = job.Finished
		j.End = t
		s.finished = append(s.finished, j)
	}
	for a := &s.arrivals; a.next < len(a.items) && a.items[a.next].time == t; a.next++ {
		j := a.items[a.next].job
		s.queue = append(s.queue, j)
		s.qKey = append(s.qKey, s.lanes.key(j.Demand))
		s.qWall = append(s.qWall, j.Walltime)
	}
	s.policy.OnSchedule(s)
	return true, nil
}

// Run drives the simulation to completion. It errors if jobs remain queued
// after all events drain (a policy that starves jobs forever).
func (s *Simulator) Run() error {
	steps := 0
	for {
		more, err := s.Step()
		if err != nil {
			return err
		}
		if !more {
			break
		}
		steps++
		if s.maxEvents > 0 && steps > s.maxEvents {
			return fmt.Errorf("sim: exceeded %d steps; likely livelock", s.maxEvents)
		}
	}
	if len(s.queue) > 0 {
		return fmt.Errorf("sim: %d jobs never started (first: job %d); policy starves", len(s.queue), s.queue[0].ID)
	}
	return nil
}

// SetMaxEvents bounds Run to n scheduling rounds (0 = unlimited). When the
// bound trips, Run returns an error with jobs potentially still queued or
// running; the accounting queries below remain well-defined in that state.
func (s *Simulator) SetMaxEvents(n int) { s.maxEvents = n }

// ElapsedWindow returns the metrics window [first event, current clock].
func (s *Simulator) ElapsedWindow() (start, end float64) { return s.clock0, s.clk }

// ResourceSeconds returns the integral of used units over time for resource
// r (the numerator of the utilization metrics in §IV-B), accumulated over
// the window [first event, current clock].
//
// The integral covers exactly the events processed so far. If the
// simulation is mid-run — or was cut short by the SetMaxEvents bound with
// jobs still running — a running job contributes only the usage accrued up
// to the last processed event time: nothing of its remaining runtime is
// counted, and nothing between the current clock and its eventual
// completion. (TestResourceSecondsAtMaxEventsCutoff pins this behavior.)
func (s *Simulator) ResourceSeconds(r int) float64 { return s.acct.usedSeconds[r] }

// Utilization returns ResourceSeconds(r) / (capacity * elapsed) for
// resource r, where elapsed is the ElapsedWindow span so far.
//
// Like ResourceSeconds, this is exact for the processed prefix of the
// simulation: at a SetMaxEvents cutoff the denominator ends at the last
// processed event, so the ratio reflects utilization over the truncated
// window — not a forecast of what completing the still-running jobs would
// yield. The §IV-B metrics in internal/metrics assume a run that completed
// normally; utilization of a truncated run is reported for the truncated
// window only.
func (s *Simulator) Utilization(r int) float64 {
	elapsed := s.clk - s.clock0
	if elapsed <= 0 {
		return 0
	}
	return s.acct.usedSeconds[r] / (float64(s.cl.Capacity(r)) * elapsed)
}

// accounting integrates per-resource usage over time.
type accounting struct {
	lastTime    float64
	usedSeconds []float64
}

func (a *accounting) init(cl *cluster.Cluster, t0 float64) {
	a.lastTime = t0
	a.usedSeconds = make([]float64, cl.NumResources())
}

func (a *accounting) advance(cl *cluster.Cluster, t float64) {
	if a.usedSeconds == nil {
		return
	}
	dt := t - a.lastTime
	if dt <= 0 {
		return
	}
	for r := range a.usedSeconds {
		a.usedSeconds[r] += float64(cl.Used(r)) * dt
	}
	a.lastTime = t
}
