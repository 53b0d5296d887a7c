package sim

import (
	"fmt"

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
	events   eventQueue
	queue    []*job.Job // waiting jobs in arrival order
	qKey     []uint64   // lanes.key(queue[i].Demand), index for index: see NextFit
	lanes    lanes
	byID     map[int]*job.Job
	finished []*job.Job
	policy   Policy

	// Reserved is the job currently holding an advance reservation, if any.
	// It is set by the scheduling framework (internal/sched) and cleared
	// when the job starts; the simulator itself only reports it.
	Reserved *job.Job

	acct accounting

	// Decisions counts policy invocations; DecisionHook, when non-nil, runs
	// after every scheduling round (used to sample r_BB for Figures 8/9 and
	// utilization traces without touching scheduler internals).
	Decisions    int
	DecisionHook func(s *Simulator)

	maxEvents int
}

// New builds a simulator over a fresh cluster with the given policy.
func New(cfg cluster.Config, p Policy) *Simulator {
	return &Simulator{
		cl:     cluster.New(cfg),
		lanes:  newLanes(len(cfg.Capacities)),
		byID:   make(map[int]*job.Job),
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

// NextFit returns the index of the first waiting job at or after i (i >= 0)
// whose demand fits have in every resource, or len(Queue()) when none does.
// It refuses most jobs on their demand key (see lanes) and dereferences only
// a job the key lets through, to compare it in full.
func (s *Simulator) NextFit(i int, have []int) int {
	keys, guard := s.qKey, s.lanes.guard
	limit := s.lanes.key(have) | guard
	for ; i < len(keys); i++ {
		if (limit-keys[i])&guard == guard && cluster.Fits(s.queue[i].Demand, have) {
			break
		}
	}
	return i
}

// Finished returns all completed jobs.
func (s *Simulator) Finished() []*job.Job { return s.finished }

// Load validates and registers jobs, pushing their submit events. It must be
// called before Run; jobs must have IDs unique within the simulation.
func (s *Simulator) Load(jobs []*job.Job) error {
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
		s.events.push(j.Submit, evSubmit, j)
	}
	return nil
}

// StartJob begins executing a waiting job now. It allocates resources,
// schedules the completion event, and removes the job from the queue.
// Policies must only call it for jobs that currently fit.
func (s *Simulator) StartJob(j *job.Job) error {
	for i, q := range s.queue {
		if q == j {
			return s.StartAt(i)
		}
	}
	return fmt.Errorf("sim: start job %d in state %v: not in the waiting queue", j.ID, j.State)
}

// StartAt is StartJob for the job at Queue()[i], for a policy that already
// holds the index: the job is removed there instead of searched for.
func (s *Simulator) StartAt(i int) error {
	if i < 0 || i >= len(s.queue) {
		return fmt.Errorf("sim: start queue[%d] of %d waiting jobs", i, len(s.queue))
	}
	j := s.queue[i]
	if err := s.cl.Allocate(j.ID, j.Demand, s.clk, s.clk+j.Walltime); err != nil {
		return fmt.Errorf("sim: start: %w", err)
	}
	j.State = job.Running
	j.Start = s.clk
	s.events.push(s.clk+j.Runtime, evFinish, j)
	s.queue = removeAt(s.queue, i)
	s.qKey = removeAt(s.qKey, i)
	if s.Reserved == j {
		s.Reserved = nil
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
func (s *Simulator) Step() (bool, error) {
	head, ok := s.events.peek()
	if !ok {
		return false, nil
	}
	if !s.started {
		s.started = true
		s.clock0 = head.time
		s.acct.init(s.cl, head.time)
	}
	if head.time < s.clk {
		return false, fmt.Errorf("sim: time went backwards: %v -> %v", s.clk, head.time)
	}
	s.acct.advance(s.cl, head.time)
	s.clk = head.time
	for {
		e, ok := s.events.peek()
		if !ok || e.time != s.clk {
			break
		}
		s.events.pop()
		j := e.job
		switch e.kind {
		case evSubmit:
			s.queue = append(s.queue, j)
			s.qKey = append(s.qKey, s.lanes.key(j.Demand))
		case evFinish:
			if err := s.cl.Release(j.ID); err != nil {
				return false, fmt.Errorf("sim: finish: %w", err)
			}
			j.State = job.Finished
			j.End = s.clk
			s.finished = append(s.finished, j)
		}
	}
	s.policy.OnSchedule(s)
	s.Decisions++
	if s.DecisionHook != nil {
		s.DecisionHook(s)
	}
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
