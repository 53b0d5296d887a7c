// Package rl implements the paper's "Scalar RL" comparison method (§IV-D):
// a policy-gradient (REINFORCE) agent that collapses the multi-resource
// objective into one scalar reward with fixed weights — 0.5*CPU utilization
// + 0.5*burst-buffer utilization for two resources, 1/R each in general.
// It observes the same vector state encoding as MRSch and schedules through
// the same window/reservation/backfilling framework, so the only difference
// the experiments measure is fixed versus dynamic resource prioritizing.
//
// # Determinism and seeding
//
// Weight initialization derives from Config.Seed; every action is sampled by
// an Actor, never by the Scheduler, which picks nothing. Scheduler.Actor
// returns read-only clones whose policy network aliases the master weights
// (nn.SharedClone) while the sampling rng and trajectory record are private;
// actors are reseeded per episode and their trajectories applied in episode
// order by Scheduler.IngestTrajectory. The canonical statement of the
// per-episode seeding and ordering rules lives in the internal/rollout
// package documentation.
//
// # Evaluation
//
// A campaign cell (internal/experiments) evaluates the trained policy the
// way it was trained: it samples every action from the softmax, through an
// unrecorded Actor reseeded Seed+9000+Index for the cell. Nothing takes the
// argmax, so a scalar-RL cell's report depends on the cell's index, and
// comparisons across campaigns should replicate over a seed axis rather than
// read one cell.
package rl
