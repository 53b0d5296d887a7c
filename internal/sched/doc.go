// Package sched implements the HPC scheduling framework shared by every
// method the paper compares: the window over the front of the waiting queue,
// advance reservation of the first unplaceable selection, and EASY
// backfilling (§II-A and §III-C). WindowPolicy asks its Picker for jobs from
// the window and reserves the first that does not fit; the backfill pass is
// the simulator's, which owns every input it reads, and WindowPolicy calls
// Simulator.Backfill with the reserved job (internal/sim's package doc says
// how the pass scans and what it reuses). Individual scheduling methods plug
// in as Pickers: FCFS (this package), the genetic-algorithm optimizer
// (internal/ga), the scalar-reward policy gradient (internal/rl), and MRSch
// itself (internal/core).
//
// # Moot picks
//
// At an instant where no waiting job fits the free resources
// (PickContext.Startable is false) the round starts nothing whatever the
// Picker returns: the pick is reserved and the backfill pass finds no
// candidate. WindowPolicy still asks the Picker and OnDecision at every
// instant, so what a Picker does there is its own affair; an evaluating
// MRSch actor answers without its model and draws its rng as it would have
// (core.MRSchActor.Pick). The reference differential (reference_diff_test.go)
// answers otherwise at every such instant and must still match every start
// time.
//
// # Determinism
//
// The framework itself is deterministic: WindowPolicy consults its Picker
// and the simulator in fixed order, backfilling scans the waiting queue in
// arrival order, and no randomness or map iteration enters any decision.
// All stochastic behaviour lives inside Pickers and is seeded there — a
// WindowPolicy over a deterministic Picker replays identically. Rollout
// actors (core.MRSchActor, rl.Actor) are Pickers too, so parallel episode
// collection reuses this exact driver; the repo-wide determinism and
// seeding contract is documented in internal/rollout.
package sched
