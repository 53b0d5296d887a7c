// Package sched holds what plugs into the HPC scheduling round every method
// the paper compares runs through (§II-A and §III-C): the round's names
// (PickContext, Picker, PickerFunc and WindowPolicy, aliases of the
// simulator's, which runs the round: internal/sim's package doc, "The
// round"), FCFS and the list-scheduling baselines, and Shadow, the
// reservation's shadow time walked afresh, which the simulator's reused walk
// and the property suite are held to. Pareto, the Optimization baseline, is
// here too; the learned methods plug in as Pickers from their packages: the
// scalar-reward policy gradient (internal/rl) and MRSch (internal/core).
//
// # Determinism
//
// The framework itself is deterministic: the round consults its Picker and
// the simulator in fixed order, backfilling scans the waiting queue in
// arrival order, and no randomness or map iteration enters any decision.
// All stochastic behaviour lives inside Pickers and is seeded there — a
// WindowPolicy over a deterministic Picker replays identically. Rollout
// actors (core.MRSchActor, rl.Actor) are Pickers too, so parallel episode
// collection reuses this exact driver; the repo-wide determinism and
// seeding contract is documented in internal/rollout.
package sched
