package sim

import "repro/internal/job"

// Backfill runs the EASY pass around reserved, as a round that reserved it
// would.
var Backfill = (*Simulator).backfill

// Held returns the limits the last EASY scan ended with and how many waiting
// jobs it refused under them: Queue()[:refused].
func (s *Simulator) Held() (free, extra []int, shadow float64, refused int) {
	h := &s.easy.held
	return h.free, h.extra, h.shadow, s.easy.refused
}

// Carried counts the EASY scans that began behind refused jobs.
func (s *Simulator) Carried() int { return s.easy.carried }

// Walk returns the last reservation walk: the reserved job and the cluster
// version it ran for, and the spare vector it found.
func (s *Simulator) Walk() (reserved *job.Job, version uint64, extra []int) {
	w := &s.easy.walk
	return w.reserved, w.version, w.extra
}
