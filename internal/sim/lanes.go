package sim

// lanes is the layout of a demand key: one word holding a vector of units,
// the first n resources in a lane of width bits each. A lane's top bit is its
// guard, clear in every key; the bits below hold the value, at most max.
//
// Set the guards in a limit's key and subtract a demand's key: every lane
// computes guard + limit - demand on its own (at least 1, so no lane borrows
// from the next), and its guard survives exactly when its demand is at most
// its limit. A lost guard proves the demand exceeds the limit there, clamped
// values included: a clamped demand above a limit's lane means the limit was
// stored exactly and the demand is at least max. Guards standing prove
// nothing about clamped values or resources beyond the first n, which is why
// nextBackfill follows them with the comparison in full.
type lanes struct {
	n, width uint
	max      int
	guard    uint64
}

// newLanes gives at most the first eight resources a lane: never under a byte.
func newLanes(resources int) lanes {
	l := lanes{n: uint(min(resources, 8))}
	l.width = 64 / l.n
	l.max = 1<<(l.width-1) - 1
	for r := uint(0); r < l.n; r++ {
		l.guard |= 1 << (r*l.width + l.width - 1)
	}
	return l
}

// key packs v, clamping each value to [0, max].
func (l lanes) key(v []int) (k uint64) {
	for r := uint(0); r < l.n; r++ {
		k |= uint64(min(max(v[r], 0), l.max)) << (r * l.width)
	}
	return k
}
