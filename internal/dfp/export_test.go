package dfp

// ReplayStateWords reports the words the replay keeps for its stored states
// and the words the same states take dense.
func (a *Agent) ReplayStateWords() (kept, dense int) {
	for _, e := range a.replay.buf[:a.replay.len()] {
		kept += len(e.State)
		dense += len(e.State.appendTo(nil))
	}
	return kept, dense
}
