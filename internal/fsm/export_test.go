package fsm

// Strong returns the saturated state for a direction: the state reached
// after arbitrarily many outcomes in that direction.
func (s *Spec) Strong(taken bool) uint8 {
	if taken {
		return s.States - 1
	}
	return 0
}

// Apply runs a sequence of outcomes from a starting state and returns the
// final state.
func (s *Spec) Apply(state uint8, outcomes ...bool) uint8 {
	for _, t := range outcomes {
		state = s.Next(state, t)
	}
	return state
}
