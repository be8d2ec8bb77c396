package core

// Valid reports whether p is one of the four legal patterns.
func (p Pattern) Valid() bool {
	switch p {
	case PatternHH, PatternHM, PatternMH, PatternMM:
		return true
	}
	return false
}
