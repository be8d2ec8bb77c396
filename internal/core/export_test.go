package core

// Valid reports whether p is one of the four legal patterns.
func (p Pattern) Valid() bool {
	switch p {
	case PatternHH, PatternHM, PatternMH, PatternMM:
		return true
	}
	return false
}

// Code returns the block's instruction sequence, so tests can compare
// blocks generated on different machines.
func (b *Block) Code() []site { return b.sites }

// Block returns the session's randomization block.
func (m *MultiSession) Block() *Block { return m.block }
