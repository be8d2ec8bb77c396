package bpu

import "branchscope/internal/pht"

// Predict reports how the unit would predict the branch at addr executed
// by the given security domain, without changing any state: the
// read-only counterpart of Exec that the tests query.
func (u *Unit) Predict(domain, addr uint64) Lookup {
	s := u.Resolve(domain, addr)
	var l Lookup
	l.BTBHit, l.Target = u.btbLookup(addr)
	if s.static {
		l.Static = true
		return l
	}
	gIdx, _, useGshare := u.choose(&s)
	idx := s.bimodalIdx
	if useGshare {
		idx = gIdx
	}
	l.Taken, l.UsedGshare = u.phtPred[u.phtEntries[idx]], useGshare
	return l
}

// btbLookup reports whether the BTB holds a target for addr.
func (u *Unit) btbLookup(addr uint64) (bool, uint64) {
	e := u.btb[pht.IndexMod(addr, u.cfg.BTBEntries)]
	if e.valid && e.addr == addr {
		return true, e.target
	}
	return false, 0
}

// TagLive reports whether the seen-branch tracker currently holds addr.
func (u *Unit) TagLive(domain, addr uint64) bool {
	e := u.tags[u.tagIndex(domain, addr)]
	return e.valid && e.addr == addr
}

// Reset returns the entire unit to power-on state.
func (u *Unit) Reset() {
	u.pht.Reset()
	u.resetSelector()
	u.ghr = 0
	for i := range u.tags {
		u.tags[i] = tagEntry{}
	}
	for i := range u.btb {
		u.btb[i] = btbEntry{}
	}
	u.commits, u.mispredicts = 0, 0
	for i := range u.heat {
		u.heat[i] = 0
	}
}
