package difftest

// ShrinkWith minimizes a failing workload's statement sequence while the
// predicate keeps reporting a divergence, ddmin-style: ever-smaller chunks
// are removed (halving down to single statements) until a fixpoint. It
// returns the minimized workload and the divergence it still produces; when
// the initial workload does not fail, it is returned unchanged with a nil
// divergence.
func ShrinkWith(w Workload, fails func(Workload) *Divergence) (Workload, *Divergence) {
	div := fails(w)
	if div == nil {
		return w, nil
	}
	for changed := true; changed; {
		changed = false
		for size := len(w.Statements) / 2; size >= 1; size /= 2 {
			for start := 0; start+size <= len(w.Statements); {
				cand := Workload{DocSeed: w.DocSeed, People: w.People}
				cand.Statements = append(cand.Statements, w.Statements[:start]...)
				cand.Statements = append(cand.Statements, w.Statements[start+size:]...)
				if d := fails(cand); d != nil {
					w, div = cand, d
					changed = true
				} else {
					start += size
				}
			}
		}
	}
	return w, div
}

// Shrink minimizes a workload that diverges under cfg.
func Shrink(w Workload, cfg Config) (Workload, *Divergence) {
	return ShrinkWith(w, func(c Workload) *Divergence { return Run(c, cfg) })
}
