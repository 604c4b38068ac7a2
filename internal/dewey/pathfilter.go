package dewey

// PathStep is one step of a linear label-path condition used by the Path
// Filter physical operator: a label (or "*" wildcard) reached through either
// a parent-child ("/") or ancestor-descendant ("//") edge.
type PathStep struct {
	Label string // element label, or "*" for any
	Desc  bool   // true for a // edge into this step, false for /
}

// MatchesPath reports whether the node's root-to-self label path satisfies
// the given linear path condition, anchored at the root. This is the Path
// Filter primitive of the paper: it needs only the ID, never the document.
func (id ID) MatchesPath(steps []PathStep) bool {
	return matchPath(id.LabelPath(), steps)
}

// matchPath checks whether the full label sequence matches the path
// condition end-to-end (the last step must match the last label).
func matchPath(labels []string, steps []PathStep) bool {
	// Dynamic program over (label index, step index): ok[j] = the first j
	// steps can consume some prefix of labels ending exactly at position i.
	if len(steps) == 0 {
		return false
	}
	n, m := len(labels), len(steps)
	// reach[i][j]: steps[:j] can be matched so that step j-1 is matched at
	// label position i-1. Use rolling rows keyed by label position.
	prev := make([]bool, n+1) // prev[i]: steps[:j-1] matched ending at i-1
	cur := make([]bool, n+1)
	prev[0] = true
	for j := 1; j <= m; j++ {
		st := steps[j-1]
		for i := range cur {
			cur[i] = false
		}
		for i := 1; i <= n; i++ {
			if !labelMatches(st.Label, labels[i-1]) {
				continue
			}
			if !st.Desc {
				// Parent-child: previous step matched exactly at i-1.
				if prev[i-1] {
					cur[i] = true
				}
				continue
			}
			// Descendant: previous step matched at any position < i.
			for k := 0; k < i; k++ {
				if prev[k] {
					cur[i] = true
					break
				}
			}
		}
		prev, cur = cur, prev
	}
	return prev[n]
}

func labelMatches(pattern, label string) bool {
	return pattern == "*" || pattern == label
}
