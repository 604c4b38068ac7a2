package update

import (
	"fmt"

	"xivm/internal/xmltree"
)

// Statement serialization: every Statement renders to a canonical textual
// form that Parse accepts and that re-parses to an equivalent statement.
// The canonical form is what the write-ahead log (internal/wal) journals —
// a replayable, human-auditable record — so its stability is load-bearing:
// changing it invalidates existing logs.
//
// Canonicalization flattens syntactic sugar: the for-bound insertion form
// `for $x in q insert F into $x` renders as `insert F into q` (the two
// parse to identical statements), and a `let $d := doc(…)` prefix is
// dropped (paths are stored resolved).

// Format renders the statement in canonical form. It is Parse's inverse up
// to canonicalization: Parse(Format(st)) always succeeds and yields a
// statement with the same kind, target, forest and copy-source.
func Format(st *Statement) string { return string(AppendFormat(nil, st)) }

// AppendFormat appends what Format returns to dst and returns the extended
// slice — the write-ahead log formats every statement it journals into a
// scratch of its own.
func AppendFormat(dst []byte, st *Statement) []byte {
	switch st.Kind {
	case Delete:
		dst = append(dst, "delete "...)
		dst = st.Target.AppendTo(dst)
	case Replace:
		dst = append(dst, "replace "...)
		dst = st.Target.AppendTo(dst)
		dst = append(dst, " with "...)
		dst = appendForest(dst, st.Forest)
	case Insert:
		dst = append(dst, "insert "...)
		if st.CopyOf != nil {
			dst = st.CopyOf.AppendTo(dst)
		} else {
			dst = appendForest(dst, st.Forest)
		}
		dst = append(dst, " into "...)
		dst = st.Target.AppendTo(dst)
	}
	return dst
}

func appendForest(dst []byte, forest []*xmltree.Node) []byte {
	for _, n := range forest {
		dst = n.AppendContent(dst)
	}
	return dst
}

// Canonical reparses the canonical rendering, returning a statement whose
// Source equals its Format. Round-tripping through text (rather than
// cloning in memory) keeps the guarantee honest: whatever Canonical
// returns is exactly what a log replay will reconstruct.
func (s *Statement) Canonical() (*Statement, error) {
	src := Format(s)
	st, err := Parse(src)
	if err != nil {
		return nil, fmt.Errorf("update: statement does not round-trip (%q): %w", src, err)
	}
	return st, nil
}

// Equivalent reports whether two statements denote the same update: same
// kind, same target path, same copy-source, and forests serializing to the
// same XML. Source text is ignored — `for $x in q insert F` and
// `insert F into q` are equivalent.
func Equivalent(a, b *Statement) bool {
	if a.Kind != b.Kind {
		return false
	}
	if a.Target.String() != b.Target.String() {
		return false
	}
	if (a.CopyOf == nil) != (b.CopyOf == nil) {
		return false
	}
	if a.CopyOf != nil && a.CopyOf.String() != b.CopyOf.String() {
		return false
	}
	return ForestString(a.Forest) == ForestString(b.Forest)
}
