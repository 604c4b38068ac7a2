package update

import "xivm/internal/xmltree"

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

// AppendFormat appends the statement in canonical form to dst and returns
// the extended slice — the write-ahead log formats every statement it
// journals into a scratch of its own. It is Parse's inverse up to
// canonicalization: Parse of what it appends always succeeds and yields a
// statement with the same kind, target, forest and copy-source.
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
