package server

import (
	"xivm/internal/algebra"
	"xivm/internal/core"
	"xivm/internal/pattern"
	"xivm/internal/qvm"
	"xivm/internal/rewrite"
	"xivm/internal/xmltree"
	"xivm/internal/xpath"
)

// This file is the view-based serving path for /v1/db/{name}/xpath: bridge
// the query to a tree pattern, try the delta-invalidated result cache,
// then the rewrite planner over the tenant's maintained views (single,
// stitch, intersection — cheapest by view cardinality), and only then fall
// back to the compiled tree walk. Every strategy answers from the SAME
// immutable epoch snapshot, so a rewritten response is byte-identical to
// the tree-walk response at that version — the differential tests and
// FuzzRewriteVsTreeWalk hold the layer to exactly that.

// appendXPath appends the XPathResponse body for q against one snapshot.
// It is the handler's core, split out so tests can pin rewritten and
// tree-walk answers to the same epoch. The plan ("treewalk" when no rewrite
// served the query) is written only under explain; without it bodies are
// byte-identical across serving strategies. The matches array is encoded
// straight from view rows or image nodes, and a cacheable result keeps an
// exactly-sized copy of those bytes, so a later hit is envelope plus copy.
// On error nothing has been appended.
func (r *Registry) appendXPath(dst []byte, sh *Shard, snap *core.Snapshot, q string, allowRewrite, explain bool) ([]byte, error) {
	var pat *pattern.Pattern // non-nil when the result may enter the cache
	if allowRewrite && sh.qcache != nil {
		if e, ok := sh.qcache.get(q, snap.Version); ok {
			r.m.rewriteCacheHits.Inc()
			dst = appendXPathHead(dst, snap, q, e.plan, explain)
			return append(append(dst, e.matches...), xpathTail...), nil
		}
		pat, _ = bridgeQuery(q)
		if pat != nil {
			if rows, plan, ok := rewriteFromViews(snap, pat); ok {
				r.m.rewriteHits.Inc()
				switch plan.Kind {
				case "stitch":
					r.m.rewriteStitch.Inc()
				case "intersect":
					r.m.rewriteIntersect.Inc()
				}
				explained := plan.Explain()
				dst = appendXPathHead(dst, snap, q, explained, explain)
				from := len(dst)
				dst = appendRowMatches(dst, pat.Nodes[pat.StoredIndexes()[0]].Label, rows)
				sh.qcache.put(&cachedResult{query: q, pat: pat, matches: exactCopy(dst[from:]), plan: explained, version: snap.Version})
				return append(dst, xpathTail...), nil
			}
		}
		r.m.rewriteMisses.Inc()
	}
	nodes, err := r.treeWalk(snap, q)
	if err != nil {
		return dst, err
	}
	dst = appendXPathHead(dst, snap, q, "treewalk", explain)
	from := len(dst)
	dst = appendNodeMatches(dst, nodes)
	if pat != nil {
		// Bridgeable but no view plan: the walk's result is still cacheable —
		// the pattern drives invalidation.
		sh.qcache.put(&cachedResult{query: q, pat: pat, matches: exactCopy(dst[from:]), plan: "treewalk", version: snap.Version})
	}
	return append(dst, xpathTail...), nil
}

// exactCopy copies b into a slice with no spare capacity (bytes.Clone may
// leave some): what the result cache retains is the encoded bytes, no more.
func exactCopy(b []byte) []byte {
	c := make([]byte, len(b))
	copy(c, b)
	return c
}

// bridgeQuery parses q and converts it to a tree pattern, or reports why
// it has none (the fallback signal).
func bridgeQuery(q string) (*pattern.Pattern, error) {
	p, err := xpath.Parse(q)
	if err != nil {
		return nil, err
	}
	return xpath.ToPattern(p)
}

// rewriteFromViews answers the bridged pattern from the snapshot's
// maintained views. The bridged result node stores ID and val, so matches
// come entirely from view rows — the document is never touched.
func rewriteFromViews(snap *core.Snapshot, pat *pattern.Pattern) ([]algebra.Row, *rewrite.Plan, bool) {
	if len(snap.Views) == 0 {
		return nil, nil, false
	}
	views := make([]*rewrite.View, 0, len(snap.Views))
	for i := range snap.Views {
		vs := &snap.Views[i]
		views = append(views, &rewrite.View{Name: vs.Name, Pattern: vs.Pattern, Rows: rewrite.RowSlice(vs.Rows)})
	}
	rows, plan, err := rewrite.Answer(pat, views)
	return rows, plan, err == nil
}

// treeWalk evaluates q against the snapshot document with a compiled
// program (registry-wide LRU keyed by the query string).
func (r *Registry) treeWalk(snap *core.Snapshot, q string) ([]*xmltree.Node, error) {
	prog, ok := r.progs.Get(q)
	if ok {
		r.m.xpathCacheHits.Inc()
	} else {
		r.m.xpathCacheMisses.Inc()
		var err error
		prog, err = qvm.CompileString(q)
		if err != nil {
			return nil, err
		}
		if r.progs.Add(q, prog) {
			r.m.xpathCacheEvicts.Inc()
		}
	}
	return prog.Eval(snap.Doc()), nil
}
