package server

import (
	"sync/atomic"

	"xivm/internal/algebra"
	"xivm/internal/core"
	"xivm/internal/pattern"
	"xivm/internal/qvm"
	"xivm/internal/rewrite"
	"xivm/internal/xmltree"
	"xivm/internal/xpath"
)

// This file is the view-based serving path for /v1/db/{name}/xpath: bridge
// the query to a tree pattern, try the result cache of the snapshot's
// version, then the rewrite planner over the tenant's maintained views
// (single, stitch, intersection — cheapest by view cardinality), and only
// then fall back to the compiled tree walk. Every strategy answers from the
// SAME immutable epoch snapshot, so a rewritten response is byte-identical
// to the tree-walk response at that version — the differential tests and
// FuzzRewriteVsTreeWalk hold the layer to exactly that.

// appendXPath appends the XPathResponse body for q against one snapshot.
// It is the handler's core, split out so tests can pin rewritten and
// tree-walk answers to the same epoch. The plan ("treewalk" when no rewrite
// served the query) is written only under explain; without it bodies are
// byte-identical across serving strategies. The matches array is encoded
// straight from the plan's executor or from image nodes, and the result
// cache is told of every bridgeable miss: it copies those bytes on a
// query's second miss, so a later hit is envelope plus copy. On error
// nothing has been appended.
func (r *Registry) appendXPath(dst []byte, sh *Shard, snap *core.Snapshot, q string, allowRewrite, explain bool) ([]byte, error) {
	var pat *pattern.Pattern // non-nil when the result may enter the cache
	if allowRewrite {
		if plan, matches, ok := sh.qcache.get(q, snap.Version); ok {
			r.m.rewriteCacheHits.Inc()
			dst = appendXPathHead(dst, snap, q, plan, explain)
			return append(append(dst, matches...), xpathTail...), nil
		}
		pat, _ = bridgeQuery(q)
		if pat != nil {
			if plan, ok := planOverViews(snap, pat); ok {
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
				dst = appendPlanMatches(dst, pat.Nodes[pat.StoredIndexes()[0]].Label, plan)
				sh.qcache.put(q, explained, snap.Version, dst[from:])
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
		// Bridgeable but no view plan: the walk's result is cached too.
		sh.qcache.put(q, "treewalk", snap.Version, dst[from:])
	}
	return append(dst, xpathTail...), nil
}

// rewriteRewound counts the planned reads whose streamed matches came out
// of ID order and were re-encoded from the collected answer; tests read it
// to see that path run.
var rewriteRewound atomic.Uint64

// appendPlanMatches appends the matches array of a planned rewrite as its
// executor emits the rows (rewrite.Plan.AppendMatches): byte for byte
// appendRowMatches of the plan's answer, which is not built.
func appendPlanMatches(dst []byte, label string, plan *rewrite.Plan) []byte {
	dst, rewound := plan.AppendMatches(append(dst, '['), func(dst []byte, i int, e *algebra.RowEntry) []byte {
		return appendRowMatch(dst, i == 0, label, e)
	})
	if rewound {
		rewriteRewound.Add(1)
	}
	return append(dst, ']')
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

// planOverViews plans the bridged pattern over the snapshot's maintained
// views. The bridged result node stores ID and val, so matches come
// entirely from view rows — the document is never touched.
func planOverViews(snap *core.Snapshot, pat *pattern.Pattern) (*rewrite.Plan, bool) {
	if len(snap.Views) == 0 {
		return nil, false
	}
	plan, err := rewrite.Compile(pat, viewLibrary(snap))
	return plan, err == nil
}

// viewLibrary is the snapshot's views as the planner reads them.
func viewLibrary(snap *core.Snapshot) []*rewrite.View {
	lib, views := make([]rewrite.View, len(snap.Views)), make([]*rewrite.View, len(snap.Views))
	for i := range snap.Views {
		vs := &snap.Views[i]
		lib[i] = rewrite.View{Name: vs.Name, Pattern: vs.Pattern, Rows: vs}
		views[i] = &lib[i]
	}
	return views
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
