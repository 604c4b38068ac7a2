package difftest

import (
	"fmt"
	"strings"

	"xivm/internal/algebra"
	"xivm/internal/core"
	"xivm/internal/dewey"
	"xivm/internal/obs"
	"xivm/internal/pattern"
	"xivm/internal/update"
	"xivm/internal/xmark"
	"xivm/internal/xmltree"
)

// Config selects one maintenance path through the engine.
type Config struct {
	Name           string
	Policy         core.Policy
	Parallel       bool
	SharedSnowcaps bool
	// LazyEvery > 0 runs deferred propagation, flushing (and checking)
	// every LazyEvery statements plus once at the end. 0 is eager.
	LazyEvery     int
	NoDataPruning bool
	NoIDPruning   bool
	// IVMA maintains with the node-at-a-time competitor instead. IVMA
	// never revisits rows whose stored val/cont silently changed under a
	// surviving ancestor (it has no PDMT-style refresh), so views are
	// stripped to ID-only annotations and replace statements (which it
	// does not implement) are skipped.
	IVMA bool
	// Publish is a test axis, not an engine option: the document is
	// published (Engine.Snapshot) before the first statement and after every
	// checked one, so every mutation runs against a persistent tree that
	// readers hold, and the last few epochs are re-read after each. Eager
	// configurations only — Lazy and IVMA track nodes by pointer.
	Publish bool
}

// Matrix is the full configuration matrix the differential tests sweep:
// every policy, deferred batches of several sizes, parallel propagation,
// shared snowcaps, both pruning ablations and the IVMA competitor.
func Matrix() []Config {
	return []Config{
		{Name: "eager-snowcaps", Policy: core.PolicySnowcaps},
		{Name: "eager-leaves", Policy: core.PolicyLeaves},
		{Name: "eager-cost", Policy: core.PolicyCost},
		{Name: "parallel", Policy: core.PolicySnowcaps, Parallel: true},
		{Name: "shared-snowcaps", Policy: core.PolicySnowcaps, SharedSnowcaps: true},
		{Name: "lazy-1", LazyEvery: 1},
		{Name: "lazy-3", LazyEvery: 3},
		{Name: "lazy-8", LazyEvery: 8},
		{Name: "no-data-pruning", NoDataPruning: true},
		{Name: "no-id-pruning", NoIDPruning: true},
		{Name: "lazy-no-pruning", LazyEvery: 2, NoDataPruning: true, NoIDPruning: true},
		{Name: "ivma", IVMA: true},
		{Name: "published-snowcaps", Policy: core.PolicySnowcaps, Publish: true},
		{Name: "published-leaves", Policy: core.PolicyLeaves, Publish: true},
		{Name: "published-cost", Policy: core.PolicyCost, Publish: true},
		{Name: "published-parallel", Policy: core.PolicySnowcaps, Parallel: true, Publish: true},
		{Name: "published-shared-snowcaps", Policy: core.PolicySnowcaps, SharedSnowcaps: true, Publish: true},
	}
}

// epoch is a published snapshot and what it read like at capture.
type epoch struct {
	snap *core.Snapshot
	read [4]string
}

// keptEpochs is how many epochs a published run keeps re-reading.
const keptEpochs = 4

// readEpoch renders what a reader can ask of an epoch: the document's
// serialization, its ordinal stream, the ID list of every label, in order of
// first occurrence, and every view's frozen rows. Nothing reachable from a
// published epoch is ever written, so an epoch must read the same for as
// long as it is held.
func readEpoch(snap *core.Snapshot) [4]string {
	doc := snap.Doc()
	var b, rows strings.Builder
	seen := map[string]bool{}
	xmltree.Walk(doc.Root, func(n *xmltree.Node) bool {
		if label := n.Label(); !seen[label] {
			seen[label] = true
			b.WriteString(label)
			for _, m := range doc.Labeled(label) {
				b.WriteString(m.ID.Key())
				b.WriteByte(0xFF)
			}
			b.WriteByte('\n')
		}
		return true
	})
	for i := range snap.Views {
		rows.WriteString(snap.Views[i].Name)
		snap.Views[i].Rows.Each(func(r algebra.Row) bool {
			fmt.Fprintf(&rows, " %d×", r.Count)
			for _, e := range r.Entries {
				fmt.Fprintf(&rows, "(%d %q %q %q)", e.NodeIdx, e.ID.Key(), e.Val, e.Cont)
			}
			return true
		})
		rows.WriteByte('\n')
	}
	return [4]string{doc.String(), string(doc.EncodeOrds()), b.String(), rows.String()}
}

// Divergence describes one maintained state that differs from the oracle.
type Divergence struct {
	Config    string
	Index     int    // statement index within the workload
	Statement string // the statement after which the check failed
	View      string // empty when the canonical relations diverged
	Detail    string
}

func (d *Divergence) String() string {
	where := "canonical relations"
	if d.View != "" {
		where = "view " + d.View
	}
	return fmt.Sprintf("[%s] %s diverged after statement %d (%s): %s",
		d.Config, where, d.Index, d.Statement, d.Detail)
}

// Run executes the workload under one configuration, checking the oracle
// after every statement (eager, IVMA) or every flush (lazy). It returns the
// first divergence, or nil when every check passed. After every statement,
// and in every epoch as it is published, each node's children must carry
// strictly increasing ordinals (checkOrdinals). Statements whose target
// path matches nothing are no-ops by construction; statements the engine
// rejects (none in the vocabulary) are skipped.
func Run(w Workload, cfg Config) *Divergence {
	doc, err := xmltree.ParseString(w.Doc())
	if err != nil {
		panic("difftest: generated document does not parse: " + err.Error())
	}
	opts := []core.Option{core.WithPolicy(cfg.Policy), core.WithMetrics(obs.New())}
	if cfg.Parallel {
		opts = append(opts, core.WithParallel())
	}
	if cfg.SharedSnowcaps {
		opts = append(opts, core.WithSharedSnowcaps())
	}
	if cfg.NoDataPruning {
		opts = append(opts, core.WithoutDataPruning())
	}
	if cfg.NoIDPruning {
		opts = append(opts, core.WithoutIDPruning())
	}
	e := core.New(doc, opts...)

	var views []*core.ManagedView
	for _, name := range xmark.ViewNames() {
		p := xmark.View(name)
		if cfg.IVMA {
			p = idOnly(p)
		}
		mv, err := e.AddView(name, p)
		if err != nil {
			panic("difftest: AddView(" + name + "): " + err.Error())
		}
		views = append(views, mv)
	}

	var lz *core.Lazy
	if cfg.LazyEvery > 0 {
		lz = core.NewLazy(e)
	}
	var iv *core.IVMA
	if cfg.IVMA {
		iv = core.NewIVMA(e)
	}
	var epochs []epoch
	publish := func(i int, src string) *Divergence {
		if !cfg.Publish {
			return nil
		}
		for _, ep := range epochs {
			if readEpoch(ep.snap) != ep.read {
				return &Divergence{Config: cfg.Name, Index: i, Statement: src, Detail: "an epoch published earlier reads differently now"}
			}
		}
		if len(epochs) == keptEpochs {
			epochs = epochs[1:]
		}
		snap := e.Snapshot()
		if err := checkOrdinals(snap.Doc()); err != nil {
			return &Divergence{Config: cfg.Name, Index: i, Statement: src, Detail: "published epoch: " + err.Error()}
		}
		read := readEpoch(snap)
		// What the epoch froze is what the live view holds, in its order.
		for k, mv := range views {
			if !mv.View.EqualRows(snap.Views[k].Rows.AppendTo(nil)) {
				return &Divergence{Config: cfg.Name, Index: i, Statement: src, View: mv.Name, Detail: "frozen rows differ from the live view's"}
			}
		}
		epochs = append(epochs, epoch{snap, read})
		return nil
	}
	publish(-1, "")

	for i, src := range w.Statements {
		st, err := update.Parse(src)
		if err != nil {
			continue
		}
		switch {
		case lz != nil:
			if err := lz.Apply(st); err != nil {
				continue
			}
			if (i+1)%cfg.LazyEvery == 0 {
				if _, err := lz.Flush(); err != nil {
					return &Divergence{Config: cfg.Name, Index: i, Statement: src, Detail: "flush error: " + err.Error()}
				}
				if d := check(e, views, cfg, i, src); d != nil {
					return d
				}
			}
		case iv != nil:
			if st.Kind == update.Replace {
				continue
			}
			if _, err := iv.ApplyStatement(st); err != nil {
				continue
			}
			if d := check(e, views, cfg, i, src); d != nil {
				return d
			}
		default:
			if _, err := e.ApplyStatement(st); err != nil {
				continue
			}
			if d := check(e, views, cfg, i, src); d != nil {
				return d
			}
			if d := publish(i, src); d != nil {
				return d
			}
		}
		if err := checkOrdinals(e.Doc); err != nil {
			return &Divergence{Config: cfg.Name, Index: i, Statement: src, Detail: err.Error()}
		}
	}
	if lz != nil {
		if _, err := lz.Flush(); err != nil {
			return &Divergence{Config: cfg.Name, Index: len(w.Statements), Detail: "final flush error: " + err.Error()}
		}
		return check(e, views, cfg, len(w.Statements)-1, "<final flush>")
	}
	return nil
}

// check is the oracle: every maintained view must equal a fresh evaluation
// over the (already mutated) document — algebra.Materialize walks the
// document directly, independent of the possibly-corrupt store — and every
// canonical relation, of each label the document holds and of "*", must be
// what a walk of the document collects: the same IDs in the same order, and
// each item the document's own node, not one a mutation of a published
// document has since replaced by a copy.
func check(e *core.Engine, views []*core.ManagedView, cfg Config, i int, src string) *Divergence {
	for _, mv := range views {
		want := algebra.Materialize(e.Doc, mv.Pattern)
		if !mv.View.EqualRows(want) {
			return &Divergence{
				Config: cfg.Name, Index: i, Statement: src, View: mv.Name,
				Detail: fmt.Sprintf("maintained %d rows, recompute %d rows", mv.View.Len(), len(want)),
			}
		}
	}
	labels := []string{"*"}
	seen := map[string]bool{}
	xmltree.Walk(e.Doc.Root, func(n *xmltree.Node) bool {
		if l := n.Label(); !seen[l] {
			seen[l] = true
			labels = append(labels, l)
		}
		return true
	})
	for _, l := range labels {
		got, want := e.Store.Items(l), algebra.DocItems(e.Doc, l)
		if len(got) != len(want) {
			return &Divergence{Config: cfg.Name, Index: i, Statement: src,
				Detail: fmt.Sprintf("R_%s: %d items, the document has %d", l, len(got), len(want))}
		}
		for k := range want {
			if got[k] != want[k] {
				return &Divergence{Config: cfg.Name, Index: i, Statement: src,
					Detail: fmt.Sprintf("R_%s[%d]: %v, the document has %v there (or another node under that ID)", l, k, got[k].ID, want[k].ID)}
			}
		}
	}
	return nil
}

// idOnly strips val/cont annotations, keeping stored IDs: the only layout
// IVMA's node-at-a-time propagation maintains faithfully.
func idOnly(p *pattern.Pattern) *pattern.Pattern {
	return p.Clone(func(i int, s pattern.Store) pattern.Store { return s & pattern.StoreID })
}

// checkOrdinals walks a tree and checks that every node's children are its
// children by ID and carry strictly increasing ordinals. Keys order ordinal
// twins — equal ordinals, different labels — in no particular way, so a
// tree whose siblings shared an ordinal would not be in key order.
func checkOrdinals(doc *xmltree.Document) error {
	var err error
	xmltree.Walk(doc.Root, func(n *xmltree.Node) bool {
		var prev dewey.Ord
		for _, c := range n.Children {
			ord := ownOrd(c.ID)
			switch {
			case !n.ID.IsParentOf(c.ID):
				err = fmt.Errorf("%v sits under %v and is not its child by ID", c.ID, n.ID)
			case prev != nil && prev.Compare(ord) >= 0:
				err = fmt.Errorf("children of %v: ordinal %v follows %v", n.ID, ord, prev)
			}
			prev = ord
		}
		return err == nil
	})
	return err
}

// ownOrd returns the ordinal of id's own step, the last one.
func ownOrd(id dewey.ID) dewey.Ord {
	c := id.Cursor()
	for c.Next() && !c.Last() {
	}
	return c.AppendOrd(nil)
}
