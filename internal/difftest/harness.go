package difftest

import (
	"fmt"
	"strings"

	"xivm/internal/algebra"
	"xivm/internal/core"
	"xivm/internal/dewey"
	"xivm/internal/obs"
	"xivm/internal/pattern"
	"xivm/internal/pulopt"
	"xivm/internal/update"
	"xivm/internal/xmark"
	"xivm/internal/xmltree"
)

// Config selects one maintenance path through the engine.
type Config struct {
	Name   string
	Policy core.Policy
	// Batch > 0 applies the statements in chunks of Batch through
	// pulopt.ApplyRun, the fold the shard writer and wal.Replay use: one
	// Engine.ApplyBatch when the planner translates the chunk, one
	// statement at a time when it does not. Every chunk is checked, and the
	// document must read as a twin's that applied the chunk's statements
	// one at a time. 0 applies and checks each statement on its own.
	Batch         int
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
	// readers hold, and the last few epochs are re-read after each. Not
	// with IVMA, which tracks nodes by pointer.
	Publish bool
}

// Matrix is the full configuration matrix the differential tests sweep:
// both policies, batches of the sizes the planner translates (it translates
// about a third of the vocabulary's chunks of 2, an eighth of those of 3 and
// none of 8), both pruning ablations and the IVMA competitor, and both
// policies and a batch on a published document, the shape the server runs.
func Matrix() []Config {
	return []Config{
		{Name: "eager-snowcaps", Policy: core.PolicySnowcaps},
		{Name: "eager-leaves", Policy: core.PolicyLeaves},
		{Name: "batch-2", Batch: 2},
		{Name: "batch-3", Batch: 3},
		{Name: "no-data-pruning", NoDataPruning: true},
		{Name: "no-id-pruning", NoIDPruning: true},
		{Name: "batch-no-pruning", Batch: 2, NoDataPruning: true, NoIDPruning: true},
		{Name: "ivma", IVMA: true},
		{Name: "published-snowcaps", Policy: core.PolicySnowcaps, Publish: true},
		{Name: "published-leaves", Policy: core.PolicyLeaves, Publish: true},
		{Name: "published-batch-2", Batch: 2, Publish: true},
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
				b.WriteString(m.ID().Key())
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

type namedView struct {
	name string
	p    *pattern.Pattern
}

// maintainedViews are the views a run maintains: the XMark Q-views, then a
// wildcard view, a word view and a predicate view. Every view reads its ∆
// from one set of tables a statement builds over all their labels, and no
// Q-view has a "*" or "~word" node: without Wstar and Wword, those tables'
// wildcard and word branches would go unchecked. Wpred's predicate holds on
// the string value of the vocabulary's own inserted bidder, which an
// increase inserted under it or replaced in it flips: the one view whose
// predicate the vocabulary can flip, so the repair by recomputation
// (core's predflip.go) is checked against the oracle too.
func maintainedViews() []namedView {
	var out []namedView
	for _, name := range xmark.ViewNames() {
		out = append(out, namedView{name, xmark.View(name)})
	}
	return append(out,
		namedView{"Wstar", pattern.MustParse(`//open_auction{ID}/*{ID,val}`)},
		namedView{"Wword", pattern.MustParse(`//item{ID}//~clock{ID}`)},
		namedView{"Wpred", pattern.MustParse(`//open_auction{ID}//bidder{ID}[val="01/01/20114.50"]//increase{ID,val}`)})
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
// after every statement, or after every chunk of a batch configuration. It
// returns the first divergence, or nil when every check passed. After every
// check, and in every epoch as it is published, each node's children must
// carry strictly increasing ordinals (checkOrdinals). Statements whose
// target path matches nothing are no-ops by construction; statements the
// engine rejects (none in the vocabulary) are skipped.
func Run(w Workload, cfg Config) *Divergence {
	_, d := run(w, cfg)
	return d
}

// run is Run that also counts the chunks the planner translated.
func run(w Workload, cfg Config) (translated int, _ *Divergence) {
	doc, err := xmltree.ParseString(w.Doc())
	if err != nil {
		panic("difftest: generated document does not parse: " + err.Error())
	}
	opts := []core.Option{core.WithPolicy(cfg.Policy), core.WithMetrics(obs.New())}
	if cfg.NoDataPruning {
		opts = append(opts, core.WithoutDataPruning())
	}
	if cfg.NoIDPruning {
		opts = append(opts, core.WithoutIDPruning())
	}
	e := core.New(doc, opts...)

	var views []*core.ManagedView
	for _, v := range maintainedViews() {
		p := v.p
		if cfg.IVMA {
			// IVMA has no flip detection: without a PDMT-style refresh it
			// never sees a predicate turn on an existing node.
			if v.name == "Wpred" {
				continue
			}
			p = idOnly(p)
		}
		mv, err := e.AddView(v.name, p)
		if err != nil {
			panic("difftest: AddView(" + v.name + "): " + err.Error())
		}
		views = append(views, mv)
	}

	var iv *core.IVMA
	if cfg.IVMA {
		iv = core.NewIVMA(e)
	}
	// The twin applies a batch configuration's statements one at a time and
	// maintains no view: its document is what the batches must produce.
	var twin *core.Engine
	if cfg.Batch > 0 {
		d, err := xmltree.ParseString(w.Doc())
		if err != nil {
			panic("difftest: generated document does not parse: " + err.Error())
		}
		twin = core.New(d, core.WithMetrics(obs.New()))
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

	var chunk []*update.Statement
	for i, src := range w.Statements {
		st, err := update.Parse(src)
		switch {
		case cfg.Batch > 0:
			if err == nil {
				chunk = append(chunk, st)
			}
			if len(chunk) == 0 || len(chunk) < cfg.Batch && i < len(w.Statements)-1 {
				continue
			}
			ok, err := applyChunk(e, twin, chunk)
			chunk = chunk[:0]
			if err != nil {
				return translated, &Divergence{Config: cfg.Name, Index: i, Statement: src, Detail: "batch error: " + err.Error()}
			}
			if ok {
				translated++
			}
			if e.Doc.String() != twin.Doc.String() {
				return translated, &Divergence{Config: cfg.Name, Index: i, Statement: src, Detail: "the document differs from one that applied the chunk one statement at a time"}
			}
		case err != nil:
			continue
		case iv != nil:
			if st.Kind == update.Replace {
				continue
			}
			if _, err := iv.ApplyStatement(st); err != nil {
				continue
			}
		default:
			if _, err := e.ApplyStatement(st); err != nil {
				continue
			}
		}
		if d := check(e, views, cfg, i, src); d != nil {
			return translated, d
		}
		if d := publish(i, src); d != nil {
			return translated, d
		}
		if err := checkOrdinals(e.Doc); err != nil {
			return translated, &Divergence{Config: cfg.Name, Index: i, Statement: src, Detail: err.Error()}
		}
	}
	return translated, nil
}

// applyChunk folds a chunk of statements with pulopt.ApplyRun, as the shard
// writer and wal.Replay do; the twin applies it one statement at a time. It
// reports whether the chunk was translated, and a translated unit's
// failure, which the fold recovers from but the planner's gates rule out.
func applyChunk(e, twin *core.Engine, chunk []*update.Statement) (bool, error) {
	for _, st := range chunk {
		_, _ = twin.ApplyStatement(st)
	}
	run := pulopt.ApplyRun(e, chunk, nil)
	return run.Translated, run.UnitErr
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
		for k := n.Kids(); k.Next(); {
			c := k.Node()
			ord := ownOrd(c.ID())
			switch {
			case !n.ID().IsParentOf(c.ID()):
				err = fmt.Errorf("%v sits under %v and is not its child by ID", c.ID(), n.ID())
			case prev != nil && prev.Compare(ord) >= 0:
				err = fmt.Errorf("children of %v: ordinal %v follows %v", n.ID(), ord, prev)
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
