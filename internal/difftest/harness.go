package difftest

import (
	"fmt"
	"slices"
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
	// LabelsFrom > 0, with Publish, reads no label list (an epoch's, or the
	// check's relations) before statement LabelsFrom, and then first of the
	// kept epochs, which the writer has left: labels no view reads are first
	// indexed mid-run, where the writer must take them from its readers.
	LabelsFrom int
}

// Matrix is the full configuration matrix the differential tests sweep:
// both policies, batches of the sizes the planner translates (it translates
// about a third of the vocabulary's chunks of 2, an eighth of those of 3 and
// none of 8), both pruning ablations and the IVMA competitor, and both
// policies and a batch on a published document, the shape the server runs.
// Every configuration names its policy: the batch, pruning and late-label
// ones run under each.
func Matrix() []Config {
	const s, l = core.PolicySnowcaps, core.PolicyLeaves
	return []Config{
		{Name: "eager-snowcaps", Policy: s},
		{Name: "eager-leaves", Policy: l},
		{Name: "batch-2", Policy: s, Batch: 2},
		{Name: "batch-2-leaves", Policy: l, Batch: 2},
		{Name: "batch-3", Policy: s, Batch: 3},
		{Name: "batch-3-leaves", Policy: l, Batch: 3},
		{Name: "no-data-pruning", Policy: s, NoDataPruning: true},
		{Name: "no-data-pruning-leaves", Policy: l, NoDataPruning: true},
		{Name: "no-id-pruning", Policy: s, NoIDPruning: true},
		{Name: "no-id-pruning-leaves", Policy: l, NoIDPruning: true},
		{Name: "batch-no-pruning", Policy: s, Batch: 2, NoDataPruning: true, NoIDPruning: true},
		{Name: "batch-no-pruning-leaves", Policy: l, Batch: 2, NoDataPruning: true, NoIDPruning: true},
		{Name: "ivma", IVMA: true},
		{Name: "published-snowcaps", Policy: s, Publish: true},
		{Name: "published-leaves", Policy: l, Publish: true},
		{Name: "published-batch-2", Policy: s, Batch: 2, Publish: true},
		{Name: "published-batch-2-leaves", Policy: l, Batch: 2, Publish: true},
		{Name: "published-late-labels", Policy: s, Publish: true, LabelsFrom: 7},
		{Name: "published-late-labels-leaves", Policy: l, Publish: true, LabelsFrom: 7},
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
// serialization, its ordinal stream, if labels the ID list of every label
// in order of first occurrence (each must be a walk of the epoch), and every
// view's frozen rows. Nothing reachable from a published epoch is ever
// written, so an epoch must read the same for as long as it is held.
func readEpoch(snap *core.Snapshot, labels bool) ([4]string, error) {
	doc := snap.Doc()
	var b, rows strings.Builder
	walked, order := map[string][]*xmltree.Node{}, []string(nil)
	xmltree.Walk(doc.Root, func(n *xmltree.Node) bool {
		if label := n.Label(); labels {
			if walked[label] == nil {
				order = append(order, label)
			}
			walked[label] = append(walked[label], n)
		}
		return true
	})
	for _, label := range order {
		got := doc.Labeled(label)
		if !slices.Equal(got, walked[label]) {
			return [4]string{}, fmt.Errorf("Labeled(%s): %d nodes, a walk %d, or not the same ones", label, len(got), len(walked[label]))
		}
		b.WriteString(label)
		for _, m := range got {
			b.WriteString(m.ID().Key())
			b.WriteByte(0xFF)
		}
		b.WriteByte('\n')
	}
	for i := range snap.Views {
		rows.WriteString(snap.Views[i].Name)
		shape := snap.Views[i].Shape
		snap.Views[i].Rows.Each(func(r algebra.Row) bool {
			fmt.Fprintf(&rows, " %d×", r.Count)
			for j := range shape.Width() {
				e := shape.Entry(r, j)
				// Length-prefixed, not quoted: quoting a root's cont on
				// every row costs more than the statement it checks.
				fmt.Fprintf(&rows, "(%d %d:%s %d:%s %d:%s)", e.NodeIdx, len(e.ID.Key()), e.ID.Key(), len(e.Val), e.Val, len(e.Cont), e.Cont)
			}
			return true
		})
		rows.WriteByte('\n')
	}
	return [4]string{doc.String(), string(doc.EncodeOrds()), b.String(), rows.String()}, nil
}

type namedView struct {
	name string
	p    *pattern.Pattern
}

// maintainedViews are the views a run maintains: the XMark Q-views, then a
// wildcard view, a word view, two predicate views and a view of every
// image. Every view reads its ∆ from one set of tables a statement builds
// over all their labels, and no Q-view has a "*" or "~word" node: without
// Wstar and Wword, those tables' wildcard and word branches would go
// unchecked. The predicates of Wpred and Wpred9 sit on a bidder, an
// internal node (Wpred9 stores none), and hold on the string value of the
// vocabulary's own inserted bidder, with its increase of 4.50 or with that
// replaced by one of 9.00. An increase inserted under a bidder flips it out of
// both; the replace flips it out of Wpred and into Wpred9. So the
// vocabulary flips predicates both ways, and their propagation as a change
// of the bidder's σ-input (core's predflip.go) is checked against the
// oracle too. Wvc is Fig. 24's
// "VC All Nodes but Root": every node below the root stores its val and its
// cont, which no other view does on one node, so the order a row packs its
// nodes' images in is held to the oracle. (Its root, /site, stores no
// image: the whole document in every row would make each check quadratic.)
func maintainedViews() []namedView {
	var out []namedView
	for _, name := range xmark.ViewNames() {
		out = append(out, namedView{name, xmark.View(name)})
	}
	return append(out,
		namedView{"Wstar", pattern.MustParse(`//open_auction{ID}/*{ID,val}`)},
		namedView{"Wword", pattern.MustParse(`//item{ID}//~clock{ID}`)},
		namedView{"Wpred", pattern.MustParse(`//open_auction{ID}//bidder{ID}[val="01/01/20114.50"]//increase{ID,val}`)},
		namedView{"Wpred9", pattern.MustParse(`//open_auction{ID}/bidder[val="01/01/20119.00"]//increase{ID,val}`)},
		namedView{"Wvc", xmark.Q1Variant(xmark.VariantVCAllButRoot)})
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
	_, _, d := run(w, cfg)
	return d
}

// run is Run that also counts the chunks the planner translated and
// returns the engine's counters.
func run(w Workload, cfg Config) (translated int, m *obs.Metrics, _ *Divergence) {
	doc, err := xmltree.ParseString(w.Doc())
	if err != nil {
		panic("difftest: generated document does not parse: " + err.Error())
	}
	m = obs.New()
	opts := []core.Option{core.WithPolicy(cfg.Policy), core.WithMetrics(m)}
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
			// IVMA does not probe predicates: without a PDMT-style refresh
			// it never sees a predicate turn on an existing node.
			if strings.HasPrefix(v.name, "Wpred") {
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
		labels := cfg.LabelsFrom == 0 || i >= cfg.LabelsFrom
		for k, ep := range epochs {
			read, err := readEpoch(ep.snap, labels)
			if err != nil {
				return &Divergence{Config: cfg.Name, Index: i, Statement: src, Detail: "an epoch published earlier: " + err.Error()}
			}
			if ep.read[2] == "" {
				ep.read[2] = read[2] // its lists are first asked for now
				epochs[k] = ep
			}
			if read != ep.read {
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
		read, err := readEpoch(snap, labels)
		if err != nil {
			return &Divergence{Config: cfg.Name, Index: i, Statement: src, Detail: "published epoch: " + err.Error()}
		}
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
				return translated, m, &Divergence{Config: cfg.Name, Index: i, Statement: src, Detail: "batch error: " + err.Error()}
			}
			if ok {
				translated++
			}
			if e.Doc.String() != twin.Doc.String() {
				return translated, m, &Divergence{Config: cfg.Name, Index: i, Statement: src, Detail: "the document differs from one that applied the chunk one statement at a time"}
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
			return translated, m, d
		}
		if d := publish(i, src); d != nil {
			return translated, m, d
		}
		if err := checkOrdinals(e.Doc); err != nil {
			return translated, m, &Divergence{Config: cfg.Name, Index: i, Statement: src, Detail: err.Error()}
		}
	}
	return translated, m, nil
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
// over the (already mutated) document — its inputs are collected by a walk
// of the document (algebra.DocInputs), independent of the possibly-corrupt
// store — every materialized snowcap a fresh evaluation of its mask over
// those same inputs, as a multiset of ID tuples aligned by pattern node
// with their counts (core.Lattice.Check; not with IVMA, which maintains no
// snowcap), and every canonical relation, of each label the document holds and of "*", must be
// what a walk of the document collects: the same IDs in the same order, and
// each item the document's own node, not one a mutation of a published
// document has since replaced by a copy.
func check(e *core.Engine, views []*core.ManagedView, cfg Config, i int, src string) *Divergence {
	for _, mv := range views {
		in := algebra.DocInputs(e.Doc, mv.Pattern)
		want := algebra.ProjectStored(mv.Pattern, algebra.EvalPattern(mv.Pattern, in, nil), e.Doc)
		if !mv.View.EqualRows(want) {
			return &Divergence{
				Config: cfg.Name, Index: i, Statement: src, View: mv.Name,
				Detail: fmt.Sprintf("maintained %d rows, recompute %d rows", mv.View.Len(), len(want)),
			}
		}
		if cfg.IVMA {
			continue // the competitor maintains rows, not snowcaps
		}
		if err := mv.Lattice.Check(in); err != nil {
			return &Divergence{Config: cfg.Name, Index: i, Statement: src, View: mv.Name, Detail: err.Error()}
		}
	}
	if cfg.LabelsFrom > 0 && i <= cfg.LabelsFrom {
		return nil // no label is asked for yet
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
