package difftest

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"xivm/internal/algebra"
	"xivm/internal/core"
	"xivm/internal/obs"
	"xivm/internal/pulopt"
	"xivm/internal/qvm"
	"xivm/internal/update"
	"xivm/internal/xmltree"
)

// newEngine builds an engine over the workload's document with every view
// a run maintains registered.
func newEngine(tb testing.TB, w Workload) *core.Engine {
	tb.Helper()
	doc, err := xmltree.ParseString(w.Doc())
	if err != nil {
		tb.Fatal(err)
	}
	e := core.New(doc, core.WithMetrics(obs.New()))
	for _, v := range maintainedViews() {
		if _, err := e.AddView(v.name, v.p); err != nil {
			tb.Fatal(err)
		}
	}
	return e
}

// checkImage is the oracle for a published epoch: a document reparsed from
// the writer's serialization and given its ordinals back — built without
// any of the machinery under test — must agree with the epoch on the
// serialization, the ordinal stream, the size, and the label index (which
// must also point at the epoch's own nodes, in particular at the path-copied
// spine nodes and not at the ones they replaced). Asking builds the
// lineage's index, so every later mutation patches it and every later
// publication carries it. The epoch's and the writer's trees must both keep
// the node's payload layout (xmltree.CheckPayload).
func checkImage(live, img *xmltree.Document) error {
	for _, d := range []*xmltree.Document{img, live} {
		if err := xmltree.CheckPayload(d.Root); err != nil {
			return err
		}
	}
	want, err := xmltree.ParseString(live.String())
	if err != nil {
		return err
	}
	if err := want.ApplyOrds(live.EncodeOrds()); err != nil {
		return err
	}
	if got := img.String(); got != want.String() {
		return fmt.Errorf("serialization differs:\n image %s\n  live %s", got, want)
	}
	if !bytes.Equal(img.EncodeOrds(), want.EncodeOrds()) {
		return fmt.Errorf("Dewey ordinals differ")
	}
	if img.Size() != want.Size() {
		return fmt.Errorf("Size() = %d, want %d", img.Size(), want.Size())
	}
	labels := map[string]bool{}
	xmltree.Walk(want.Root, func(n *xmltree.Node) bool {
		labels[n.Label()] = true
		return true
	})
	indexed := 0
	for l := range labels {
		for _, d := range []*xmltree.Document{img, live} {
			got, ref := d.Labeled(l), want.Labeled(l)
			if len(got) != len(ref) {
				return fmt.Errorf("Labeled(%s): %d nodes, want %d", l, len(got), len(ref))
			}
			for i, n := range got {
				if !n.ID().Equal(ref[i].ID()) {
					return fmt.Errorf("Labeled(%s)[%d] = %v, want %v", l, i, n.ID(), ref[i].ID())
				}
				if d.NodeByID(n.ID()) != n {
					return fmt.Errorf("Labeled(%s)[%d] = %v is not the document's own node", l, i, n.ID())
				}
			}
		}
		indexed += len(img.Labeled(l))
	}
	if indexed != img.Size() {
		return fmt.Errorf("label index holds %d nodes, document %d", indexed, img.Size())
	}
	return nil
}

// sameDocument compares a published document with its in-place twin on
// everything a reader can ask of either: serialization, ordinal stream,
// size, and every label list — its IDs, and that each document's list holds
// that document's own nodes.
func sameDocument(pub, twin *xmltree.Document) error {
	if got, want := pub.String(), twin.String(); got != want {
		return fmt.Errorf("serialization differs:\n published %s\n  in place %s", got, want)
	}
	if !bytes.Equal(pub.EncodeOrds(), twin.EncodeOrds()) {
		return fmt.Errorf("Dewey ordinals differ")
	}
	if pub.Size() != twin.Size() {
		return fmt.Errorf("Size() = %d, in place %d", pub.Size(), twin.Size())
	}
	labels := map[string]bool{}
	xmltree.Walk(twin.Root, func(n *xmltree.Node) bool {
		labels[n.Label()] = true
		return true
	})
	for l := range labels {
		got, want := pub.Labeled(l), twin.Labeled(l)
		if len(got) != len(want) {
			return fmt.Errorf("Labeled(%s): %d nodes, in place %d", l, len(got), len(want))
		}
		for i := range got {
			if !got[i].ID().Equal(want[i].ID()) {
				return fmt.Errorf("Labeled(%s)[%d] = %v, in place %v", l, i, got[i].ID(), want[i].ID())
			}
			if pub.NodeByID(got[i].ID()) != got[i] || twin.NodeByID(want[i].ID()) != want[i] {
				return fmt.Errorf("Labeled(%s)[%d] = %v is not the document's own node", l, i, got[i].ID())
			}
		}
	}
	return nil
}

// TestPublishedTreeTracksInPlaceTwin (a): two engines are fed the same
// difftest workload — whose deletes are all bulk ApplyDeleteBatch calls and
// whose replaces free and reassign ordinals within one statement — one
// published after every step, so that every mutation path-copies, and one
// never, so that every mutation edits in place. They must agree on the
// document and on every view's rows, whether a step is one statement,
// several, or a translated batch whose targets were all resolved before its
// first unit ran; and every epoch must pass checkImage's reparse oracle.
func TestPublishedTreeTracksInPlaceTwin(t *testing.T) {
	seeds := uint64(12)
	if testing.Short() {
		seeds = 3
	}
	for _, mode := range []string{"per-statement", "every-3", "batched"} {
		for seed := uint64(0); seed <= seeds; seed++ {
			w := seededWorkload(seed, maxStatements)
			pub, twin := newEngine(t, w), newEngine(t, w)
			twinRoot := twin.Doc.Root
			both := func(f func(e *core.Engine)) {
				f(pub)
				f(twin)
			}
			publish := func(at int) {
				t.Helper()
				fail := func(format string, args ...any) {
					t.Helper()
					t.Fatalf("%s seed %d after statement %d (%s): %s", mode, seed, at, w.Statements[at], fmt.Sprintf(format, args...))
				}
				snap := pub.Snapshot()
				if err := checkImage(pub.Doc, snap.Doc()); err != nil {
					fail("%v", err)
				}
				if err := sameDocument(pub.Doc, twin.Doc); err != nil {
					fail("%v", err)
				}
				if twin.Doc.Root != twinRoot {
					fail("the never-published twin copied its root")
				}
				for i, mv := range pub.Views {
					// Rows handed on from the previous epoch must be the rows
					// a fresh copy would hold, and the twin's.
					if !mv.View.EqualRows(snap.Views[i].Rows.AppendTo(nil)) {
						fail("view %s: published rows differ from the store", mv.Name)
					}
					if !mv.View.EqualRows(twin.Views[i].View.Rows()) {
						fail("view %s: rows differ from the in-place twin's", mv.Name)
					}
				}
			}
			pub.Snapshot()
			var chunk []*update.Statement
			for i, src := range w.Statements {
				st := update.MustParse(src)
				switch mode {
				case "per-statement":
					both(func(e *core.Engine) { _, _ = e.ApplyStatement(st) }) // a rejected statement is part of the workload
					publish(i)
				case "every-3":
					both(func(e *core.Engine) { _, _ = e.ApplyStatement(st) })
					if i%3 == 2 {
						publish(i)
					}
				case "batched":
					if chunk = append(chunk, st); len(chunk) < 4 && i < len(w.Statements)-1 {
						continue
					}
					both(func(e *core.Engine) {
						if run := pulopt.ApplyRun(e, chunk, nil); run.UnitErr != nil {
							t.Fatalf("seed %d: batch: %v", seed, run.UnitErr)
						}
					})
					chunk = chunk[:0]
					publish(i)
				}
			}
		}
	}
}

// TestLiveNodeByIDIsADescent: the live tree has no ID map, so NodeByID is
// the same descent the images use. Over difftest workloads — bulk deletes,
// and replaces that free a last child's ordinal and hand it to the forest
// inserted next — after every statement each attached node resolves to
// itself, the maintained Size() is the attached count, and a node the
// statement detached no longer resolves: its ID finds nothing, or the
// attached node it has been reassigned to. Seed 0 is wideWorkload, whose
// /site/people must cross the 64 children of one child-list leaf both ways.
func TestLiveNodeByIDIsADescent(t *testing.T) {
	seeds := uint64(12)
	if testing.Short() {
		seeds = 3
	}
	attachedNodes := func(d *xmltree.Document) map[*xmltree.Node]bool {
		set := map[*xmltree.Node]bool{}
		xmltree.Walk(d.Root, func(n *xmltree.Node) bool {
			set[n] = true
			return true
		})
		return set
	}
	detached, reassigned := 0, 0
	crossed := map[bool]int{} // by direction: true is past 64
	for seed := uint64(0); seed <= seeds; seed++ {
		w := seededWorkload(seed, maxStatements)
		e := newEngine(t, w)
		before := attachedNodes(e.Doc)
		wide := peopleWidth(e.Doc) > 64
		for i, src := range w.Statements {
			_, _ = e.ApplyStatement(update.MustParse(src)) // a rejected statement is part of the workload
			if now := peopleWidth(e.Doc) > 64; now != wide {
				crossed[now]++
				wide = now
			}
			now := attachedNodes(e.Doc)
			if e.Doc.Size() != len(now) {
				t.Fatalf("seed %d after statement %d (%s): Size() = %d, %d nodes attached", seed, i, src, e.Doc.Size(), len(now))
			}
			for n := range now {
				if got := e.Doc.NodeByID(n.ID()); got != n {
					t.Fatalf("seed %d after statement %d (%s): NodeByID(%v) = %p, want the attached node %p", seed, i, src, n.ID(), got, n)
				}
			}
			for n := range before {
				if now[n] {
					continue
				}
				detached++
				if got := e.Doc.NodeByID(n.ID()); got != nil {
					if !now[got] || !got.ID().Equal(n.ID()) {
						t.Fatalf("seed %d after statement %d (%s): detached %v resolves to a node outside the document", seed, i, src, n.ID())
					}
					reassigned++
				}
			}
			before = now
		}
	}
	if detached == 0 || reassigned == 0 {
		t.Fatalf("workloads detached %d nodes and reassigned %d IDs: the test did not see the cases it is for", detached, reassigned)
	}
	if crossed[true] == 0 || crossed[false] == 0 {
		t.Fatalf("/site/people crossed 64 children %d times up and %d down: the test did not see the cases it is for", crossed[true], crossed[false])
	}
}

// peopleWidth returns how many children /site/people has, 0 without it.
func peopleWidth(d *xmltree.Document) int {
	for k := d.Root.Kids(); k.Next(); {
		if k.Node().Label() == "people" {
			return k.Node().NumChildren()
		}
	}
	return 0
}

// walkCorpus is the benchmark's tree-walk query mix (benchmark/gen.go).
var walkCorpus = []string{
	`/site/people/person/name`,
	`/site/open_auctions/open_auction/bidder/increase`,
	`//open_auction//increase`,
	`//person[profile][homepage]/name`,
	`//open_auction[count(bidder)>=2]/initial`,
	`/site/open_auctions/open_auction/bidder[1]/increase`,
	`//bidder/following-sibling::current`,
	`//person[starts-with(@id,'person1')]`,
}

// fingerprint renders everything a reader can see of one epoch: the
// document, every view's rows, and the walkCorpus answers.
func fingerprint(s *core.Snapshot, progs []*qvm.Program) string {
	var b strings.Builder
	b.WriteString(s.Doc().String())
	for i := range s.Views {
		fmt.Fprintf(&b, "\n%s:", s.Views[i].Name)
		s.Views[i].Rows.Each(func(r algebra.Row) bool {
			fmt.Fprintf(&b, " %d×", r.Count)
			for _, en := range r.Entries {
				fmt.Fprintf(&b, "(%d %q %q %q)", en.NodeIdx, en.ID.Key(), en.Val, en.Cont)
			}
			return true
		})
	}
	for i, p := range progs {
		fmt.Fprintf(&b, "\n%s:", walkCorpus[i])
		for _, n := range p.Eval(s.Doc()) {
			fmt.Fprintf(&b, " %q=%q", n.ID().Key(), n.StringValue())
		}
	}
	return b.String()
}

// TestEpochsStableUnderLaterPublishes (b): what readers see of epoch N does
// not change while the writer applies and publishes N+1…N+k. Readers keep
// re-deriving the fingerprints of every epoch published so far, concurrently
// with the writer; run under -race, any write to a node, Children slice,
// row or label list that an earlier epoch shares is a reported race as well
// as a mismatch. An epoch's rows are the live view's own (stored rows are
// immutable, a refresh replaces one), so this is the oracle for row
// sharing: the workloads must drive val/cont-storing views through both
// tuple-modification algorithms, PIMT after an insert and PDMT after a
// delete, or the test has not seen the case it is for.
func TestEpochsStableUnderLaterPublishes(t *testing.T) {
	var progs []*qvm.Program
	for _, q := range walkCorpus {
		p, err := qvm.CompileString(q)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	type epoch struct {
		snap *core.Snapshot
		want string
	}
	refreshed := map[update.Kind]int{}
	for seed := uint64(1); seed <= 4; seed++ {
		w := NewWorkload(seed, maxStatements)
		e := newEngine(t, w)

		var mu sync.Mutex
		var epochs []epoch
		published := func() []epoch {
			mu.Lock()
			defer mu.Unlock()
			return epochs[:len(epochs):len(epochs)]
		}
		publish := func() {
			s := e.Snapshot()
			ep := epoch{s, fingerprint(s, progs)}
			mu.Lock()
			epochs = append(epochs, ep)
			mu.Unlock()
		}
		publish()

		stop := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					for _, ep := range published() {
						if got := fingerprint(ep.snap, progs); got != ep.want {
							t.Errorf("seed %d: epoch at version %d changed after publication", seed, ep.snap.Version)
							return
						}
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
		}
		for _, src := range w.Statements {
			st := update.MustParse(src)
			if rep, err := e.ApplyStatement(st); err == nil {
				for _, vr := range rep.Views {
					refreshed[st.Kind] += vr.RowsModified
				}
			}
			publish()
		}
		close(stop)
		wg.Wait()
		for _, ep := range published() {
			if got := fingerprint(ep.snap, progs); got != ep.want {
				t.Errorf("seed %d: epoch at version %d changed after publication", seed, ep.snap.Version)
			}
		}
	}
	if refreshed[update.Insert] == 0 || refreshed[update.Delete] == 0 {
		t.Fatalf("rows refreshed in place of published ones, by statement kind: %v; want some after inserts (PIMT) and some after deletes (PDMT)", refreshed)
	}
}
