package core

import (
	"testing"

	"xivm/internal/algebra"
	"xivm/internal/obs"
	"xivm/internal/pattern"
	"xivm/internal/update"
	"xivm/internal/xmark"
)

// TestScratchLeavesEpochsAlone holds the statement scratch to what it may
// not do: lend a view, a snowcap or an epoch anything it reuses, or carry
// one statement's ∆ into the next. An Appendix-A bulk insert (an increase
// under every bidder: the largest ∆ the set has, much of it beyond what a
// scratch keeps) is followed by the benchmark's small bidder and name
// pairs, and by the bulk delete. After every statement each earlier
// epoch's rows must still equal the copies taken when it was published,
// and every view and snowcap must equal a fresh evaluation. Under each
// policy: the served one lends its reduced reads from the scratch, and
// Snowcaps' mats copy what they keep out of it.
func TestScratchLeavesEpochsAlone(t *testing.T) {
	for _, policy := range []Policy{PolicyLeaves, PolicySnowcaps} {
		t.Run(policy.String(), func(t *testing.T) { scratchLeavesEpochsAlone(t, policy) })
	}
}

func scratchLeavesEpochsAlone(t *testing.T, policy Policy) {
	doc := mustDoc(t, xmark.Generate(xmark.Config{TargetBytes: 100 << 10, Seed: 1}))
	e := New(doc, WithMetrics(obs.New()), WithPolicy(policy))
	for _, v := range benchViews {
		if _, err := e.AddView(v[0], pattern.MustParse(v[1])); err != nil {
			t.Fatal(err)
		}
	}
	type epoch struct {
		snap *Snapshot
		rows [][]algebra.Row // per view, each row with cells of its own
	}
	publish := func() epoch {
		ep := epoch{snap: e.Snapshot()}
		for _, v := range ep.snap.Views {
			rows := v.Rows.AppendTo(nil)
			for i := range rows {
				rows[i] = rows[i].Clone()
			}
			ep.rows = append(ep.rows, rows)
		}
		return ep
	}

	bulk := xmark.UpdateByName("X2_L")
	const auction = `/site/open_auctions/open_auction[@id="open_auction0"]`
	const person = `/site/people/person[@id="person0"]`
	stmts := []*update.Statement{bulk.InsertStatement()}
	for range 3 {
		stmts = append(stmts,
			update.MustParse(`insert <bidder><date>03/03/2021</date><increase>3.00</increase><xbench/></bidder> into `+auction),
			update.MustParse(`delete `+auction+`/bidder[xbench]`),
			update.MustParse(`insert <name>Bench Mark<xbench/></name> into `+person),
			update.MustParse(`delete `+person+`/name[xbench]`),
		)
	}
	stmts = append(stmts, update.MustParse(`delete /site/open_auctions/open_auction/bidder/increase`))

	epochs := []epoch{publish()}
	for i, st := range stmts {
		if _, err := e.ApplyStatement(st); err != nil {
			t.Fatalf("statement %d (%s): %v", i, st, err)
		}
		for _, ep := range epochs {
			for v, want := range ep.rows {
				got := ep.snap.Views[v].Rows.AppendTo(nil)
				if len(got) != len(want) {
					t.Fatalf("after statement %d (%s): view %s at version %d holds %d rows, published with %d",
						i, st, ep.snap.Views[v].Name, ep.snap.Version, len(got), len(want))
				}
				for r := range got {
					if !got[r].Equal(want[r]) {
						t.Fatalf("after statement %d (%s): row %d of view %s at version %d changed after publication",
							i, st, r, ep.snap.Views[v].Name, ep.snap.Version)
					}
				}
			}
		}
		for _, mv := range e.Views {
			if !e.CheckView(mv) {
				t.Fatalf("after statement %d (%s): view %s differs from recomputation", i, st, mv.Name)
			}
			checkLattice(t, e, mv, "after "+st.String())
		}
		epochs = append(epochs, publish())
	}
}
