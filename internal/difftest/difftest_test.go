package difftest

import (
	"os"
	"strconv"
	"testing"

	"xivm/internal/update"
	"xivm/internal/xmltree"
)

func TestVocabularyParses(t *testing.T) {
	for _, src := range vocabulary {
		if _, err := update.Parse(src); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
}

func TestWorkloadDeterministic(t *testing.T) {
	a, b := NewWorkload(42, 10), NewWorkload(42, 10)
	if a.DocSeed != b.DocSeed || len(a.Statements) != len(b.Statements) {
		t.Fatal("workload generation not deterministic")
	}
	for i := range a.Statements {
		if a.Statements[i] != b.Statements[i] {
			t.Fatal("workload generation not deterministic")
		}
	}
	if NewWorkload(1, 40).Statements == nil || len(NewWorkload(1, 40).Statements) != maxStatements {
		t.Fatal("statement cap not applied")
	}
}

// TestMatrixSeeded is the central differential property: seeded workloads
// through the full configuration matrix, every maintained state checked
// against the recompute oracle. Failures are shrunk before reporting so the
// log carries a minimal reproducible counterexample.
// DIFFTEST_SEEDS widens the sweep (e.g. DIFFTEST_SEEDS=150 takes about half
// a minute); -short narrows it.
func TestMatrixSeeded(t *testing.T) {
	nSeeds := 16
	if s := os.Getenv("DIFFTEST_SEEDS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			nSeeds = n
		}
	}
	if testing.Short() {
		nSeeds = 2
	}
	for seed := uint64(1); seed <= uint64(nSeeds); seed++ {
		w := NewWorkload(seed, 14)
		for _, cfg := range Matrix() {
			if d := Run(w, cfg); d != nil {
				min, md := Shrink(w, cfg)
				t.Errorf("seed %d: %v\nminimal workload: seed=%d statements=%q\nminimal divergence: %v",
					seed, d, min.DocSeed, min.Statements, md)
			}
		}
	}
}

// TestDecodeTotal: every byte string decodes to a runnable workload — the
// fuzz targets rely on the decoder never producing an invalid statement.
func TestDecodeTotal(t *testing.T) {
	inputs := [][]byte{
		nil,
		{0},
		{0xff},
		{7, 0, 1, 2, 3, 250, 251, 252, 253, 254, 255},
		[]byte("arbitrary text is a workload too"),
	}
	cfg := Config{Name: "eager-snowcaps"}
	for _, in := range inputs {
		w := Decode(in)
		if len(w.Statements) > maxStatements {
			t.Fatalf("decode exceeded statement cap: %d", len(w.Statements))
		}
		for _, src := range w.Statements {
			if _, err := update.Parse(src); err != nil {
				t.Fatalf("decoded unparseable statement %q: %v", src, err)
			}
		}
		if d := Run(w, cfg); d != nil {
			t.Fatalf("decoded workload diverges: %v", d)
		}
	}
}

// TestShrinkWith exercises the minimizer against a synthetic failure
// predicate: the "bug" needs two specific statements in order, and the
// shrinker must strip everything else.
func TestShrinkWith(t *testing.T) {
	trigger1, trigger2 := vocabulary[0], vocabulary[5]
	w := NewWorkload(9, 12)
	w.Statements = append(w.Statements[:8:8], trigger1, vocabulary[3], trigger2, vocabulary[1])
	fails := func(c Workload) *Divergence {
		seen1 := false
		for _, s := range c.Statements {
			if s == trigger1 {
				seen1 = true
			}
			if s == trigger2 && seen1 {
				return &Divergence{Config: "synthetic", Detail: "triggered"}
			}
		}
		return nil
	}
	min, div := ShrinkWith(w, fails)
	if div == nil {
		t.Fatal("shrinker lost the failure")
	}
	if len(min.Statements) != 2 || min.Statements[0] != trigger1 || min.Statements[1] != trigger2 {
		t.Fatalf("not minimal: %q", min.Statements)
	}
	// A passing workload comes back unchanged with no divergence.
	ok := Workload{DocSeed: 3, Statements: []string{vocabulary[1]}}
	if _, div := ShrinkWith(ok, fails); div != nil {
		t.Fatal("shrinker invented a failure")
	}
}

// twinWorkload replaces the last child of a parent under a new label: the
// replacement takes the ordinal its victim freed, so the statement's delete
// and insert stages carry ordinal twins — keys with one ordinal and two
// labels under one parent, whose order is unspecified. The statements after
// it edit around the twins.
var twinWorkload = Workload{DocSeed: 3, Statements: []string{
	`replace /site/closed_auctions with <open_auctions><open_auction id="oaT"><initial>1.00</initial><bidder><date>01/01/2011</date><personref person="person12"/><increase>4.50</increase></bidder></open_auction></open_auctions>`,
	`replace /site/regions/europe with <namerica><item id="itemT"><location>Chile</location><name>twin clock</name><description><text>twin</text></description></item></namerica>`,
	`for $x in /site/open_auctions/open_auction insert <bidder><date>02/02/2011</date><increase>4.50</increase></bidder>`,
	`replace /site/open_auctions with <closed_auctions/>`,
	`delete /site/regions/namerica/item`,
	`insert <europe><item id="itemU"><name>back</name></item></europe> into /site/regions`,
}}

// TestOrdinalTwinReplace: a replace that hands a freed ordinal to a node of
// another label, through every matrix configuration against recompute.
func TestOrdinalTwinReplace(t *testing.T) {
	// The fixture must produce the twins it is for.
	e := newEngine(t, twinWorkload)
	last := func() *xmltree.Node { return e.Doc.Root.Children[len(e.Doc.Root.Children)-1] }
	before := last()
	if _, err := e.ApplyStatement(update.MustParse(twinWorkload.Statements[0])); err != nil {
		t.Fatal(err)
	}
	after := last()
	if after.Label() == before.Label() || !ownOrd(after.ID).Equal(ownOrd(before.ID)) || after.ID.Equal(before.ID) {
		t.Fatalf("replacing %v produced %v: not an ordinal twin", before.ID, after.ID)
	}
	for _, src := range twinWorkload.Statements[1:] {
		rep, err := e.ApplyStatement(update.MustParse(src))
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		moved := 0
		for _, vr := range rep.Views {
			moved += vr.RowsAdded + vr.RowsRemoved + vr.RowsModified
		}
		if moved == 0 {
			t.Fatalf("%s moves no view row", src)
		}
	}
	for _, cfg := range Matrix() {
		if d := Run(twinWorkload, cfg); d != nil {
			t.Errorf("%v", d)
		}
	}
}
