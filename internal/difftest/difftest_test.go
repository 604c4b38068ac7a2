package difftest

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"xivm/internal/core"
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

// TestDecodeWideShape: wideMark and two bytes after it decode as the wide
// shape; with fewer it is document seed 255 as any other first byte.
func TestDecodeWideShape(t *testing.T) {
	w := Decode([]byte{wideMark, 19, 4, 2})
	if w.DocSeed != 19 || w.People != 64 || len(w.Statements) != 1 || w.Statements[0] != vocabulary[2] {
		t.Fatalf("decoded %+v", w)
	}
	if w := Decode([]byte{wideMark, 19}); w.DocSeed != wideMark || w.People != 0 || len(w.Statements) != 1 {
		t.Fatalf("decoded %+v", w)
	}
}

// TestMatrixSeeded is the central differential property: seeded workloads
// through the full configuration matrix, every maintained state checked
// against the recompute oracle. Failures are shrunk before reporting so the
// log carries a minimal reproducible counterexample. A batch configuration
// whose chunks the planner never translated would have tested only the
// per-statement fallback, so each must translate at least one.
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
	translated := map[string]int{}
	for seed := uint64(0); seed <= uint64(nSeeds); seed++ {
		w := seededWorkload(seed, 14)
		for _, cfg := range Matrix() {
			n, _, d := run(w, cfg)
			translated[cfg.Name] += n
			if d != nil {
				min, md := Shrink(w, cfg)
				t.Errorf("seed %d: %v\nminimal workload: seed=%d people=%d statements=%q\nminimal divergence: %v",
					seed, d, min.DocSeed, min.People, min.Statements, md)
			}
		}
	}
	for _, cfg := range Matrix() {
		if cfg.Batch == 0 {
			continue
		}
		t.Logf("%s: %d chunks translated", cfg.Name, translated[cfg.Name])
		if translated[cfg.Name] == 0 {
			t.Errorf("%s: the planner translated no chunk", cfg.Name)
		}
	}
}

// TestPredicateFlipsPropagate: seeds 15 and 26 flip the predicate views'
// bidders both ways, and every matrix configuration that keeps those views
// must propagate a flip-in and a flip-out, and match the oracle after
// each statement. Without it the matrix could stop flipping, or stop
// flipping in, and still pass.
func TestPredicateFlipsPropagate(t *testing.T) {
	for _, cfg := range Matrix() {
		if cfg.IVMA {
			continue // it maintains no predicate view
		}
		var in, out int64
		for _, seed := range []uint64{15, 26} {
			_, m, d := run(seededWorkload(seed, 14), cfg)
			if d != nil {
				t.Errorf("seed %d: %v", seed, d)
			}
			in += m.CounterValue("core.predflip.in")
			out += m.CounterValue("core.predflip.out")
		}
		if in == 0 || out == 0 {
			t.Errorf("%s: %d flips in and %d out propagated, want some of each", cfg.Name, in, out)
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
	cfg := Config{Name: "eager-snowcaps", Policy: core.PolicySnowcaps}
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

// wideWorkload starts from the wide document shape with /site/people at
// the 64 children one leaf of a child list holds, and takes that list
// across the bound both ways: a person inserted makes it a tree of two
// leaves (65); deleting catgraph, an earlier sibling, leaves people's own
// ordinal above the one a reparse gives it; a forest of 70 persons without
// an emailaddress, 10 with a homepage, is appended (135); a phone under
// every person copies a path through the list; deleting the 64 persons the
// document was generated with leaves the rest's ordinals above a reparse's
// (71); deleting the persons with a homepage takes it back to one slice
// (60); and the inserts after that append to it. checkImage's reparse then
// restores IDs a parse does not assign under lists of both shapes.
var wideWorkload = Workload{DocSeed: 19, People: 64, Statements: []string{
	`insert <person id="personX"><name>Nova Quinn</name><homepage>http://example.net/~nova</homepage></person> into /site/people`,
	`delete /site/catgraph`,
	`insert ` + strings.Repeat(`<person id="personF"><name>Fern Wide</name></person>`, 60) +
		strings.Repeat(`<person id="personH"><name>Hal Wide</name><homepage>http://example.net/~hal</homepage></person>`, 10) +
		` into /site/people`,
	`for $x in /site/people/person insert <phone>+33 555 0199</phone>`,
	`delete /site/people/person[emailaddress]`,
	`delete /site/people/person[homepage]`,
	`insert <person id="personX"><name>Nova Quinn</name><homepage>http://example.net/~nova</homepage></person> into /site/people`,
	`for $x in /site/people/person[phone] insert <homepage>http://example.net/~new</homepage>`,
	`delete /site/people/person/phone`,
	`replace /site/people/person/name with <name>Replaced Name</name>`,
}}

// seededWorkload is the workload of n statements the seeded tests run for
// a seed: NewWorkload's, and for seed 0 wideWorkload.
func seededWorkload(seed uint64, n int) Workload {
	if seed == 0 {
		return wideWorkload
	}
	return NewWorkload(seed, n)
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
	last := func() *xmltree.Node {
		k := e.Doc.Root.Kids()
		for k.Next() {
		}
		k.Prev()
		return k.Node()
	}
	before := last()
	if _, err := e.ApplyStatement(update.MustParse(twinWorkload.Statements[0])); err != nil {
		t.Fatal(err)
	}
	after := last()
	if after.Label() == before.Label() || !ownOrd(after.ID()).Equal(ownOrd(before.ID())) || after.ID().Equal(before.ID()) {
		t.Fatalf("replacing %v produced %v: not an ordinal twin", before.ID(), after.ID())
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
