package independence

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xivm/internal/algebra"
	"xivm/internal/core"
	"xivm/internal/dtd"
	"xivm/internal/pattern"
	"xivm/internal/update"
	"xivm/internal/xmltree"
)

const auctionDTD = `
site -> people, regions
people -> person*
person -> name, phone?
name -> #text
phone -> #text
regions -> item*
item -> name, description?
description -> #text
`

func TestInsertIndependentByLabels(t *testing.T) {
	p := pattern.MustParse(`//person{ID}`)
	st := update.MustParse(`insert <description>d</description> into /site/regions/item`)
	if got := Check(p, st, nil); got != Independent {
		t.Fatalf("got %v", got)
	}
	// Inserting a person-labeled node may affect.
	st2 := update.MustParse(`insert <person/> into /site/people`)
	if got := Check(p, st2, nil); got != MayAffect {
		t.Fatalf("got %v", got)
	}
}

func TestInsertContentSensitivity(t *testing.T) {
	// The view stores item cont; inserting anything below an item may
	// modify it even when labels are disjoint.
	p := pattern.MustParse(`//item{ID,cont}`)
	st := update.MustParse(`insert <extra/> into /site/regions/item`)
	if got := Check(p, st, nil); got != MayAffect {
		t.Fatalf("got %v", got)
	}
	// Inserting next to items (under regions) cannot touch item content:
	// the target chain is site/regions only.
	st2 := update.MustParse(`insert <extra/> into /site/regions`)
	if got := Check(p, st2, nil); got != Independent {
		t.Fatalf("got %v", got)
	}
}

func TestReplaceAlwaysMayAffect(t *testing.T) {
	// Regression: Replace used to fall through the statement-kind switch
	// with an empty changed-label set and could report Independent — even
	// against a label-disjoint view, the replaced subtree's labels are
	// data-dependent (like a delete's descendants), so only MayAffect is
	// sound.
	p := pattern.MustParse(`//person{ID}`)
	st := update.MustParse(`replace /site/regions/item with <item/>`)
	if got := Check(p, st, nil); got != MayAffect {
		t.Fatalf("replace without DTD: got %v", got)
	}
	g, err := dtd.Parse(auctionDTD)
	if err != nil {
		t.Fatal(err)
	}
	if got := Check(p, st, g); got != MayAffect {
		t.Fatalf("replace with DTD: got %v", got)
	}
}

func TestDeleteNeedsDTD(t *testing.T) {
	p := pattern.MustParse(`//person{ID}`)
	st := update.MustParse(`delete /site/regions/item`)
	if got := Check(p, st, nil); got != MayAffect {
		t.Fatalf("without DTD: got %v", got)
	}
	g := dtd.MustParse(auctionDTD)
	if got := Check(p, st, g); got != Independent {
		t.Fatalf("with DTD: got %v", got)
	}
	// Deleting people obviously affects.
	if got := Check(p, update.MustParse(`delete //person`), g); got != MayAffect {
		t.Fatalf("got %v", got)
	}
	// item has a name descendant — a name view is affected by item deletes.
	nameView := pattern.MustParse(`//item{ID}/name{ID}`)
	if got := Check(nameView, st, g); got != MayAffect {
		t.Fatalf("name view: got %v", got)
	}
}

func TestWildcardViewAlwaysMayAffect(t *testing.T) {
	p := pattern.MustParse(`//*{ID}//b{ID}`)
	st := update.MustParse(`insert <zzz/> into /site`)
	if got := Check(p, st, nil); got != MayAffect {
		t.Fatalf("got %v", got)
	}
}

func TestCopyOfInsertNeedsDTD(t *testing.T) {
	p := pattern.MustParse(`//person{ID}`)
	st := update.MustParse(`insert /site/regions/item into /site/regions`)
	if got := Check(p, st, nil); got != MayAffect {
		t.Fatalf("without DTD: got %v", got)
	}
	g := dtd.MustParse(auctionDTD)
	if got := Check(p, st, g); got != Independent {
		t.Fatalf("with DTD: got %v", got)
	}
}

func TestDescendantAxisChains(t *testing.T) {
	g := dtd.MustParse(auctionDTD)
	// //name matches names under persons AND items; a phone view is not
	// affected by deleting names, but a person{cont} view may be (a name
	// chain passes through person).
	phoneView := pattern.MustParse(`//phone{ID}`)
	if got := Check(phoneView, update.MustParse(`delete //name`), g); got != Independent {
		t.Fatalf("phone view: got %v", got)
	}
	contView := pattern.MustParse(`//person{ID,cont}`)
	if got := Check(contView, update.MustParse(`delete //name`), g); got != MayAffect {
		t.Fatalf("cont view: got %v", got)
	}
}

// permissiveDTD describes the randomXML documents used by the soundness
// property: every label may contain every label.
const permissiveDTD = `
root -> ANY*
a -> ANY*
b -> ANY*
c -> ANY*
d -> ANY*
e -> ANY*
ANY -> a | b | c | d | e | #text
`

// TestSoundness: whenever Check says Independent, applying the statement
// leaves the view bit-identical. Random views, documents and statements.
func TestSoundness(t *testing.T) {
	g := dtd.MustParse(permissiveDTD)
	rng := rand.New(rand.NewSource(77))
	labels := []string{"a", "b", "c", "d", "e"}
	independentSeen := 0
	for trial := 0; trial < 300; trial++ {
		// Random small view over a subset of labels.
		l1, l2 := labels[rng.Intn(5)], labels[rng.Intn(5)]
		store := []string{"{ID}", "{ID,val}", "{ID,cont}"}[rng.Intn(3)]
		src := fmt.Sprintf("//%s{ID}//%s%s", l1, l2, store)
		p := pattern.MustParse(src)

		doc := randomXML(rng)
		d, err := xmltree.ParseString(doc)
		if err != nil {
			t.Fatal(err)
		}
		e := core.New(d)
		mv, err := e.AddView("v", p)
		if err != nil {
			t.Fatal(err)
		}
		before := mv.View.Rows()

		stmt := randomStatement(rng, labels)
		st := update.MustParse(stmt)
		verdict := Check(p, st, g)
		if _, err := e.ApplyStatement(st); err != nil {
			t.Fatal(err)
		}
		if verdict == Independent {
			independentSeen++
			if !mv.View.EqualRows(before) {
				t.Fatalf("trial %d: %q declared independent of %s but changed the view",
					trial, stmt, src)
			}
		}
	}
	if independentSeen == 0 {
		t.Fatal("soundness test never exercised an Independent verdict")
	}
}

func randomXML(rng *rand.Rand) string {
	labels := []string{"a", "b", "c", "d", "e"}
	var build func(lvl int) string
	build = func(lvl int) string {
		l := labels[rng.Intn(len(labels))]
		var sb strings.Builder
		sb.WriteString("<" + l + ">")
		if lvl < 3 {
			for i := 0; i < rng.Intn(3); i++ {
				sb.WriteString(build(lvl + 1))
			}
		}
		sb.WriteString("</" + l + ">")
		return sb.String()
	}
	return "<root>" + build(1) + build(1) + "</root>"
}

func randomStatement(rng *rand.Rand, labels []string) string {
	l := func() string { return labels[rng.Intn(len(labels))] }
	path := "/root"
	for i := 0; i < 1+rng.Intn(2); i++ {
		if rng.Intn(2) == 0 {
			path += "/" + l()
		} else {
			path += "//" + l()
		}
	}
	if rng.Intn(2) == 0 {
		return "delete " + path
	}
	x, y := l(), l()
	return fmt.Sprintf("insert <%s><%s/></%s> into %s", x, y, x, path)
}

// TestEngineFastPath: a statement Check calls Independent of a view leaves
// that view's rows byte-equal when the engine applies it, and every view
// equals a fresh evaluation afterwards either way — the soundness the
// serving layer's result cache rests on.
func TestEngineFastPath(t *testing.T) {
	g := dtd.MustParse(permissiveDTD)
	rng := rand.New(rand.NewSource(9))
	labels := []string{"a", "b", "c", "d", "e"}
	independent := 0
	for trial := 0; trial < 40; trial++ {
		d, err := xmltree.ParseString(randomXML(rng))
		if err != nil {
			t.Fatal(err)
		}
		e := core.New(d)
		var mvs []*core.ManagedView
		for _, src := range []string{`//a{ID}//b{ID}`, `//c{ID,val}`, `//d{ID}[//e]`} {
			mv, err := e.AddView(src, pattern.MustParse(src))
			if err != nil {
				t.Fatal(err)
			}
			mvs = append(mvs, mv)
		}
		for step := 0; step < 6; step++ {
			st := update.MustParse(randomStatement(rng, labels))
			before := make([][]algebra.Row, len(mvs))
			for i, mv := range mvs {
				if Check(mv.Pattern, st, g) == Independent {
					before[i] = mv.View.Rows()
					independent++
				}
			}
			if _, err := e.ApplyStatement(st); err != nil {
				t.Fatal(err)
			}
			for i, mv := range mvs {
				if before[i] != nil && !rowsEqual(before[i], mv.View.Rows()) {
					t.Fatalf("trial %d step %d: %s, called independent of view %s, changed its rows", trial, step, st, mv.Name)
				}
				if !e.CheckView(mv) {
					t.Fatalf("trial %d step %d: view %s stale after %s", trial, step, mv.Name, st)
				}
			}
		}
	}
	if independent == 0 {
		t.Fatal("Check never called a statement independent of a view")
	}
	t.Logf("%d statement/view pairs called independent", independent)
}

// rowsEqual reports whether two row lists hold the same rows, byte for
// byte, in the same order.
func rowsEqual(a, b []algebra.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}
