package view

import (
	"testing"

	"xivm/internal/algebra"
	"xivm/internal/pattern"
	"xivm/internal/xmltree"
)

// The paper's running example (Figure 3 bottom).
const paperView = `for $p in doc("confs")//confs//paper, $a in $p/affiliation
return <result> <pid>{id($p)}</pid> <aid>{id($a)}</aid> <acont>{$a}</acont> </result>`

func TestPaperFigure3View(t *testing.T) {
	def, err := Compile(paperView)
	if err != nil {
		t.Fatal(err)
	}
	p := def.Pattern
	if got := p.String(); got != "//confs//paper{ID}/affiliation{ID,cont}" {
		t.Fatalf("pattern = %q", got)
	}
	if def.VarNode["p"] != 1 || def.VarNode["a"] != 2 {
		t.Fatalf("VarNode = %v", def.VarNode)
	}
	if def.Query.RetRoot != "result" || len(def.Query.Elems) != 3 {
		t.Fatalf("return clause: %+v", def.Query)
	}
}

func TestXMarkQ1(t *testing.T) {
	src := `let $auction := doc("auction.xml") return
for $b in $auction/site/people/person[@id]
return $b/name/text()`
	def, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	// /site/people/person[@id] with name{val} — root anchored.
	want := "/site/people/person[/@id]/name{ID,val}"
	if got := def.Pattern.String(); got != want {
		t.Fatalf("pattern = %q want %q", got, want)
	}
	if def.Pattern.Root.Desc {
		t.Fatal("root must be /-anchored")
	}
}

func TestXMarkQ3WhereValue(t *testing.T) {
	src := `let $auction := doc("auction.xml") return
for $b in $auction/site/open_auctions/open_auction
where $b/bidder/increase/text() = "4.50"
return $b/bidder/increase/text()`
	def, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	p := def.Pattern
	// Two bidder/increase chains: one with [val="4.50"], one stored.
	if p.Size() != 7 {
		t.Fatalf("size %d: %s", p.Size(), p)
	}
	var preds, stored int
	for _, n := range p.Nodes {
		if n.HasPred {
			preds++
			if n.PredVal != "4.50" {
				t.Fatalf("pred %q", n.PredVal)
			}
		}
		if n.Store != 0 {
			stored++
		}
	}
	if preds != 1 || stored != 1 {
		t.Fatalf("preds=%d stored=%d", preds, stored)
	}
}

func TestWhereExistencePredicate(t *testing.T) {
	src := `for $b in doc("a")/site/open_auctions/open_auction
where $b/bidder/personref[@person = "person12"]
return $b/bidder/increase/text()`
	def, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range def.Pattern.Nodes {
		if n.Label == "@person" && n.HasPred && n.PredVal == "person12" {
			found = true
		}
	}
	if !found {
		t.Fatalf("embedded attribute predicate lost: %s", def.Pattern)
	}
}

func TestMultipleReturnItems(t *testing.T) {
	src := `for $i in doc("a")/site/regions/namerica/item
return $i/name/text(), $i/description`
	def, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	p := def.Pattern
	var val, cont bool
	for _, n := range p.Nodes {
		if n.Label == "name" && n.Store.Has(pattern.StoreVal) {
			val = true
		}
		if n.Label == "description" && n.Store.Has(pattern.StoreCont) {
			cont = true
		}
	}
	if !val || !cont {
		t.Fatalf("annotations lost: %s", p)
	}
}

func TestCompiledViewEvaluates(t *testing.T) {
	src := `for $p in doc("d")//person[@id], $n in $p/name
return <r><i>{id($p)}</i><v>{string($n)}</v></r>`
	def, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := xmltree.ParseString(`<site><person id="p0"><name>Ann</name></person><person><name>Bob</name></person></site>`)
	if err != nil {
		t.Fatal(err)
	}
	rows := algebra.Materialize(d, def.Pattern)
	if len(rows) != 1 {
		t.Fatalf("rows = %+v", rows)
	}
	// id($p) stores only ID; string($n) stores val.
	shape := algebra.NewShape(def.Pattern)
	var nameEntry algebra.RowEntry
	for i := range shape.Width() {
		if e := shape.Entry(rows[0], i); e.NodeIdx == def.VarNode["n"] {
			nameEntry = e
		}
	}
	if nameEntry.Val != "Ann" {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`return $x`,
		`for $x in doc("a")`,       // variable with no path
		`for $x in $y/a return $x`, // undeclared base
		`for $x in doc("a")/r where $y = "1" return $x`,    // undeclared where var
		`for $x in doc("a")/r return $y`,                   // undeclared return var
		`for $x in doc("a")/r, $y in doc("b")/s return $x`, // second absolute
		`for $x in doc("a")/r[a or b] return $x`,           // disjunction in view
		`for $x in doc("a")/r return <r><a>{$x}</a>`,       // unclosed constructor
		`let $d := doc("a") return for $x in doc("b")/r return $x trailing`,
	}
	for _, src := range bad {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q) should fail", src)
		}
	}
}

func TestVarNodeIndices(t *testing.T) {
	def := MustCompile(`for $a in doc("d")//a, $b in $a//b, $c in $b/c
return <r><x>{id($a)}</x><y>{id($b)}</y><z>{id($c)}</z></r>`)
	p := def.Pattern
	if p.Size() != 3 {
		t.Fatalf("size %d", p.Size())
	}
	if def.VarNode["a"] != 0 || def.VarNode["b"] != 1 || def.VarNode["c"] != 2 {
		t.Fatalf("VarNode = %v", def.VarNode)
	}
	if !p.Nodes[1].Desc || p.Nodes[2].Desc {
		t.Fatal("edge kinds lost")
	}
	for _, n := range p.Nodes {
		if !n.Store.Has(pattern.StoreID) {
			t.Fatal("missing ID store")
		}
	}
}

func TestQueryString(t *testing.T) {
	q, err := ParseQuery(paperView)
	if err != nil {
		t.Fatal(err)
	}
	if q.String() != paperView {
		t.Fatal("Query.String must return the source")
	}
}

func TestPredicateShapes(t *testing.T) {
	// Nested and-predicates distribute into branches.
	def := MustCompile(`for $x in doc("d")//a[b and c[d]] return id($x)`)
	p := def.Pattern
	if p.Size() != 4 {
		t.Fatalf("size %d: %s", p.Size(), p)
	}
	// Equality predicates inside steps become [val=c] on the branch end.
	def2 := MustCompile(`for $x in doc("d")//a[b="7"] return id($x)`)
	found := false
	for _, n := range def2.Pattern.Nodes {
		if n.Label == "b" && n.HasPred && n.PredVal == "7" {
			found = true
		}
	}
	if !found {
		t.Fatalf("embedded equality lost: %s", def2.Pattern)
	}
	// Conflicting predicates on the same node are rejected.
	if _, err := Compile(`for $x in doc("d")//a[b="7"][b="8"] return id($x)`); err == nil {
		// Two [b=…] predicates create two separate b branches, which is
		// fine (conjunctive semantics); a conflict needs the SAME node.
		t.Log("separate branches per predicate, as designed")
	}
	if _, err := Compile(`for $x in doc("d")//a where $x/b = "7" and $x = "8" return id($x)`); err != nil {
		t.Fatalf("where conjunction rejected: %v", err)
	}
	if _, err := Compile(`for $x in doc("d")//a where $x = "7" and $x = "8" return id($x)`); err == nil {
		t.Fatal("conflicting where predicates accepted")
	}
}
