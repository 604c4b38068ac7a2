package update

import (
	"strings"
	"testing"

	"xivm/internal/store"
	"xivm/internal/xmltree"
	"xivm/internal/xpath"
)

func mustDoc(t *testing.T, s string) *xmltree.Document {
	t.Helper()
	d, err := xmltree.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestParseDelete(t *testing.T) {
	st, err := Parse(`delete //c//b`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != Delete || st.Target.String() != "//c//b" {
		t.Fatalf("%+v", st)
	}
}

func TestParseInsertInto(t *testing.T) {
	st, err := Parse(`insert <a><b/><b><c/></b></a> into /site/people`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != Insert || len(st.Forest) != 1 || st.Target.String() != "/site/people" {
		t.Fatalf("%+v", st)
	}
	if st.Forest[0].CountNodes() != 4 {
		t.Fatalf("forest nodes %d", st.Forest[0].CountNodes())
	}
}

func TestParseForLoopInsert(t *testing.T) {
	// The paper's appendix syntax, with a let-bound document variable.
	src := `let $c := doc("auction.xml")
for $person in $c/site/people/person
insert <name>Martin<name>and</name><name>some</name></name>`
	st, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != Insert || st.Target.String() != "/site/people/person" {
		t.Fatalf("%+v", st)
	}
	if len(st.Forest) != 1 || st.Forest[0].Label() != "name" {
		t.Fatalf("forest %+v", st.Forest)
	}
}

func TestParseForLoopInsertIntoVar(t *testing.T) {
	st, err := Parse(`for $x in //regions//item insert <item><location>U</location></item> into $x`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Target.String() != "//regions//item" {
		t.Fatalf("target %q", st.Target)
	}
	if _, err := Parse(`for $x in //a insert <b/> into $y`); err == nil {
		t.Fatal("mismatched loop variable should fail")
	}
}

func TestParseInsertCopyOf(t *testing.T) {
	st, err := Parse(`insert //a//b into //c`)
	if err != nil {
		t.Fatal(err)
	}
	if st.CopyOf == nil || st.CopyOf.String() != "//a//b" || st.Target.String() != "//c" {
		t.Fatalf("%+v", st)
	}
}

func TestParseMultiTreeForest(t *testing.T) {
	st, err := Parse(`insert <x>1</x><y/><z a="q"/> into //p`)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Forest) != 3 {
		t.Fatalf("forest %d", len(st.Forest))
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"", "frobnicate //a", "delete", "insert <a/>", "insert <a> into //b",
		"for $x in //a delete //b", "let $c := doc( delete //a",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestComputePULAndApplyInsert(t *testing.T) {
	d := mustDoc(t, `<site><people><person/><person/></people></site>`)
	s := store.New(d)
	st := MustParse(`for $p in /site/people/person insert <name>N</name>`)
	pul, err := ComputePUL(d, st)
	if err != nil {
		t.Fatal(err)
	}
	if pul.Targets() != 2 {
		t.Fatalf("targets %d", pul.Targets())
	}
	applied, err := Apply(d, s, pul)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied.InsertedRoots) != 2 {
		t.Fatalf("inserted %d", len(applied.InsertedRoots))
	}
	if s.Count("name") != 2 {
		t.Fatalf("store name count %d", s.Count("name"))
	}
	for _, r := range applied.InsertedRoots {
		if r.ID.IsNull() || d.NodeByID(r.ID) != r {
			t.Fatal("inserted root not indexed with fresh ID")
		}
	}
}

func TestComputePULDeleteNestedTargets(t *testing.T) {
	// //b matches nested b's; the PUL must keep only the outermost.
	d := mustDoc(t, `<a><b><x/><b><y/></b></b><b/></a>`)
	st := MustParse(`delete //b`)
	pul, err := ComputePUL(d, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(pul.Deletes) != 2 {
		t.Fatalf("deletes %d", len(pul.Deletes))
	}
	s := store.New(d)
	applied, err := Apply(d, s, pul)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied.DeletedRoots) != 2 {
		t.Fatalf("deleted %d", len(applied.DeletedRoots))
	}
	if s.Count("b") != 0 || s.Count("y") != 0 {
		t.Fatal("store not purged")
	}
	if len(d.Root.ElementChildren()) != 0 {
		t.Fatal("document still has b children")
	}
}

// TestProgrammaticStatementRunsTheVM: a statement built without source text
// is compiled too (keyed by its paths' renderings) and selects what the
// interpreted oracle selects; a path the compiler rejects is ComputePUL's
// error, not a silent switch of evaluator.
func TestProgrammaticStatementRunsTheVM(t *testing.T) {
	d := mustDoc(t, `<r><src><b>1</b><b>2</b></src><dst/><dst><b>3</b></dst></r>`)
	target, src := xpath.MustParse(`/r/dst`), xpath.MustParse(`//src/b[last()]`)
	st := &Statement{Kind: Insert, Target: target, CopyOf: &src}
	pul, err := ComputePUL(d, st)
	if err != nil {
		t.Fatal(err)
	}
	want := xpath.Eval(d, target)
	if len(pul.Inserts) != len(want) || len(want) != 2 {
		t.Fatalf("%d insertions for %d interpreted targets", len(pul.Inserts), len(want))
	}
	for i, in := range pul.Inserts {
		if in.Target != want[i] || len(in.Trees) != 1 || in.Trees[0] != xpath.Eval(d, src)[0] {
			t.Fatalf("insertion %d: target %v, trees %v", i, in.Target.ID, in.Trees)
		}
	}
	for _, key := range []string{target.String(), src.String()} {
		if _, ok := targetProgs.Get(key); !ok {
			t.Fatalf("no compiled program cached under %q", key)
		}
	}
	for _, bad := range []*Statement{
		{Kind: Delete},
		{Kind: Insert, Target: target, CopyOf: &xpath.Path{}},
	} {
		if _, err := ComputePUL(d, bad); err == nil || !strings.Contains(err.Error(), "qvm:") {
			t.Fatalf("uncompilable path: err = %v, want the compiler's", err)
		}
	}
}

func TestDeleteRootRejected(t *testing.T) {
	d := mustDoc(t, `<a><b/></a>`)
	if _, err := ComputePUL(d, MustParse(`delete /a`)); err == nil {
		t.Fatal("expected root deletion error")
	}
}

func TestInsertCopyOfApplies(t *testing.T) {
	d := mustDoc(t, `<r><src><b>1</b><b>2</b></src><dst/></r>`)
	s := store.New(d)
	st := MustParse(`insert /r/src/b into /r/dst`)
	_, applied, err := Run(d, s, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied.InsertedRoots) != 2 {
		t.Fatalf("inserted %d", len(applied.InsertedRoots))
	}
	if got := s.Count("b"); got != 4 {
		t.Fatalf("b count %d", got)
	}
}

func TestDeltaTables(t *testing.T) {
	d := mustDoc(t, `<r><p/></r>`)
	s := store.New(d)
	st := MustParse(`insert <a><b/><b><c/></b></a> into /r/p`)
	_, applied, err := Run(d, s, st)
	if err != nil {
		t.Fatal(err)
	}
	dt := DeltaTables(applied.InsertedRoots, []string{"a", "b", "c", "z", "*"})
	if len(dt["a"]) != 1 || len(dt["b"]) != 2 || len(dt["c"]) != 1 {
		t.Fatalf("delta sizes: a=%d b=%d c=%d", len(dt["a"]), len(dt["b"]), len(dt["c"]))
	}
	if len(dt["z"]) != 0 {
		t.Fatal("phantom delta")
	}
	if len(dt["*"]) != 4 {
		t.Fatalf("star delta %d", len(dt["*"]))
	}
	// Ordered by document order.
	bs := dt["b"]
	if bs[0].ID.Compare(bs[1].ID) >= 0 {
		t.Fatal("delta table not ordered")
	}
}

func TestInsertionPoints(t *testing.T) {
	d := mustDoc(t, `<r><p/><p/></r>`)
	pul, err := ComputePUL(d, MustParse(`insert <x/> into /r/p`))
	if err != nil {
		t.Fatal(err)
	}
	pts := pul.InsertionPoints()
	if len(pts) != 2 || pts[0].Label() != "p" {
		t.Fatalf("points %v", pts)
	}
}

func TestStringers(t *testing.T) {
	if Insert.String() != "insert" || Delete.String() != "delete" {
		t.Fatal("Kind strings wrong")
	}
	st := MustParse(`delete //a`)
	if st.String() != `delete //a` {
		t.Fatalf("Statement.String = %q", st.String())
	}
	forest, err := xmltree.ParseForest(`<a x="1"><b/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	if got := ForestString(forest); got != `<a x="1"><b/></a>` {
		t.Fatalf("ForestString = %q", got)
	}
}

func TestTargetsCount(t *testing.T) {
	d := mustDoc(t, `<r><p/><p/><q/></r>`)
	ins, err := ComputePUL(d, MustParse(`insert <x/> into /r/p`))
	if err != nil {
		t.Fatal(err)
	}
	if ins.Targets() != 2 {
		t.Fatalf("insert targets %d", ins.Targets())
	}
	del, err := ComputePUL(d, MustParse(`delete /r/q`))
	if err != nil {
		t.Fatal(err)
	}
	if del.Targets() != 1 {
		t.Fatalf("delete targets %d", del.Targets())
	}
}

func TestParseAbsPathVarForms(t *testing.T) {
	// Unknown variable anchoring a path must fail.
	if _, err := Parse(`let $c := doc("a") delete $z//b`); err == nil {
		t.Fatal("unknown variable accepted")
	}
	// The let-bound variable works in every position.
	st, err := Parse(`let $c := doc("a") insert <x/> into $c//b`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Target.String() != "//b" {
		t.Fatalf("target %q", st.Target)
	}
}

func TestParseReplace(t *testing.T) {
	st, err := Parse(`replace //person/name with <name>Anon</name>`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != Replace || st.Target.String() != "//person/name" || len(st.Forest) != 1 {
		t.Fatalf("%+v", st)
	}
	if _, err := Parse(`replace //a`); err == nil {
		t.Fatal("replace without with accepted")
	}
}

func TestExpandReplace(t *testing.T) {
	d := mustDoc(t, `<r><p><name>A</name></p><p><name>B</name></p></r>`)
	st := MustParse(`replace //name with <name>X</name>`)
	del, ins, err := ExpandReplace(d, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(del.Deletes) != 2 || len(ins.Inserts) != 2 {
		t.Fatalf("del=%d ins=%d", len(del.Deletes), len(ins.Inserts))
	}
	if ins.Inserts[0].Target.Label() != "p" {
		t.Fatalf("insert target %q", ins.Inserts[0].Target.Label())
	}
	if _, err := ComputePUL(d, st); err == nil {
		t.Fatal("ComputePUL must reject replace")
	}
	if _, _, err := ExpandReplace(d, MustParse(`delete //name`)); err == nil {
		t.Fatal("ExpandReplace must reject non-replace")
	}
}
