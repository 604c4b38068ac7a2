package difftest

import (
	"fmt"
	"slices"
	"testing"

	"xivm/internal/core"
	"xivm/internal/obs"
	"xivm/internal/qvm"
	"xivm/internal/update"
	"xivm/internal/xmark"
	"xivm/internal/xmltree"
	"xivm/internal/xpath"
)

// agreementCorpus is walkCorpus plus the two shapes it lacks: one descendant
// step matching in every section, and string-function predicates.
var agreementCorpus = append(slices.Clip(walkCorpus),
	`//name`,
	`//person[starts-with(@id,'person1')][contains(emailaddress,'example')]`,
)

// TestQueryShapesAgree: every compiled query returns exactly the interpreted
// evaluator's nodes, in order, on the 100 KB XMark document and on epochs of
// it published while random edits path-copied their spines. Each query must
// match something on the fresh document and on some edited epoch, or its
// comparison there says nothing.
func TestQueryShapesAgree(t *testing.T) {
	type query struct {
		src  string
		path xpath.Path
		prog *qvm.Program
	}
	var queries []query
	for _, src := range agreementCorpus {
		p, err := xpath.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		prog, err := qvm.Compile(p)
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		queries = append(queries, query{src, p, prog})
	}
	// agree compares every query on d and returns which ones matched.
	agree := func(label string, d *xmltree.Document) []bool {
		t.Helper()
		matched := make([]bool, len(queries))
		for i, q := range queries {
			want, got := xpath.Eval(d, q.path), q.prog.Eval(d)
			if len(got) != len(want) {
				t.Errorf("%s: %q: compiled %d matches, interpreted %d", label, q.src, len(got), len(want))
				continue
			}
			for j := range got {
				if got[j] != want[j] {
					t.Errorf("%s: %q: match %d is %v compiled, %v interpreted", label, q.src, j, got[j].ID, want[j].ID)
					break
				}
			}
			matched[i] = len(want) > 0
		}
		return matched
	}

	src := xmark.Generate(xmark.Config{TargetBytes: 100 << 10, Seed: 42})
	doc, err := xmltree.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range agree("fresh document", doc) {
		if !ok {
			t.Errorf("%q matches nothing on the fresh document", queries[i].src)
		}
	}

	edited := make([]bool, len(queries))
	for seed := uint64(1); seed <= 3; seed++ {
		doc, err := xmltree.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		e := core.New(doc, core.WithMetrics(obs.New()))
		var epochs []*core.Snapshot
		e.Snapshot()
		w := NewWorkload(seed, maxStatements)
		for _, stmt := range w.Statements {
			_, _ = e.ApplyStatement(update.MustParse(stmt)) // a rejected statement is part of the workload
			epochs = append(epochs, e.Snapshot())
		}
		// Every epoch is read after the later ones were published.
		for _, s := range epochs {
			for i, ok := range agree(fmt.Sprintf("seed %d, epoch %d", seed, s.Version), s.Doc()) {
				edited[i] = edited[i] || ok
			}
		}
	}
	for i, ok := range edited {
		if !ok {
			t.Errorf("%q matches nothing on any edited epoch", queries[i].src)
		}
	}
}
