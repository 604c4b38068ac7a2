package xmltree_test

import (
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"xivm/internal/dewey"
	"xivm/internal/qvm"
	"xivm/internal/xmltree"
	"xivm/internal/xpath"
)

// TestRefusedLabelsSurvive: a node whose label the full label table refused
// keeps it everywhere a label is read — Label, the label index, Serialize,
// compiled and interpreted queries — from the forest it is parsed into,
// through Clone and insertion, to the epochs it is published in and the
// copies a later mutation makes of it. Filling the table is for good, so the
// test runs in a child process of the test binary, where no sibling test
// meets the full table.
func TestRefusedLabelsSurvive(t *testing.T) {
	const env = "XMLTREE_TEST_FULL_LABEL_TABLE"
	if os.Getenv(env) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestRefusedLabelsSurvive$", "-test.count=1")
		cmd.Env = append(os.Environ(), env+"=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("child process: %v\n%s", err, out)
		}
		return
	}

	d, err := xmltree.ParseString(`<site><people><person id="p1"><name>x</name></person></people></site>`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; dewey.Code(fmt.Sprintf("filler%d", i)) != 0; i++ {
	}
	const fresh, attr = "fresh", "@fresh-attr"
	if dewey.Code(fresh) != 0 {
		t.Fatalf("fixture: %q was coded before the table filled", fresh)
	}
	_, refused := dewey.LabelStats()
	forest, err := xmltree.ParseForest(`<fresh fresh-attr="v"><fresh>t</fresh></fresh>`)
	if err != nil {
		t.Fatal(err)
	}
	if _, now := dewey.LabelStats(); now != refused+3 {
		t.Fatalf("LabelStats counted %d refusals before parsing three refused labels and %d after", refused, now)
	}
	clone := forest[0].Clone()
	labelsOf := func(what string, n *xmltree.Node) {
		t.Helper()
		if n.Label() != fresh || n.Children[0].Label() != attr || n.Children[1].Label() != fresh {
			t.Fatalf("%s: labels %q, %q, %q; want %q, %q, %q",
				what, n.Label(), n.Children[0].Label(), n.Children[1].Label(), fresh, attr, fresh)
		}
	}
	labelsOf("parsed forest", forest[0])
	labelsOf("clone", clone)

	people := d.Root.Children[0]
	copies, _, err := d.ApplyInsertions([]xmltree.Insertion{{Target: people, Trees: []*xmltree.Node{forest[0], clone}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range copies {
		labelsOf("inserted copy", c)
	}
	want := `<site><people><person id="p1"><name>x</name></person>` +
		strings.Repeat(`<fresh fresh-attr="v"><fresh>t</fresh></fresh>`, 2) + `</people></site>`
	check := func(what string, doc *xmltree.Document, freshNodes int) {
		t.Helper()
		var b strings.Builder
		if err := doc.Serialize(&b); err != nil || b.String() != want {
			t.Fatalf("%s: Serialize = %q, %v; want %q", what, b.String(), err, want)
		}
		if got := doc.Labeled(fresh); len(got) != freshNodes {
			t.Fatalf("%s: Labeled(%q) holds %d nodes, want %d", what, fresh, len(got), freshNodes)
		}
		for _, n := range doc.Labeled(fresh) {
			if n.Label() != fresh || doc.NodeByID(n.ID) != n {
				t.Fatalf("%s: Labeled(%q) holds %v, labeled %q", what, fresh, n.ID, n.Label())
			}
		}
		if got := doc.Labeled(attr); len(got) != 2 || got[0].Label() != attr {
			t.Fatalf("%s: Labeled(%q) holds %d nodes", what, attr, len(got))
		}
		for _, q := range []string{"//fresh", "//@fresh-attr", "/site/people/fresh/fresh", "//fresh[@fresh-attr='v']/fresh"} {
			prog, err := qvm.CompileString(q)
			if err != nil {
				t.Fatal(err)
			}
			got, oracle := prog.Eval(doc), xpath.Eval(doc, xpath.MustParse(q))
			if len(got) == 0 || len(got) != len(oracle) {
				t.Fatalf("%s: %s: compiled %d nodes, interpreted %d", what, q, len(got), len(oracle))
			}
			for i := range got {
				if got[i] != oracle[i] {
					t.Fatalf("%s: %s: compiled and interpreted differ at %d: %v vs %v", what, q, i, got[i].ID, oracle[i].ID)
				}
			}
		}
	}
	check("writer", d, 4)
	epoch := d.Snapshot()
	check("epoch", epoch, 4)
	// A mutation under a published refused-label node copies it (own): the
	// copy must keep the label, and the epoch its own tree.
	inner := d.Labeled(fresh)[1]
	if _, err := d.ApplyDelete(inner.Children[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyInsert(inner, xmltree.NewNode(xmltree.Text, xmltree.TextLabel, "t")); err != nil {
		t.Fatal(err)
	}
	check("writer after a published mutation", d, 4)
	check("epoch after a later mutation", epoch, 4)
	if d.Labeled(fresh)[0] == epoch.Labeled(fresh)[0] {
		t.Fatal("the mutated spine was not copied")
	}
}
