package xmltree_test

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"

	"xivm/internal/xmark"
	"xivm/internal/xmltree"
)

// pairLabels are the labels pairBytes' pair touches: its spine's and its
// forest's.
var pairLabels = []string{"site", "open_auctions", "open_auction", "bidder", "date", "increase", xmltree.TextLabel}

// pairBytes returns what a bidder with two text nodes inserted under one
// open_auction of an XMark document of the given size and deleted again, an
// epoch after each, allocates: with every label the pair touches indexed
// (indexed), or none, where patchLabels has nothing to patch and what is
// left is the spine's copy-on-write.
func pairBytes(t *testing.T, size int, indexed bool) int64 {
	t.Helper()
	src := xmark.Generate(xmark.Config{TargetBytes: size, Seed: 1})
	forest, err := xmltree.ParseString(`<bidder><date>03/03/2021</date><increase>3.00</increase></bidder>`)
	if err != nil {
		t.Fatal(err)
	}
	d, err := xmltree.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	var target *xmltree.Node
	xmltree.Walk(d.Root, func(n *xmltree.Node) bool {
		if target == nil && n.Label() == "open_auction" {
			target = n
		}
		return target == nil
	})
	if indexed {
		for _, l := range pairLabels {
			if d.LabeledChunks(l).Len() == 0 {
				t.Fatalf("fixture: no %s", l)
			}
		}
		if texts := d.LabeledChunks(xmltree.TextLabel).Len(); texts < size/50 {
			t.Fatalf("fixture: %d text nodes", texts)
		}
	}
	d.Snapshot()
	pair := func() {
		b, err := d.ApplyInsert(target, forest.Root)
		if err != nil {
			t.Fatal(err)
		}
		d.Snapshot()
		if _, err := d.ApplyDelete(b); err != nil {
			t.Fatal(err)
		}
		d.Snapshot()
	}
	pair() // the spine's child lists get their room
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pair()
	runtime.ReadMemStats(&after)
	if indexed {
		if got := d.LabeledChunks("bidder").Len(); got == 0 || d.Labeled("bidder")[0] != d.NodeByID(d.Labeled("bidder")[0].ID()) {
			t.Fatal("the patched index does not hold the document's own nodes")
		}
	}
	if err := xmltree.CheckKids(d.Root); err != nil {
		t.Fatal(err)
	}
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// labelPatchBytes returns what keeping the label index in step costs
// pairBytes' pair: its bytes with the pair's labels indexed less its bytes
// with none.
func labelPatchBytes(t *testing.T, size int) int64 {
	t.Helper()
	bare, indexed := pairBytes(t, size, false), pairBytes(t, size, true)
	t.Logf("%d KB of XMark, insert + delete + two epochs: %d B without the index, %d B with it", size>>10, bare, indexed)
	return indexed - bare
}

// TestLabelPatchCopiesAPathNotAList holds what keeping the label index in
// step costs a published document of 1 MB whose readers asked for every
// label the pair touches. The #text list alone is 24,770 nodes, 193 KB; the
// index may copy the leaves the mutation lands in and the paths above them,
// in each list it edits and in the run of lists, not a list — ~7.4 KB.
func TestLabelPatchCopiesAPathNotAList(t *testing.T) {
	if cost := labelPatchBytes(t, 1<<20); cost >= 11<<10 {
		t.Errorf("patching the label index allocated %d B for a two-text-node insert and delete, budget 11 KB", cost)
	}
}

// TestLabelPatchDoesNotGrowWithTheDocument: the same pair costs the index
// what it costs at 1 MB on a 4 MB document, within 2 KB — a path is a level
// longer at most. A flat directory of 2 KB chunks made the larger #text
// list alone cost 14 KB more a pair.
func TestLabelPatchDoesNotGrowWithTheDocument(t *testing.T) {
	small, large := labelPatchBytes(t, 1<<20), labelPatchBytes(t, 4<<20)
	if large-small > 2<<10 {
		t.Errorf("the label patch costs %d B at 1 MB and %d B at 4 MB: it grows with the document", small, large)
	}
}

// TestSpineCopyDoesNotGrowWithTheDocument holds pairBytes' pair without
// the index — the spine's copies alone — to 5 KB at 1 MB, and to within
// 1 KB of that at 4 MB. open_auctions has 685 children at 1 MB and 2,774
// at 4 MB; copying its whole child list cost 13.9 KB and 50.7 KB a pair.
// Now a copy takes the parent's slice of branches and one leaf of ≤ 64
// children: 2.9 KB and 3.5 KB, the difference being that slice.
func TestSpineCopyDoesNotGrowWithTheDocument(t *testing.T) {
	small, large := pairBytes(t, 1<<20, false), pairBytes(t, 4<<20, false)
	t.Logf("the spine's copies for an insert + delete pair: %d B at 1 MB, %d B at 4 MB", small, large)
	if small > 5<<10 {
		t.Errorf("the spine's copies cost %d B at 1 MB, budget 5 KB", small)
	}
	if large-small > 1<<10 || small-large > 1<<10 {
		t.Errorf("the spine's copies cost %d B at 1 MB and %d B at 4 MB: they grow with the document", small, large)
	}
}

// parseBytes returns what one call of parse allocates, in bytes and in
// allocations, averaged over runs calls after a warm-up call, which puts
// every label in the label table.
func parseBytes(runs int, parse func()) (bytes int64, allocs float64) {
	parse()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		parse()
	}
	runtime.ReadMemStats(&after)
	n := int64(runs)
	return int64(after.TotalAlloc-before.TotalAlloc) / n, float64(after.Mallocs-before.Mallocs) / float64(n)
}

// TestParseAllocBudget holds a parse of the 1 MB XMark document to 68 B per
// node: ~65 measured after the package's other tests, whose labels leave
// XMark's two-byte codes, ~62 alone (~81 and ~77 with a key string per
// node, ~113 and ~109 with 64-byte nodes as well). What a node must cost is
// its 32 B, its share of its first-child chain's one key string (73,186
// nodes in 34,284 chains), and its share of a child list and of the text;
// encoding/xml's tokens, one string per name and attribute and a growing
// slice per child list, cost 234 B.
//
// It holds the parse's allocations to one per node and per child list, and
// one per 32 nodes for the rest: the values and keys are cut from byte
// slabs (slab.go) and make none of their own. ~112,700 measured for 73,186
// nodes and 38,902 lists; ~180,900 with an allocation per value and key.
func TestParseAllocBudget(t *testing.T) {
	src := xmark.Generate(xmark.Config{TargetBytes: 1 << 20, Seed: 2011})
	var d *xmltree.Document
	total, allocs := parseBytes(3, func() {
		var err error
		if d, err = xmltree.ParseString(src); err != nil {
			t.Fatal(err)
		}
	})
	perNode := float64(total) / float64(d.Size())
	t.Logf("parsing %d bytes into %d nodes allocates %d B in %.0f allocations, %.1f B per node", len(src), d.Size(), total, allocs, perNode)
	if perNode > 68 {
		t.Errorf("a parse allocates %.1f B per node, budget 68", perNode)
	}
	lists := 0
	xmltree.Walk(d.Root, func(n *xmltree.Node) bool {
		if n.NumChildren() > 0 {
			lists++
		}
		return true
	})
	if budget := float64(d.Size()+lists) + float64(d.Size())/32; allocs > budget {
		t.Errorf("a parse makes %.0f allocations for %d nodes and %d child lists, budget %.0f: one per node and list, one per 32 nodes", allocs, d.Size(), lists, budget)
	}
}

// TestParseForestAllocBudget holds the parse of each forest the benchmark
// inserts to 1 KB: encoding/xml's decoder alone cost more than that.
func TestParseForestAllocBudget(t *testing.T) {
	for _, forest := range []string{
		`<bidder><date>03/03/2021</date><increase>3.00</increase><xbench/></bidder>`,
		`<name>Bench Mark<xbench/></name>`,
		`<xnote><xtext>bench</xtext></xnote>`,
	} {
		total, allocs := parseBytes(100, func() {
			if _, err := xmltree.ParseForest(forest); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d B in %.0f allocations", forest, total, allocs)
		if total > 1<<10 {
			t.Errorf("parsing %s allocates %d B, budget 1 KB", forest, total)
		}
	}
}

// TestSplitTextAllocatesItsLength: text that comments, PIs and CDATA
// sections split into 10,000 pieces — in the input and decoded, in every
// order — is one text node, and merging it allocates in proportion to its
// length, as a document and as a forest: ~78 KB. Copying the whole text at
// each merge cost ~390 MB here, and over 10 GB for a 1 MiB update body.
func TestSplitTextAllocatesItsLength(t *testing.T) {
	const cycles = 2000
	cycle, piece := "x<!--c-->&amp;<?p?><![CDATA[y]]>z\r\n<!--c--><![CDATA[w\r]]>", "x&yz\nw\n"
	src := "<a>" + strings.Repeat(cycle, cycles) + "</a>"
	want := strings.Repeat(piece, cycles)
	for _, asForest := range []bool{false, true} {
		var a *xmltree.Node
		total, _ := parseBytes(3, func() {
			if asForest {
				forest, err := xmltree.ParseForest(src)
				if err != nil {
					t.Fatal(err)
				}
				a = forest[0]
				return
			}
			d, err := xmltree.ParseString(src)
			if err != nil {
				t.Fatal(err)
			}
			a = d.Root
		})
		k := a.Kids()
		if a.NumChildren() != 1 || !k.Next() || k.Node().Value() != want {
			t.Fatalf("forest %v: %d children, want one text node of %d bytes", asForest, a.NumChildren(), len(want))
		}
		t.Logf("forest %v: %d B of input, %d B of text: %d B allocated", asForest, len(src), len(want), total)
		if budget := 8 * len(want); total > int64(budget) {
			t.Errorf("forest %v: merging %d B of text allocates %d B, budget %d", asForest, len(want), total, budget)
		}
	}
}

// TestApplyOrdsAllocBudget holds ApplyOrds on the 1 MB XMark document to
// one allocation per 128 nodes: ~240 for 73k nodes, the key slab's chunks.
// Each ordinal is read into one buffer, which the key chain copies; an
// ordinal allocated per node and a key string per chain made ~107k.
func TestApplyOrdsAllocBudget(t *testing.T) {
	d, err := xmltree.ParseString(xmark.Generate(xmark.Config{TargetBytes: 1 << 20, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	ords := d.EncodeOrds()
	allocs := testing.AllocsPerRun(3, func() {
		if err := d.ApplyOrds(ords); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ApplyOrds over %d nodes makes %.0f allocations", d.Size(), allocs)
	if budget := float64(d.Size()) / 128; allocs > budget {
		t.Errorf("ApplyOrds makes %.0f allocations for %d nodes, budget %.0f, one per 128 nodes", allocs, d.Size(), budget)
	}
	if err := xmltree.CheckKids(d.Root); err != nil {
		t.Fatal(err)
	}
}

// liveHeap returns the live heap after a collection.
func liveHeap() int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestSmallDocumentHeapPerNode holds what a parsed 100 KB XMark document
// keeps per node — a small tenant's tree — to 60.5 B, below the 61.2 it
// kept when every value and key was an allocation of its own (64.4 under
// -race): the slack a slab leaves in its last chunks must not cost a small
// document more than the size classes' rounding saves it. ~59.6 B
// measured, with or without -race. A label's code decides its width in every key, and codes are
// handed out in the order labels are first seen, process-wide; so the
// test measures in a child process of the test binary, where XMark's
// labels take the table's first codes whichever tests ran before.
func TestSmallDocumentHeapPerNode(t *testing.T) {
	const env = "XMLTREE_TEST_SMALL_DOCUMENT_HEAP"
	if os.Getenv(env) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestSmallDocumentHeapPerNode$", "-test.count=1", "-test.v")
		cmd.Env = append(os.Environ(), env+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("child process: %v\n%s", err, out)
		}
		for _, l := range strings.Split(string(out), "\n") {
			if _, logged, ok := strings.Cut(l, ": "); ok && strings.Contains(logged, "live heap per node") {
				t.Log("child process: " + logged)
			}
		}
		return
	}
	src := xmark.Generate(xmark.Config{TargetBytes: 100 << 10, Seed: 1})
	if _, err := xmltree.ParseString(src); err != nil { // the labels go into the table first
		t.Fatal(err)
	}
	docs := make([]*xmltree.Document, 8) // eight held at once, so that noise of a few KB counts an eighth
	before := liveHeap()
	for i := range docs {
		var err error
		if docs[i], err = xmltree.ParseString(src); err != nil {
			t.Fatal(err)
		}
	}
	nodes := len(docs) * docs[0].Size()
	perNode := float64(liveHeap()-before) / float64(nodes)
	t.Logf("%d nodes a document, %.1f B of live heap per node", docs[0].Size(), perNode)
	if perNode > 60.5 {
		t.Errorf("a parsed 100 KB document holds %.1f B per node, budget 60.5", perNode)
	}
	runtime.KeepAlive(docs)
	runtime.KeepAlive(src)
}
