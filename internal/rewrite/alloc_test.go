package rewrite

import (
	"runtime"
	"testing"
	"unsafe"

	"xivm/internal/algebra"
	"xivm/internal/pattern"
	"xivm/internal/xmark"
	"xivm/internal/xmltree"
	"xivm/internal/xpath"
)

// TestAnswerAllocBudget holds Answer to "allocate the answer, not the
// scans" on the repo benchmark's three plan shapes over its R2–R5 view
// library: a call may allocate no more bytes than PR 17's executor measured
// on this document (132,064 / 174,371 / 111,504 with 112-byte row entries;
// entries are 88 bytes now, so today's figures sit ~15% under). That covers
// planning, the row headers of a non-driving view and the answer itself,
// and leaves no room for per-scanned-row copies at pattern width — which
// cost 692 KB to 1.6 MB before. The budget is absolute because the answer
// is not the whole bill: the intersect shape's 519-row answer comes with
// ~1,500 32-byte headers of the view it probes, so a ratio to the answer
// moves whenever an entry changes size.
func TestAnswerAllocBudget(t *testing.T) {
	d, err := xmltree.ParseString(xmark.Generate(xmark.Config{TargetBytes: 1 << 20, Seed: 2011}))
	if err != nil {
		t.Fatal(err)
	}
	var views []*View
	for _, v := range [][2]string{
		{"R2", `//open_auction{ID}//bidder{ID}`},
		{"R3", `//bidder{ID}//increase{ID,val}`},
		{"R4", `//open_auction{ID}//initial{ID,val}`},
		{"R5", `//open_auction{ID}//increase{ID,val}`},
	} {
		p := pattern.MustParse(v[1])
		views = append(views, &View{Name: v[0], Pattern: p, Rows: RowSlice{algebra.Materialize(d, p)}})
	}
	for _, c := range []struct {
		query, kind string
		budget      int // bytes per call
	}{
		{`//open_auction//increase`, "single", 132064},
		{`//open_auction//bidder//increase`, "stitch", 174371},
		{`//open_auction[bidder]//initial`, "intersect", 111504},
	} {
		path, err := xpath.Parse(c.query)
		if err != nil {
			t.Fatal(err)
		}
		q, err := xpath.ToPattern(path)
		if err != nil {
			t.Fatal(err)
		}
		rows, plan, err := Answer(q, views)
		if err != nil || plan.Kind != c.kind {
			t.Fatalf("%s: plan %v, err %v, want a %s plan", c.query, plan, err, c.kind)
		}
		if !sameRows(rows, algebra.Materialize(d, q)) {
			t.Fatalf("%s: rows differ from direct evaluation", c.query)
		}
		answer := len(rows) * int(unsafe.Sizeof(algebra.Row{})+unsafe.Sizeof(algebra.RowEntry{}))

		const runs = 16
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			_, _, _ = Answer(q, views)
		}
		runtime.ReadMemStats(&after)
		perCall := int(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("%-9s %4d rows: %6d B/call for a %6d B answer (%.2fx)", c.kind, len(rows), perCall, answer, float64(perCall)/float64(answer))
		if perCall > c.budget {
			t.Errorf("%s plan allocates %d B per call, over its %d B budget", c.kind, perCall, c.budget)
		}
	}
}
