package main

import (
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"

	"xivm/internal/core"
	"xivm/internal/pattern"
	"xivm/internal/update"
	"xivm/internal/xmltree"
)

// Twelve rounds of identical work, five of them slowed 2×: the quiet half
// must recover the clean median within 3%.
func TestQuietHalfRecoversCleanMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const clean = 10.0
	slowed := map[int]bool{0: true, 3: true, 5: true, 8: true, 10: true}
	var rounds []round
	for i := 0; i < 12; i++ {
		factor := 1.0
		if slowed[i] {
			factor = 2
		}
		var rd round
		for j := 0; j < 40; j++ {
			ms := clean * factor * (1 + 0.05*rng.NormFloat64())
			rd.samples = append(rd.samples, sample{class: "insert", ms: ms})
			rd.wallS += ms / 1e3
		}
		rounds = append(rounds, rd)
	}
	got := p50(pooled(quietHalf(rounds), "insert"))
	if math.Abs(got-clean)/clean > 0.03 {
		t.Errorf("quiet-half p50 = %.3f, want %.1f within 3%%", got, clean)
	}
	all := percentile(latencies(pooled(rounds)), 0.5)
	if math.Abs(all-clean)/clean < 0.03 {
		t.Errorf("the plain pooled p50 (%.3f) was not disturbed: the test proves nothing", all)
	}
	if r := rate(quietHalf(rounds)); math.Abs(r-1e3/clean)/(1e3/clean) > 0.03 {
		t.Errorf("quiet-half rate = %.2f ops/s, want %.2f within 3%%", r, 1e3/clean)
	}
}

func TestQuietSingles(t *testing.T) {
	// Fastest half of {1,2,3,50}: {1,2}, median 1.5; of five: three kept.
	if got := quietSingles([]float64{50, 3, 1, 2}); got != 1.5 {
		t.Errorf("quietSingles of four = %v, want 1.5", got)
	}
	if got := quietSingles([]float64{9, 1, 8, 2, 3}); got != 2 {
		t.Errorf("quietSingles of five = %v, want 2", got)
	}
}

// The percentile helper at the sample floors the metrics rely on: p90 of
// 100 samples leaves ten beyond it, p90 of ten leaves one, one sample is
// every percentile.
func TestPercentileAtFloors(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		rand.New(rand.NewSource(2)).Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
	}{
		{100, 0.9, 90}, {100, 0.5, 50}, {100, 0.99, 99}, {10, 0.9, 9}, {10, 0.5, 5}, {1, 0.9, 1}, {3, 0.5, 2}, {2, 0.5, 1},
	} {
		if got := percentile(seq(c.n), c.q); got != c.want {
			t.Errorf("percentile(1..%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a, err := genInputs(7, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := genInputs(7, 32<<10)
	c, _ := genInputs(8, 32<<10)
	if a.streamHash() != b.streamHash() {
		t.Error("same seed, different op-stream hash")
	}
	if a.streamHash() == c.streamHash() {
		t.Error("different seeds, same op-stream hash")
	}
	// Windows of ten pairs hold the same (family, class) mix, and all
	// statements of one family and class have one length.
	length := map[string]int{}
	for k, p := range a.pairs {
		if p.family != famPattern[k%10] || p.class != pathClasses[k%5].name {
			t.Fatalf("pair %d is %s/%s", k, p.family, p.class)
		}
		key := p.family + "/" + p.class
		if n, ok := length[key]; ok && n != len(p.insert)+len(p.delete) {
			t.Errorf("pair %d (%s): statement bytes differ within the combination", k, key)
		}
		length[key] = len(p.insert) + len(p.delete)
	}
	if len(a.pairs) != pairPeriod {
		t.Errorf("%d pairs, want %d", len(a.pairs), pairPeriod)
	}
}

// Every pair cancels on an in-memory engine: after all of them the document
// and all seven views are byte-identical to the start, and every statement
// addressed exactly one node.
func TestPairsCancel(t *testing.T) {
	in, err := genInputs(3, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xmltree.ParseString(in.doc)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New(doc)
	for _, v := range benchViews() {
		if _, err := eng.AddView(v.Name, pattern.MustParse(v.Pattern)); err != nil {
			t.Fatal(err)
		}
	}
	state := func() string {
		s := eng.Doc.String()
		for _, mv := range eng.Views {
			rows, _ := json.Marshal(mv.View.Rows())
			s += "\n" + mv.Name + string(rows)
		}
		return s
	}
	before := state()
	moved := map[string]bool{}
	for _, p := range in.pairs {
		for _, src := range []string{p.insert, p.delete} {
			rep, err := eng.ApplyStatement(update.MustParse(src))
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			if rep.Targets != 1 {
				t.Fatalf("%s: %d targets, want 1", src, rep.Targets)
			}
			for _, vr := range rep.Views {
				if vr.RowsAdded+vr.RowsRemoved > 0 {
					moved[p.family+":"+vr.View.Name] = true
				}
			}
		}
	}
	if state() != before {
		t.Error("document or views differ after all pairs cancelled")
	}
	var got []string
	for k := range moved {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{"bidder:Q2", "bidder:R2", "bidder:R3", "bidder:R5", "name:Q1", "name:R1"}
	if len(got) != len(want) {
		t.Fatalf("families moved views %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("families moved views %v, want %v", got, want)
		}
	}
}

// The read stream never hands the rewrite class a string it used within the
// last 128 rewrite reads, nor one the hot class repeats.
func TestRewritePoolDefeatsTheResultCache(t *testing.T) {
	hot := map[string]bool{}
	for _, q := range hotCorpus {
		hot[q] = true
	}
	var rs readStream
	lastSeen := map[string]int{}
	n := 0
	for i := 0; i < 4*len(readClasses)*rewritePool; i++ {
		op := rs.next()
		if op.class != classRewrite {
			continue
		}
		if hot[op.query] {
			t.Fatalf("rewrite query %q is also a hot query", op.query)
		}
		if at, ok := lastSeen[op.query]; ok && n-at <= 128+len(hotCorpus) {
			t.Fatalf("rewrite query %q repeats after %d reads", op.query, n-at)
		}
		lastSeen[op.query] = n
		n++
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json repeats what the code fixes: workloads and the gated list.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, code has %q", i, b.Workloads[i].Name, w.name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(b.EndToEnd), len(endToEnd))
	}
	for i, g := range endToEnd {
		e := b.EndToEnd[i]
		if e.Name != g.name || e.Unit != g.unit || e.Better != g.better || e.Bound != g.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, code has %+v", i, e, g)
		}
	}
	// The pruned wall-clock metrics keep their names on the ungated list.
	for _, g := range wallClock {
		found := false
		for _, l := range b.PerLayer {
			found = found || (l.Name == g.name && l.Unit == g.unit && l.Better == g.better)
		}
		if !found {
			t.Errorf("diagnostic %s is not on BENCHMARK.json's per_layer list with its unit and direction", g.name)
		}
	}
}

// The smoke: each workload at tiny counts, two rounds a phase, must emit
// every listed metric with its unit and fail no op, untraced and traced.
func TestQuickSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	check := func(name string, got map[string]metric, want map[string]string) {
		for metricName, unit := range want {
			m, ok := got[metricName]
			switch {
			case !ok:
				t.Errorf("%s: metric %s not emitted", name, metricName)
			case m.Unit != unit:
				t.Errorf("%s: metric %s has unit %q, want %q", name, metricName, m.Unit, unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s: metric %s is %v", name, metricName, m.Value)
			}
		}
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics emitted, %d listed", name, len(got), len(want))
		}
	}
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layers[m.Name] = m.Unit
	}
	scratch := t.TempDir()
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			name, want := wl.name, e2e
			if traced {
				name, want = "traced "+wl.name, layers
			}
			rep, err := runWorkload(io.Discard, wl.quick(), 1, 0, traced, scratch)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if rep.Failed != 0 || !rep.Correct || rep.Attempted == 0 {
				t.Errorf("%s: %d of %d ops failed", name, rep.Failed, rep.Attempted)
			}
			check(name, rep.Metrics, want)
			// The gated metrics, and the wall-clock diagnostics that ride
			// with the traced report, are never zero.
			for _, g := range append(append([]listed(nil), endToEnd...), wallClock...) {
				if m, ok := rep.Metrics[g.name]; ok && m.Value <= 0 {
					t.Errorf("%s: metric %s is %v, must be positive", name, g.name, m.Value)
				}
			}
		}
		if _, err := os.Stat(scratch + "/trace-" + wl.name + ".json"); err != nil {
			t.Errorf("trace file: %v", err)
		}
	}
}
