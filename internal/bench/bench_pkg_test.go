package bench

import (
	"strings"
	"testing"
)

// Tiny documents keep these smoke tests fast; the figures' real runs are
// cmd/xivmbench's.
const tiny = 30 << 10

func TestRunBreakdown(t *testing.T) {
	for _, insert := range []bool{true, false} {
		rows := RunBreakdown("Q1", insert, tiny)
		if len(rows) != 5 {
			t.Fatalf("rows %d", len(rows))
		}
		for _, r := range rows {
			if r.Timings.Total() <= 0 {
				t.Fatalf("no timing for %s", r.Update)
			}
		}
	}
}

func TestRunAllPairs(t *testing.T) {
	rows := RunAllPairs(true, tiny)
	if len(rows) != 35 {
		t.Fatalf("expected 35 pairs, got %d", len(rows))
	}
}

func TestRunPathDepth(t *testing.T) {
	rows := RunPathDepth(tiny)
	if len(rows) != 3 {
		t.Fatalf("rows %d", len(rows))
	}
}

func TestRunAnnotations(t *testing.T) {
	rows := RunAnnotations(tiny)
	if len(rows) != 5 {
		t.Fatalf("rows %d", len(rows))
	}
}

func TestRunScalability(t *testing.T) {
	rows := RunScalability([]int{tiny, 2 * tiny}, true)
	if len(rows) != 2 || rows[0].Bytes != tiny {
		t.Fatalf("rows %+v", rows)
	}
}

func TestRunVsFull(t *testing.T) {
	rows := RunVsFull(false, tiny)
	if len(rows) != 15 {
		t.Fatalf("rows %d", len(rows))
	}
}

func TestRunVsIVMA(t *testing.T) {
	rows := RunVsIVMA(tiny)
	if len(rows) != 5 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if r.IVMA <= 0 || r.Bulk <= 0 {
			t.Fatalf("missing timing: %+v", r)
		}
	}
}

func TestRunSnowcaps(t *testing.T) {
	rows := RunSnowcapsVsLeaves("Q4", []int{tiny})
	if len(rows) != 1 || rows[0].Snowcaps <= 0 || rows[0].Leaves <= 0 {
		t.Fatalf("rows %+v", rows)
	}
	split := RunSnowcapSplit("Q6", []int{tiny})
	if len(split) != 1 || split[0].SnowEval <= 0 {
		t.Fatalf("split %+v", split)
	}
}

func TestRunRules(t *testing.T) {
	for _, rule := range []string{"O1", "O3", "I5"} {
		rows := RunRule(rule, []int{20, 100}, tiny)
		if len(rows) != 2 {
			t.Fatalf("%s rows %d", rule, len(rows))
		}
		for _, r := range rows {
			if r.Optimized <= 0 || r.Unoptimize <= 0 {
				t.Fatalf("%s missing timing: %+v", rule, r)
			}
		}
	}
}

func TestRunAblations(t *testing.T) {
	if rows := RunPruningAblation(tiny); len(rows) != 5 {
		t.Fatalf("pruning rows %d", len(rows))
	}
	if rows := RunJoinAblation(tiny); len(rows) != 3 {
		t.Fatalf("join rows %d", len(rows))
	}
	if rows := RunLazyAblation(tiny); len(rows) != 1 || rows[0].Lazy <= 0 {
		t.Fatalf("lazy rows %+v", rows)
	}
	if rows := RunHolisticAblation(tiny); len(rows) != 7 {
		t.Fatalf("holistic rows %d", len(rows))
	}
}

func TestPrinters(t *testing.T) {
	var sb strings.Builder
	PrintBreakdown(&sb, "fig18", RunBreakdown("Q1", true, tiny))
	PrintDepth(&sb, "fig22", RunPathDepth(tiny))
	PrintVsIVMA(&sb, "fig28", RunVsIVMA(tiny))
	PrintRule(&sb, "fig33", RunRule("O1", []int{20}, tiny))
	out := sb.String()
	for _, want := range []string{"fig18", "fig22", "fig28", "fig33", "speedup", "lattice="} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}
