package bench

import (
	"encoding/json"
	"io"
	"testing"

	"xivm/internal/algebra"
	"xivm/internal/core"
	"xivm/internal/store"
	"xivm/internal/xmark"
)

// This file defines the hot-path microbenchmarks behind `xivmbench -json`:
// allocation-reporting measurements of the operations the paper's complexity
// analysis puts on the maintenance critical path (structural joins, duplicate
// elimination, canonical-relation access, one end-to-end propagation). The
// same functions back the Benchmark… wrappers in micro_test.go, so `go test
// -bench Micro` and the JSON runner measure identical code.

// MicroResult is one microbenchmark measurement, shaped for BENCH_*.json.
type MicroResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// MicroReport is the machine-readable output of one full micro-suite run.
type MicroReport struct {
	Suite    string        `json:"suite"`
	DocBytes int           `json:"doc_bytes"`
	Results  []MicroResult `json:"results"`
}

// MicroBenchmarks returns the named microbenchmark functions of the suite,
// each parameterized by the generated-document size.
func MicroBenchmarks() []struct {
	Name string
	Fn   func(b *testing.B, docBytes int)
} {
	return []struct {
		Name string
		Fn   func(b *testing.B, docBytes int)
	}{
		{"StructuralJoin", MicroStructuralJoin},
		{"DupElim", MicroDupElim},
		{"WordItems", MicroWordItems},
		{"ApplyStatement", MicroApplyStatement},
		{"RecoverEager", MicroRecoverEager},
	}
}

// RunMicro runs the whole suite via testing.Benchmark and collects results.
func RunMicro(docBytes int) MicroReport {
	rep := MicroReport{Suite: "micro", DocBytes: docBytes}
	for _, mb := range MicroBenchmarks() {
		fn := mb.Fn
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			fn(b, docBytes)
		})
		rep.Results = append(rep.Results, MicroResult{
			Name:        mb.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		})
	}
	return rep
}

// WriteMicroJSON runs the suite and writes the report as indented JSON.
func WriteMicroJSON(w io.Writer, docBytes int) error {
	rep := RunMicro(docBytes)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// MicroStructuralJoin measures the Dewey hash structural join joining every
// person element with its text descendants — the deepest ancestor probe the
// XMark documents offer.
func MicroStructuralJoin(b *testing.B, docBytes int) {
	st := store.New(mustParse(Doc(docBytes)))
	left := algebra.SingleColumn(0, st.Items("person"))
	right := algebra.SingleColumn(1, st.Items("#text"))
	if len(left.Tuples) == 0 || len(right.Tuples) == 0 {
		b.Fatal("bench: empty join inputs")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := algebra.StructuralJoin(left, 0, right, 1, true)
		if len(out.Tuples) == 0 {
			b.Fatal("bench: empty join result")
		}
	}
}

// MicroDupElim measures projection + duplicate elimination (π·δ plus the
// final sort) over the full evaluation of view Q1.
func MicroDupElim(b *testing.B, docBytes int) {
	doc := mustParse(Doc(docBytes))
	st := store.New(doc)
	p := xmark.View("Q1")
	tuples := algebra.EvalPattern(p, st.Inputs(p), algebra.StructuralJoin)
	if len(tuples) == 0 {
		b.Fatal("bench: empty evaluation")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := algebra.ProjectStored(p, tuples, doc)
		if len(rows) == 0 {
			b.Fatal("bench: empty projection")
		}
	}
}

// MicroWordItems measures Store.Items for a word label ("~gold" is always
// present in generated documents).
func MicroWordItems(b *testing.B, docBytes int) {
	st := store.New(mustParse(Doc(docBytes)))
	if len(st.Items("~gold")) == 0 {
		b.Fatal("bench: no items for ~gold")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(st.Items("~gold")) == 0 {
			b.Fatal("bench: no items for ~gold")
		}
	}
}

// MicroApplyStatement measures one end-to-end insert propagation (view Q1,
// its first update class), rebuilding the engine outside the timed region.
func MicroApplyStatement(b *testing.B, docBytes int) {
	src := Doc(docBytes)
	u := xmark.UpdateByName(xmark.ViewUpdates("Q1")[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, _ := engineWith(src, "Q1", core.Options{})
		st := u.InsertStatement()
		b.StartTimer()
		if _, err := e.ApplyStatement(st); err != nil {
			b.Fatal(err)
		}
	}
}
