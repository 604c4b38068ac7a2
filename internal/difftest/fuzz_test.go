package difftest

import (
	"fmt"
	"strings"
	"testing"

	"xivm/internal/core"
)

// fuzzConfigs is the subset of the matrix each fuzz input runs: an eager
// engine under each policy, one batch size, and the node-at-a-time
// competitor — enough path diversity per execution to keep the fuzzer's
// throughput useful while still covering every propagation family.
var fuzzConfigs = []Config{
	{Name: "eager-snowcaps", Policy: core.PolicySnowcaps},
	{Name: "eager-leaves", Policy: core.PolicyLeaves},
	{Name: "batch-3", Policy: core.PolicySnowcaps, Batch: 3},
	{Name: "ivma", IVMA: true},
}

// FuzzMaintenance decodes arbitrary bytes into a workload (first byte:
// document seed; each further byte: one vocabulary statement) and checks
// every maintained state against the recompute oracle. The last byte's top
// bit draws the publish axis for the eager engines — every vocabulary
// statement is reachable with it set and with it clear.
func FuzzMaintenance(f *testing.F) {
	f.Add([]byte{1})
	f.Add([]byte{7, 0, 10, 22, 3})
	f.Add([]byte("\x05\x02\x08\x13\x16\x14"))
	f.Add([]byte{9, 19, 2, 22, 24, 5, 12})
	f.Add([]byte{7, 3, 12, 9, 22, 3 + 5*28})
	f.Add([]byte{9, 19, 2, 22, 24, 5, 12 + 5*28})
	// The wide document shape (wideMark, seed 19, 64 persons): an insert
	// takes /site/people past one leaf, deleting catgraph moves its
	// ordinal, the deletes take it back.
	f.Add([]byte{wideMark, 19, 4, 2, 20, 0, 11, 2, 2, 1, 10, 2 + 5*28})
	f.Fuzz(func(t *testing.T, data []byte) {
		w := Decode(data)
		for _, cfg := range fuzzConfigs {
			if cfg.Batch == 0 && !cfg.IVMA && len(data) > 0 && data[len(data)-1] >= 0x80 {
				cfg.Name, cfg.Publish = "published-"+strings.TrimPrefix(cfg.Name, "eager-"), true
			}
			if d := Run(w, cfg); d != nil {
				min, md := Shrink(w, cfg)
				t.Fatalf("%v\nminimal: seed=%d people=%d statements=%q (%v)", d, min.DocSeed, min.People, min.Statements, md)
			}
		}
	})
}

// FuzzBatch explores the batch path the server and recovery run: the first
// byte picks the chunk size, 2 or 3 — sizes at which the planner translates
// chunks of the vocabulary (it translates none of 8) — with its second bit
// the leaves policy, and with its top bit a published document; the rest
// decode as a workload. Every chunk must
// leave each view equal to recompute and the document equal to one that
// applied the chunk's statements one at a time.
func FuzzBatch(f *testing.F) {
	f.Add([]byte{0, 1, 22, 10})
	f.Add([]byte{1, 3, 8, 2, 19, 23, 9})
	f.Add([]byte("\x80\x04\x09\x16\x0c\x01"))
	// A delete, then an insert the planner folds into the same plan: the
	// insert unit must land as the statement would on its own.
	f.Add([]byte{0x80, 1, 11, 8})
	f.Add([]byte{2, 1, 22, 10})
	f.Add([]byte{0x83, 3, 8, 2, 19, 23, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		size := 2 + int(data[0]&1)
		cfg := Config{Name: fmt.Sprintf("batch-%d", size), Policy: core.PolicySnowcaps, Batch: size, Publish: data[0] >= 0x80}
		if data[0]&2 != 0 {
			cfg.Name, cfg.Policy = cfg.Name+"-leaves", core.PolicyLeaves
		}
		if cfg.Publish {
			cfg.Name = "published-" + cfg.Name
		}
		w := Decode(data[1:])
		if d := Run(w, cfg); d != nil {
			min, md := Shrink(w, cfg)
			t.Fatalf("%v\nminimal: seed=%d people=%d statements=%q (%v)", d, min.DocSeed, min.People, min.Statements, md)
		}
	})
}
