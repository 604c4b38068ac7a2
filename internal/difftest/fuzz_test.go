package difftest

import (
	"fmt"
	"testing"
)

// fuzzConfigs is the subset of the matrix each fuzz input runs: one eager
// engine, one deferred batch size, and the node-at-a-time competitor —
// enough path diversity per execution to keep the fuzzer's throughput
// useful while still covering every propagation family.
var fuzzConfigs = []Config{
	{Name: "eager-snowcaps"},
	{Name: "lazy-3", LazyEvery: 3},
	{Name: "ivma", IVMA: true},
}

// FuzzMaintenance decodes arbitrary bytes into a workload (first byte:
// document seed; each further byte: one vocabulary statement) and checks
// every maintained state against the recompute oracle. The last byte's top
// bit draws the publish axis for the eager engine — every vocabulary
// statement is reachable with it set and with it clear.
func FuzzMaintenance(f *testing.F) {
	f.Add([]byte{1})
	f.Add([]byte{7, 0, 10, 22, 3})
	f.Add([]byte("\x05\x02\x08\x13\x16\x14"))
	f.Add([]byte{9, 19, 2, 22, 24, 5, 12})
	f.Add([]byte{7, 3, 12, 9, 22, 3 + 5*28})
	f.Add([]byte{9, 19, 2, 22, 24, 5, 12 + 5*28})
	f.Fuzz(func(t *testing.T, data []byte) {
		w := Decode(data)
		for _, cfg := range fuzzConfigs {
			if cfg.LazyEvery == 0 && !cfg.IVMA && len(data) > 0 && data[len(data)-1] >= 0x80 {
				cfg.Name, cfg.Publish = "published-snowcaps", true
			}
			if d := Run(w, cfg); d != nil {
				min, md := Shrink(w, cfg)
				t.Fatalf("%v\nminimal: seed=%d statements=%q (%v)", d, min.DocSeed, min.Statements, md)
			}
		}
	})
}

// FuzzLazyFlush explores deferred-mode flush cadences: the first byte picks
// how many statements each batch accumulates before flushing, the rest
// decode as a workload. Net-effect flushing must agree with the oracle at
// every cadence, including flush-per-statement and one giant batch.
func FuzzLazyFlush(f *testing.F) {
	f.Add([]byte{0, 1, 22, 10})
	f.Add([]byte{5, 3, 8, 2, 19, 23, 9})
	f.Add([]byte("\x02\x04\x09\x16\x0c\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		every := 1 + int(data[0]%8)
		w := Decode(data[1:])
		cfg := Config{Name: fmt.Sprintf("lazy-%d", every), LazyEvery: every}
		if d := Run(w, cfg); d != nil {
			min, md := Shrink(w, cfg)
			t.Fatalf("%v\nminimal: seed=%d statements=%q (%v)", d, min.DocSeed, min.Statements, md)
		}
	})
}
