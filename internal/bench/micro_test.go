package bench

import "testing"

// Benchmark wrappers over the micro suite so `go test -bench Micro` measures
// exactly what `xivmbench -json` reports. All report allocations: the
// engine's hot paths are supposed to stay allocation-lean, and CI runs these
// with -benchtime=1x as a bit-rot smoke.

func BenchmarkMicroStructuralJoin(b *testing.B) {
	b.ReportAllocs()
	MicroStructuralJoin(b, SmallBytes)
}

func BenchmarkMicroDupElim(b *testing.B) {
	b.ReportAllocs()
	MicroDupElim(b, SmallBytes)
}

func BenchmarkMicroWordItems(b *testing.B) {
	b.ReportAllocs()
	MicroWordItems(b, SmallBytes)
}

func BenchmarkMicroApplyStatement(b *testing.B) {
	b.ReportAllocs()
	MicroApplyStatement(b, SmallBytes)
}

func BenchmarkMicroRecoverEager(b *testing.B) {
	b.ReportAllocs()
	MicroRecoverEager(b, SmallBytes)
}
