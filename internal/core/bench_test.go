package core

import "testing"

// benchFcCLR times one full fcCLR run per iteration on a freshly built
// instance, so no iteration inherits the previous one's warm metric cache.
// Building the instance stays outside the timer.
func benchFcCLR(b *testing.B, cfg RunConfig) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		inst := synInstance(20, 7)
		b.StartTimer()
		if _, err := FcCLR(inst, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeltaEvalOn measures a full fcCLR run with incremental delta
// evaluation (the default production path).
func BenchmarkDeltaEvalOn(b *testing.B) {
	benchFcCLR(b, RunConfig{Pop: 32, Gens: 12, Seed: 7, Workers: 1})
}

// BenchmarkDeltaEvalOff is the same run with every offspring evaluated
// from scratch — the pre-delta baseline.
func BenchmarkDeltaEvalOff(b *testing.B) {
	benchFcCLR(b, RunConfig{Pop: 32, Gens: 12, Seed: 7, Workers: 1, DisableDelta: true})
}
