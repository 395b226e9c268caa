package core

import "testing"

// BenchmarkExchangeStep times one whole exchange on the caller's thread —
// T.A5 → T1 → T2 → T3 — on the wide model's 1.32M parameters over the
// in-process client, with the update thread live. Steps run back to back,
// so each T.A5 waits out the previous push: one op is the push plus T1 plus
// T2, the exchange's share of an iteration when T4+T5 hides nothing. Wg and
// the replica start equal (zeros), so every increment is zero and the
// values never drift.
func BenchmarkExchangeStep(b *testing.B) {
	bufs := benchBuffers(b)
	ex := newExchange(bufs, DefaultElasticConfig(), StopIndependently, 1, 0, nil)
	defer ex.shutdown(nil)
	weights := make([]float32, bufs.Elems())
	if err := ex.start(weights); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ex.step(weights); err != nil {
			b.Fatal(err)
		}
	}
}
