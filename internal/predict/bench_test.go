package predict

import "testing"

// BenchmarkTrain times one DefaultConfig forest over the tiny grid's
// runtime dataset (165 rows × 32 features): the training a cold
// /v1/predict pays, at a CI-sized input.
func BenchmarkTrain(b *testing.B) {
	ds := tinyGrid(b)
	cfg := DefaultConfig()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Train(ds, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
