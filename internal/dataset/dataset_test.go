package dataset

import (
	"errors"
	"testing"
	"testing/quick"
)

func gaussCfg(seed uint64) GaussianConfig {
	return GaussianConfig{
		Classes:  4,
		PerClass: 25,
		Shape:    []int{8},
		Noise:    0.1,
		Seed:     seed,
	}
}

func TestNewGaussianBasics(t *testing.T) {
	ds, err := NewGaussian(gaussCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 100 {
		t.Fatalf("Len = %d, want 100", ds.Len())
	}
	if ds.NumClasses() != 4 {
		t.Fatalf("NumClasses = %d", ds.NumClasses())
	}
	counts := make([]int, 4)
	x := make([]float32, 8)
	for i := 0; i < ds.Len(); i++ {
		counts[ds.Sample(i, x)]++
	}
	for c, n := range counts {
		if n != 25 {
			t.Fatalf("class %d has %d samples, want 25", c, n)
		}
	}
}

func TestNewGaussianDeterministic(t *testing.T) {
	a, _ := NewGaussian(gaussCfg(9))
	b, _ := NewGaussian(gaussCfg(9))
	xa := make([]float32, 8)
	xb := make([]float32, 8)
	for i := 0; i < a.Len(); i++ {
		la := a.Sample(i, xa)
		lb := b.Sample(i, xb)
		if la != lb {
			t.Fatal("labels differ between same-seed corpora")
		}
		for j := range xa {
			if xa[j] != xb[j] {
				t.Fatal("features differ between same-seed corpora")
			}
		}
	}
}

func TestNewGaussianErrors(t *testing.T) {
	cfg := gaussCfg(1)
	cfg.Classes = 1
	if _, err := NewGaussian(cfg); err == nil {
		t.Fatal("expected error for 1 class")
	}
	cfg = gaussCfg(1)
	cfg.PerClass = 0
	if _, err := NewGaussian(cfg); err == nil {
		t.Fatal("expected error for 0 per class")
	}
}

func TestNewGaussianImbalance(t *testing.T) {
	cfg := gaussCfg(2)
	cfg.Imbalance = 0.5
	ds, err := NewGaussian(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() <= 100 {
		t.Fatalf("imbalanced corpus should exceed 100 samples, got %d", ds.Len())
	}
}

func TestPatternImages(t *testing.T) {
	ds, err := NewPatternImages(3, 10, 1, 8, 0.05, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 30 {
		t.Fatalf("Len = %d", ds.Len())
	}
	shape := ds.SampleShape()
	if len(shape) != 3 || shape[0] != 1 || shape[1] != 8 {
		t.Fatalf("shape %v", shape)
	}
	if _, err := NewPatternImages(1, 10, 1, 8, 0, 1); err == nil {
		t.Fatal("expected error for 1 class")
	}
}

func TestInMemoryValidation(t *testing.T) {
	if _, err := NewInMemory([]int{2}, 2, [][]float32{{1, 2}}, []int{0, 1}); err == nil {
		t.Fatal("expected error for label/sample count mismatch")
	}
	if _, err := NewInMemory([]int{2}, 2, [][]float32{{1}}, []int{0}); err == nil {
		t.Fatal("expected error for wrong feature count")
	}
	if _, err := NewInMemory([]int{2}, 2, [][]float32{{1, 2}}, []int{5}); err == nil {
		t.Fatal("expected error for out-of-range label")
	}
}

// TestShardPartition: shards cover the dataset exactly once with no overlap.
func TestShardPartition(t *testing.T) {
	ds, _ := NewGaussian(gaussCfg(3))
	const n = 7
	seen := make(map[string]int)
	x := make([]float32, 8)
	total := 0
	for rank := 0; rank < n; rank++ {
		sh, err := NewShard(ds, rank, n)
		if err != nil {
			t.Fatal(err)
		}
		total += sh.Len()
		for i := 0; i < sh.Len(); i++ {
			sh.Sample(i, x)
			key := fingerprint(x)
			seen[key]++
		}
	}
	if total != ds.Len() {
		t.Fatalf("shards cover %d of %d samples", total, ds.Len())
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("sample %s appears %d times across shards", k, c)
		}
	}
}

func fingerprint(x []float32) string {
	b := make([]byte, 0, len(x)*4)
	for _, v := range x {
		b = append(b, byte(int32(v*1e4)), byte(int32(v*1e4)>>8), byte(int32(v*1e4)>>16), byte(int32(v*1e4)>>24))
	}
	return string(b)
}

func TestShardErrors(t *testing.T) {
	ds, _ := NewGaussian(gaussCfg(3))
	if _, err := NewShard(ds, 3, 3); err == nil {
		t.Fatal("expected error for rank == n")
	}
	if _, err := NewShard(ds, -1, 3); err == nil {
		t.Fatal("expected error for negative rank")
	}
}

// Property: for any (rank count, dataset size), shard lengths sum to the
// dataset length and differ by at most one.
func TestShardLengthProperty(t *testing.T) {
	ds, _ := NewGaussian(gaussCfg(5))
	f := func(nRaw uint8) bool {
		n := int(nRaw)%16 + 1
		sum, minL, maxL := 0, ds.Len(), 0
		for rank := 0; rank < n; rank++ {
			sh, err := NewShard(ds, rank, n)
			if err != nil {
				return false
			}
			sum += sh.Len()
			if sh.Len() < minL {
				minL = sh.Len()
			}
			if sh.Len() > maxL {
				maxL = sh.Len()
			}
		}
		return sum == ds.Len() && maxL-minL <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSplit(t *testing.T) {
	ds, _ := NewGaussian(gaussCfg(6))
	train, val, err := Split(ds, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() != 80 || val.Len() != 20 {
		t.Fatalf("split %d/%d, want 80/20", train.Len(), val.Len())
	}
	if _, _, err := Split(ds, 0); err == nil {
		t.Fatal("expected error for fraction 0")
	}
	if _, _, err := Split(ds, 1); err == nil {
		t.Fatal("expected error for fraction 1")
	}
}

func TestLoaderEpochsAndShapes(t *testing.T) {
	ds, _ := NewGaussian(gaussCfg(7))
	l, err := NewLoader(ds, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	if l.BatchesPerEpoch() != 3 {
		t.Fatalf("BatchesPerEpoch = %d, want 3", l.BatchesPerEpoch())
	}
	b := l.Next()
	if b.X.Dim(0) != 32 || b.X.Dim(1) != 8 {
		t.Fatalf("batch shape %v", b.X.Shape())
	}
	if len(b.Labels) != 32 {
		t.Fatalf("labels %d", len(b.Labels))
	}
	// Consume past one epoch: epoch counter advances.
	for i := 0; i < 5; i++ {
		l.Next()
	}
	if l.Epoch() < 1 {
		t.Fatalf("epoch = %d after 6 batches of 32 over 100 samples", l.Epoch())
	}
}

func TestLoaderClampsBatchSize(t *testing.T) {
	ds, _ := NewGaussian(GaussianConfig{Classes: 2, PerClass: 3, Shape: []int{2}, Noise: 0.1, Seed: 1})
	l, err := NewLoader(ds, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := l.Next()
	if b.X.Dim(0) != 6 {
		t.Fatalf("clamped batch = %d, want 6", b.X.Dim(0))
	}
}

func TestLoaderErrors(t *testing.T) {
	ds, _ := NewGaussian(gaussCfg(8))
	if _, err := NewLoader(ds, 0, 1); err == nil {
		t.Fatal("expected error for batch size 0")
	}
	empty := &InMemory{shape: []int{1}, classes: 2}
	if _, err := NewLoader(empty, 4, 1); !errors.Is(err, ErrEmpty) {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
}
