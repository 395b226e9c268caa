package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"shmcaffe/internal/tensor"
)

// Tests for the fused SEASGD math path: FusedWeightStep must be
// bitwise-identical to the two-pass WeightIncrement → ApplyIncrementLocal
// chain it replaced in the worker's T2 block. (The push itself is pinned
// across every client by smb's TestPushEquivalence.)

func fusedVec(n int, seed float32) []float32 {
	v := make([]float32, n)
	x := seed
	for i := range v {
		x = x*1664525 + 1013904223
		v[i] = float32(math.Sin(float64(x))) * 3
	}
	return v
}

func TestFusedWeightStepMatchesUnfused(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 1000} {
		for _, alpha := range []float64{0, 0.125, 0.3, -1.5} {
			local := fusedVec(n, 1)
			global := fusedVec(n, 2)
			wantLocal := append([]float32(nil), local...)
			wantDelta := make([]float32, n)
			if err := WeightIncrement(wantDelta, wantLocal, global, alpha); err != nil {
				t.Fatal(err)
			}
			if err := ApplyIncrementLocal(wantLocal, wantDelta); err != nil {
				t.Fatal(err)
			}

			delta := make([]float32, n)
			if err := FusedWeightStep(delta, local, global, alpha); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if math.Float32bits(delta[i]) != math.Float32bits(wantDelta[i]) ||
					math.Float32bits(local[i]) != math.Float32bits(wantLocal[i]) {
					t.Fatalf("n=%d alpha=%v i=%d: fused (%v,%v) != unfused (%v,%v)",
						n, alpha, i, delta[i], local[i], wantDelta[i], wantLocal[i])
				}
			}
		}
	}
}

func TestFusedWeightStepLengthErrors(t *testing.T) {
	if err := FusedWeightStep(make([]float32, 3), make([]float32, 4), make([]float32, 4), 0.5); !errors.Is(err, ErrConfig) {
		t.Fatalf("short delta: want ErrConfig, got %v", err)
	}
	if err := FusedWeightStep(make([]float32, 4), make([]float32, 4), make([]float32, 3), 0.5); !errors.Is(err, ErrConfig) {
		t.Fatalf("short global: want ErrConfig, got %v", err)
	}
}

// TestElasticExchangeMatchesThreePass pins the fused ElasticExchange against
// the former WeightIncrement → ApplyIncrementLocal → ApplyIncrementGlobal
// chain, bit for bit.
func TestElasticExchangeMatchesThreePass(t *testing.T) {
	const n, alpha = 515, 0.25
	local := fusedVec(n, 3)
	global := fusedVec(n, 4)
	wantLocal := append([]float32(nil), local...)
	wantGlobal := append([]float32(nil), global...)
	scratch := make([]float32, n)
	if err := WeightIncrement(scratch, wantLocal, wantGlobal, alpha); err != nil {
		t.Fatal(err)
	}
	if err := ApplyIncrementLocal(wantLocal, scratch); err != nil {
		t.Fatal(err)
	}
	if err := ApplyIncrementGlobal(wantGlobal, scratch); err != nil {
		t.Fatal(err)
	}

	if err := ElasticExchange(local, global, make([]float32, n), alpha); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if math.Float32bits(local[i]) != math.Float32bits(wantLocal[i]) ||
			math.Float32bits(global[i]) != math.Float32bits(wantGlobal[i]) {
			t.Fatalf("i=%d: fused (%v,%v) != three-pass (%v,%v)",
				i, local[i], global[i], wantLocal[i], wantGlobal[i])
		}
	}
	if err := ElasticExchange(local, global, make([]float32, 1), alpha); !errors.Is(err, ErrConfig) {
		t.Fatalf("short scratch: want ErrConfig, got %v", err)
	}
}

// TestFusedStepAndPushZeroAlloc pins the steady-state exchange: the fused
// T2 math, the engine's per-iteration report + termination check and the
// staged push (LocalClient) allocate nothing per iteration.
// scripts/check.sh tier 2 runs this by name.
func TestFusedStepAndPushZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const n = 4096
	delta := make([]float32, n)
	local := fusedVec(n, 7)
	global := fusedVec(n, 8)
	if a := testing.AllocsPerRun(100, func() {
		if err := FusedWeightStep(delta, local, global, 0.3); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("FusedWeightStep allocates %.1f per op, want 0", a)
	}

	_, bufs := setupPair(t, "fused/alloc")
	for _, liveness := range []time.Duration{0, time.Minute} {
		// A budget the master never reaches: every check runs the whole
		// report → read → observe → evaluate path and says "keep going".
		ex := newExchange(bufs[0], DefaultElasticConfig(), StopOnMaster, math.MaxInt32, liveness, nil)
		iter := int64(0)
		if a := testing.AllocsPerRun(100, func() {
			iter++
			if stop, _, err := ex.finishIteration(iter); err != nil || stop {
				t.Fatalf("finishIteration(%d) = stop %v, err %v", iter, stop, err)
			}
		}); a != 0 {
			t.Errorf("finishIteration (liveness %v) allocates %.1f per op, want 0", liveness, a)
		}
	}

	if _, ok := tensor.Float32View(tensor.Float32Bytes(make([]float32, 16))); !ok {
		t.Skip("no zero-copy fast path on this platform")
	}
	inc := fusedVec(8, 9)
	for i := 0; i < 4; i++ { // warm pools
		if err := bufs[0].PushIncrement(inc); err != nil {
			t.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(100, func() {
		if err := bufs[0].StageIncrement(inc); err != nil {
			t.Fatal(err)
		}
		if err := bufs[0].PushStaged(); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("staged push allocates %.1f per op, want 0", a)
	}
}
