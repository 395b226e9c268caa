package core

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"shmcaffe/internal/tensor"
)

// The one-equation-per-pass forms of Eqs. (5)–(7) and the elastic
// distance: the references the fused sweeps are pinned against.

// WeightIncrement computes Eq. (5): delta[i] = α · (local[i] − global[i]).
// delta, local and global must have equal length.
func WeightIncrement(delta, local, global []float32, alpha float64) error {
	if len(delta) != len(local) || len(local) != len(global) {
		return fmt.Errorf("weight increment lengths %d/%d/%d: %w",
			len(delta), len(local), len(global), ErrConfig)
	}
	a := float32(alpha)
	for i := range delta {
		delta[i] = a * (local[i] - global[i])
	}
	return nil
}

// ApplyIncrementLocal computes Eq. (6): local[i] −= delta[i]. The worker
// pulls its replica toward the global weight.
func ApplyIncrementLocal(local, delta []float32) error {
	if len(local) != len(delta) {
		return fmt.Errorf("apply increment lengths %d/%d: %w", len(local), len(delta), ErrConfig)
	}
	for i := range local {
		local[i] -= delta[i]
	}
	return nil
}

// ApplyIncrementGlobal computes Eq. (7): global[i] += delta[i]. In ShmCaffe
// this runs on the SMB server as an Accumulate.
func ApplyIncrementGlobal(global, delta []float32) error {
	if len(global) != len(delta) {
		return fmt.Errorf("apply global lengths %d/%d: %w", len(global), len(delta), ErrConfig)
	}
	for i := range global {
		global[i] += delta[i]
	}
	return nil
}

// CenterDistance returns the squared L2 distance between a replica and the
// global weight — the quantity the elastic penalty ρ/2·‖x−x̃‖² controls,
// which tests use to verify replicas stay tethered.
func CenterDistance(local, global []float32) (float64, error) {
	if len(local) != len(global) {
		return 0, fmt.Errorf("center distance lengths %d/%d: %w", len(local), len(global), ErrConfig)
	}
	var s float64
	for i := range local {
		d := float64(local[i] - global[i])
		s += d * d
	}
	return s, nil
}

func TestWeightIncrementKnown(t *testing.T) {
	local := []float32{2, 4, 6}
	global := []float32{1, 2, 3}
	delta := make([]float32, 3)
	if err := WeightIncrement(delta, local, global, 0.5); err != nil {
		t.Fatal(err)
	}
	want := []float32{0.5, 1, 1.5}
	for i, w := range want {
		if delta[i] != w {
			t.Fatalf("delta[%d] = %v, want %v", i, delta[i], w)
		}
	}
}

func TestIncrementLengthErrors(t *testing.T) {
	if err := WeightIncrement(make([]float32, 2), make([]float32, 3), make([]float32, 3), 0.2); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig, got %v", err)
	}
	if err := ApplyIncrementLocal(make([]float32, 2), make([]float32, 3)); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig, got %v", err)
	}
	if err := ApplyIncrementGlobal(make([]float32, 2), make([]float32, 3)); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig, got %v", err)
	}
	if _, err := CenterDistance(make([]float32, 2), make([]float32, 3)); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig, got %v", err)
	}
}

// TestExchangeConservation: Eqs. (6)+(7) move exactly delta from the local
// replica to the global weight, so local+global is invariant — the paper's
// elastic symmetry (the worker and the center move toward each other by the
// same amount).
func TestExchangeConservation(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 1 + rng.Intn(64)
		alpha := 0.05 + 0.9*rng.Float64()
		local := make([]float32, n)
		global := make([]float32, n)
		scratch := make([]float32, n)
		var sumBefore float64
		for i := range local {
			local[i] = float32(rng.NormFloat64())
			global[i] = float32(rng.NormFloat64())
			sumBefore += float64(local[i]) + float64(global[i])
		}
		if err := ElasticExchange(local, global, scratch, alpha); err != nil {
			return false
		}
		var sumAfter float64
		for i := range local {
			sumAfter += float64(local[i]) + float64(global[i])
		}
		return math.Abs(sumAfter-sumBefore) < 1e-3*(1+math.Abs(sumBefore))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestExchangeContracts: each exchange shrinks the local↔global distance by
// exactly (1−2α)² in squared norm, so for α ∈ (0, 0.5) replicas are pulled
// toward the center — the stability condition of elastic averaging.
func TestExchangeContracts(t *testing.T) {
	rng := tensor.NewRNG(3)
	const n = 32
	alpha := 0.2
	local := make([]float32, n)
	global := make([]float32, n)
	scratch := make([]float32, n)
	for i := range local {
		local[i] = float32(rng.NormFloat64())
		global[i] = float32(rng.NormFloat64())
	}
	before, err := CenterDistance(local, global)
	if err != nil {
		t.Fatal(err)
	}
	if err := ElasticExchange(local, global, scratch, alpha); err != nil {
		t.Fatal(err)
	}
	after, err := CenterDistance(local, global)
	if err != nil {
		t.Fatal(err)
	}
	wantRatio := (1 - 2*alpha) * (1 - 2*alpha)
	gotRatio := after / before
	if math.Abs(gotRatio-wantRatio) > 1e-3 {
		t.Fatalf("distance ratio %v, want %v", gotRatio, wantRatio)
	}
}

func TestElasticConfigValidate(t *testing.T) {
	good := DefaultElasticConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.MovingRate != 0.2 || good.UpdateInterval != 1 {
		t.Fatalf("default config %+v does not match the paper", good)
	}
	for _, bad := range []ElasticConfig{
		{MovingRate: 0, UpdateInterval: 1},
		{MovingRate: 1, UpdateInterval: 1},
		{MovingRate: 0.2, UpdateInterval: 0},
	} {
		if err := bad.Validate(); !errors.Is(err, ErrConfig) {
			t.Fatalf("config %+v: want ErrConfig, got %v", bad, err)
		}
	}
}

func TestTerminationPolicies(t *testing.T) {
	progress := []int64{10, 5, 7}
	tests := []struct {
		name   string
		policy TerminationPolicy
		target int64
		want   bool
	}{
		{"master reached", StopOnMaster, 10, true},
		{"master not reached", StopOnMaster, 11, false},
		{"first reached", StopOnFirst, 8, true},
		{"first not reached", StopOnFirst, 11, false},
		{"average reached (22/3 >= 7)", StopOnAverage, 7, true},
		{"average not reached", StopOnAverage, 8, false},
		{"independent never uses shared state", StopIndependently, 1, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.policy.ShouldStop(progress, tt.target); got != tt.want {
				t.Fatalf("ShouldStop = %v, want %v", got, tt.want)
			}
		})
	}
	if StopOnFirst.ShouldStop(nil, 1) {
		t.Fatal("empty progress must not stop")
	}
}

// TestOutrunsMaster: only a StopOnMaster participant more than a whole
// budget ahead of the live reference is paced.
func TestOutrunsMaster(t *testing.T) {
	deadMaster := []bool{false, true, true}
	tests := []struct {
		name      string
		policy    TerminationPolicy
		completed int64
		progress  []int64
		alive     []bool
		want      bool
	}{
		{"a budget ahead", StopOnMaster, 50, []int64{10, 50, 7}, nil, false},
		{"past a budget ahead", StopOnMaster, 51, []int64{10, 51, 7}, nil, true},
		{"the master itself", StopOnMaster, 51, []int64{51, 0, 0}, nil, false},
		{"re-elected reference", StopOnMaster, 51, []int64{0, 10, 51}, deadMaster, true},
		{"within a budget of the re-elected reference", StopOnMaster, 50, []int64{0, 10, 50}, deadMaster, false},
		{"nobody alive", StopOnMaster, 51, []int64{0, 0}, []bool{false, false}, false},
		{"first never paces", StopOnFirst, 51, []int64{0, 51, 0}, nil, false},
		{"average never paces", StopOnAverage, 51, []int64{0, 51, 0}, nil, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.policy.outrunsMaster(tt.completed, tt.progress, tt.alive, 40); got != tt.want {
				t.Fatalf("outrunsMaster = %v, want %v", got, tt.want)
			}
		})
	}
}

// TestTerminationValidateAndString walks the whole iota range, so a policy
// constant missing from Validate's or String's switch fails here; the
// values just outside the range must stay invalid, so a constant appended
// after StopIndependently has to extend this range to validate at all.
func TestTerminationValidateAndString(t *testing.T) {
	for p := StopOnMaster; p <= StopIndependently; p++ {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		if s := p.String(); s == fmt.Sprintf("TerminationPolicy(%d)", int(p)) {
			t.Fatalf("policy %d has no String arm", int(p))
		}
	}
	for _, p := range []TerminationPolicy{StopOnMaster - 1, StopIndependently + 1, 99} {
		if err := p.Validate(); !errors.Is(err, ErrConfig) {
			t.Fatalf("policy %d: expected ErrConfig, got %v", int(p), err)
		}
	}
}
