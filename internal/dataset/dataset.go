// Package dataset provides the training-data substrate: deterministic
// synthetic classification corpora (the stand-in for the ILSVRC-2012 LMDB
// store the paper uses), worker sharding without duplication, and
// minibatch sampling.
package dataset

import (
	"errors"
	"fmt"

	"shmcaffe/internal/tensor"
)

// ErrEmpty is returned for operations on empty datasets.
var ErrEmpty = errors.New("dataset: empty dataset")

// Dataset is a finite collection of labeled feature tensors.
type Dataset interface {
	// Len returns the number of samples.
	Len() int
	// Sample copies sample i's features into x (len = sample volume) and
	// returns its label.
	Sample(i int, x []float32) int
	// SampleShape returns the per-sample feature shape.
	SampleShape() []int
	// NumClasses returns the number of distinct labels.
	NumClasses() int
}

// InMemory is a materialized dataset.
type InMemory struct {
	shape   []int
	classes int
	data    [][]float32
	labels  []int
}

var _ Dataset = (*InMemory)(nil)

// NewInMemory wraps pre-built samples. data[i] must match the shape volume.
func NewInMemory(shape []int, classes int, data [][]float32, labels []int) (*InMemory, error) {
	if len(data) != len(labels) {
		return nil, fmt.Errorf("dataset: %d samples but %d labels", len(data), len(labels))
	}
	vol := volume(shape)
	for i, d := range data {
		if len(d) != vol {
			return nil, fmt.Errorf("dataset: sample %d has %d features, want %d", i, len(d), vol)
		}
		if labels[i] < 0 || labels[i] >= classes {
			return nil, fmt.Errorf("dataset: label %d of sample %d out of range [0,%d)", labels[i], i, classes)
		}
	}
	return &InMemory{
		shape:   append([]int(nil), shape...),
		classes: classes,
		data:    data,
		labels:  labels,
	}, nil
}

// Len implements Dataset.
func (m *InMemory) Len() int { return len(m.data) }

// Sample implements Dataset.
func (m *InMemory) Sample(i int, x []float32) int {
	copy(x, m.data[i])
	return m.labels[i]
}

// SampleShape implements Dataset.
func (m *InMemory) SampleShape() []int { return append([]int(nil), m.shape...) }

// NumClasses implements Dataset.
func (m *InMemory) NumClasses() int { return m.classes }

func volume(shape []int) int {
	v := 1
	for _, d := range shape {
		v *= d
	}
	return v
}

// GaussianConfig parameterizes a Gaussian-cluster synthetic corpus: each
// class has a random center in feature space; samples are center + noise.
type GaussianConfig struct {
	Classes   int
	PerClass  int
	Shape     []int
	Noise     float64 // sample noise std; separation is 1 between centers
	Seed      uint64
	Imbalance float64 // 0 = balanced; 0.5 = class c has (1+0.5·c/C)·PerClass samples
}

// NewGaussian builds the Gaussian-cluster corpus. It is fully deterministic
// in Seed, so every worker regenerating it sees the same data.
func NewGaussian(cfg GaussianConfig) (*InMemory, error) {
	if cfg.Classes < 2 {
		return nil, fmt.Errorf("dataset: need >=2 classes, got %d", cfg.Classes)
	}
	if cfg.PerClass < 1 {
		return nil, fmt.Errorf("dataset: need >=1 sample per class, got %d", cfg.PerClass)
	}
	vol := volume(cfg.Shape)
	if vol < 1 {
		return nil, fmt.Errorf("dataset: empty sample shape %v", cfg.Shape)
	}
	rng := tensor.NewRNG(cfg.Seed)
	centers := make([][]float32, cfg.Classes)
	for c := range centers {
		centers[c] = make([]float32, vol)
		for j := range centers[c] {
			centers[c][j] = float32(rng.NormFloat64())
		}
	}
	var data [][]float32
	var labels []int
	for c := 0; c < cfg.Classes; c++ {
		n := cfg.PerClass
		if cfg.Imbalance > 0 {
			n = int(float64(cfg.PerClass) * (1 + cfg.Imbalance*float64(c)/float64(cfg.Classes)))
		}
		for i := 0; i < n; i++ {
			x := make([]float32, vol)
			for j := range x {
				x[j] = centers[c][j] + float32(cfg.Noise*rng.NormFloat64())
			}
			data = append(data, x)
			labels = append(labels, c)
		}
	}
	// Deterministic shuffle so shards are class-balanced.
	perm := rng.Perm(len(data))
	sd := make([][]float32, len(data))
	sl := make([]int, len(data))
	for i, p := range perm {
		sd[i] = data[p]
		sl[i] = labels[p]
	}
	return NewInMemory(cfg.Shape, cfg.Classes, sd, sl)
}

// NewPatternImages builds a synthetic image corpus where each class is a
// fixed spatial pattern (stripes/checkers of varying frequency) plus noise;
// unlike the Gaussian corpus it requires convolutional features to separate
// well, exercising the CNN path.
func NewPatternImages(classes, perClass, channels, size int, noise float64, seed uint64) (*InMemory, error) {
	if classes < 2 || perClass < 1 || channels < 1 || size < 4 {
		return nil, fmt.Errorf("dataset: bad pattern config (%d,%d,%d,%d)", classes, perClass, channels, size)
	}
	rng := tensor.NewRNG(seed)
	shape := []int{channels, size, size}
	vol := volume(shape)
	var data [][]float32
	var labels []int
	for c := 0; c < classes; c++ {
		freq := c%4 + 1
		diag := c%2 == 0
		for i := 0; i < perClass; i++ {
			x := make([]float32, vol)
			phase := rng.Intn(size)
			for ch := 0; ch < channels; ch++ {
				for y := 0; y < size; y++ {
					for xx := 0; xx < size; xx++ {
						var v float32
						if diag {
							if ((y+xx+phase)/freq)%2 == 0 {
								v = 1
							} else {
								v = -1
							}
						} else {
							if ((y+phase)/freq+xx/freq)%2 == 0 {
								v = 1
							} else {
								v = -1
							}
						}
						x[(ch*size+y)*size+xx] = v + float32(noise*rng.NormFloat64())
					}
				}
			}
			data = append(data, x)
			labels = append(labels, c)
		}
	}
	perm := rng.Perm(len(data))
	sd := make([][]float32, len(data))
	sl := make([]int, len(data))
	for i, p := range perm {
		sd[i] = data[p]
		sl[i] = labels[p]
	}
	return NewInMemory(shape, classes, sd, sl)
}
