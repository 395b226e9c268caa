package dataset

import (
	"fmt"

	"shmcaffe/internal/tensor"
)

// Batch is one minibatch: features in batch-first layout plus labels.
type Batch struct {
	X      *tensor.Tensor
	Labels []int
}

// Loader draws shuffled minibatches from a dataset, reshuffling every epoch.
type Loader struct {
	ds        Dataset
	batchSize int
	rng       *tensor.RNG
	order     []int
	cursor    int
	epoch     int
	sampleVol int
}

// NewLoader returns a loader producing batchSize-sample minibatches.
func NewLoader(ds Dataset, batchSize int, seed uint64) (*Loader, error) {
	if ds.Len() == 0 {
		return nil, ErrEmpty
	}
	if batchSize < 1 {
		return nil, fmt.Errorf("dataset: batch size %d < 1", batchSize)
	}
	if batchSize > ds.Len() {
		batchSize = ds.Len()
	}
	l := &Loader{
		ds:        ds,
		batchSize: batchSize,
		rng:       tensor.NewRNG(seed),
		sampleVol: volume(ds.SampleShape()),
	}
	l.reshuffle()
	return l, nil
}

func (l *Loader) reshuffle() {
	l.order = l.rng.Perm(l.ds.Len())
	l.cursor = 0
}

// Epoch returns the number of completed passes over the dataset.
func (l *Loader) Epoch() int { return l.epoch }

// BatchesPerEpoch returns how many Next calls make up one epoch.
func (l *Loader) BatchesPerEpoch() int {
	n := l.ds.Len() / l.batchSize
	if n == 0 {
		n = 1
	}
	return n
}

// Next returns the next minibatch, wrapping (and reshuffling) at epoch
// boundaries.
func (l *Loader) Next() Batch {
	shape := append([]int{l.batchSize}, l.ds.SampleShape()...)
	x := tensor.New(shape...)
	labels := make([]int, l.batchSize)
	for i := 0; i < l.batchSize; i++ {
		if l.cursor >= len(l.order) {
			l.epoch++
			l.reshuffle()
		}
		idx := l.order[l.cursor]
		l.cursor++
		labels[i] = l.ds.Sample(idx, x.Data()[i*l.sampleVol:(i+1)*l.sampleVol])
	}
	return Batch{X: x, Labels: labels}
}
