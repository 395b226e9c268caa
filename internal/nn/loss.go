package nn

import (
	"fmt"
	"math"

	"shmcaffe/internal/tensor"
)

// SoftmaxLoss couples a softmax with a cross-entropy loss, numerically
// stabilized, exactly like Caffe's SoftmaxWithLoss layer. It is the head of
// every classification network in this repository.
type SoftmaxLoss struct {
	probs  *tensor.Tensor
	grad   *tensor.Tensor
	labels []int
}

// Forward computes class probabilities and the mean cross-entropy loss for
// logits (N×C) against labels (len N). The probabilities are retained for
// Backward. Like a Layer's output, the returned probabilities belong to s
// and are overwritten by its next Forward.
func (s *SoftmaxLoss) Forward(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor, error) {
	n, rest, err := batchOf(logits)
	if err != nil {
		return 0, nil, err
	}
	classes := shapeVolume(rest)
	if len(labels) != n {
		return 0, nil, fmt.Errorf("nn: softmax %d labels for batch %d: %w", len(labels), n, ErrBadShape)
	}
	flat, err := logits.Reshape(n, classes)
	if err != nil {
		return 0, nil, err
	}
	for _, lbl := range labels {
		if lbl < 0 || lbl >= classes {
			return 0, nil, fmt.Errorf("nn: softmax label %d out of range [0,%d)", lbl, classes)
		}
	}
	s.probs = reuse(s.probs, n, classes)
	probs := s.probs
	var loss float64
	for i := 0; i < n; i++ {
		row := flat.Data()[i*classes : (i+1)*classes]
		out := probs.Data()[i*classes : (i+1)*classes]
		maxv := row[0]
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(float64(v - maxv))
			out[j] = float32(e)
			sum += e
		}
		invSum := float32(1 / sum)
		for j := range out {
			out[j] *= invSum
		}
		p := float64(out[labels[i]])
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
	}
	s.labels = labels
	return loss / float64(n), probs, nil
}

// Backward returns dL/dlogits = (probs - onehot)/N, valid until s's next
// Backward.
func (s *SoftmaxLoss) Backward() (*tensor.Tensor, error) {
	if s.probs == nil {
		return nil, fmt.Errorf("nn: softmax backward before forward")
	}
	n := s.probs.Dim(0)
	classes := s.probs.Dim(1)
	s.grad = reuse(s.grad, n, classes)
	grad := s.grad
	copy(grad.Data(), s.probs.Data())
	inv := float32(1.0 / float64(n))
	for i := 0; i < n; i++ {
		row := grad.Data()[i*classes : (i+1)*classes]
		row[s.labels[i]] -= 1
		for j := range row {
			row[j] *= inv
		}
	}
	return grad, nil
}

// TopKAccuracy returns the fraction of rows whose true label is within the
// k largest probabilities. The paper reports top-5 accuracy throughout.
func TopKAccuracy(probs *tensor.Tensor, labels []int, k int) (float64, error) {
	n, rest, err := batchOf(probs)
	if err != nil {
		return 0, err
	}
	classes := shapeVolume(rest)
	if len(labels) != n {
		return 0, fmt.Errorf("nn: accuracy %d labels for batch %d: %w", len(labels), n, ErrBadShape)
	}
	if k <= 0 || k > classes {
		return 0, fmt.Errorf("nn: top-%d accuracy with %d classes", k, classes)
	}
	flat, err := probs.Reshape(n, classes)
	if err != nil {
		return 0, err
	}
	hits := 0
	for i := 0; i < n; i++ {
		row := flat.Data()[i*classes : (i+1)*classes]
		target := row[labels[i]]
		// The label is in the top-k iff fewer than k entries exceed it
		// (ties resolved optimistically, matching Caffe's accuracy layer).
		larger := 0
		for _, v := range row {
			if v > target {
				larger++
			}
		}
		if larger < k {
			hits++
		}
	}
	return float64(hits) / float64(n), nil
}
