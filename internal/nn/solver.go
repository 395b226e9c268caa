package nn

import (
	"fmt"
	"math"

	"shmcaffe/internal/tensor"
)

// LRPolicy selects the learning-rate schedule, mirroring Caffe's lr_policy
// strings.
type LRPolicy string

// Caffe's learning-rate policies.
const (
	// LRFixed keeps base_lr constant.
	LRFixed LRPolicy = "fixed"
	// LRStep drops by gamma every StepSize iterations (the paper's
	// setting: gamma 0.1, step 4 epochs).
	LRStep LRPolicy = "step"
	// LRExp decays as base_lr · gamma^iter.
	LRExp LRPolicy = "exp"
	// LRInv decays as base_lr · (1 + gamma·iter)^(−power).
	LRInv LRPolicy = "inv"
	// LRPoly decays as base_lr · (1 − iter/max_iter)^power.
	LRPoly LRPolicy = "poly"
)

// SolverConfig mirrors the Caffe SGD solver hyper-parameters used in the
// paper's experiments (Sec. IV-C: base_lr 0.1, gamma 0.1, momentum 0.9,
// step size 4 epochs, max 15 epochs).
type SolverConfig struct {
	BaseLR       float64 // base learning rate (η)
	Momentum     float64
	Nesterov     bool // use Nesterov accelerated gradient
	WeightDecay  float64
	Policy       LRPolicy // defaults to LRStep when StepSize > 0, else LRFixed
	Gamma        float64  // multiplicative LR drop at each step
	Power        float64  // exponent for inv/poly policies
	StepSize     int      // iterations between LR drops; 0 disables the policy
	GradClip     float64  // elementwise gradient clamp; 0 disables, negative is invalid
	MaxIteration int      // training length in iterations (poly policy)
}

// DefaultSolverConfig returns the paper's hyper-parameters scaled for the
// functional (laptop-size) models.
func DefaultSolverConfig() SolverConfig {
	return SolverConfig{
		BaseLR:      0.1,
		Momentum:    0.9,
		WeightDecay: 1e-4,
		Gamma:       0.1,
		StepSize:    0,
		GradClip:    5,
	}
}

// LearningRate evaluates the configured schedule at iteration iter.
func (c SolverConfig) LearningRate(iter int) float64 {
	policy := c.Policy
	if policy == "" {
		if c.StepSize > 0 {
			policy = LRStep
		} else {
			policy = LRFixed
		}
	}
	switch policy {
	case LRStep:
		lr := c.BaseLR
		if c.StepSize > 0 && c.Gamma > 0 {
			for k := iter / c.StepSize; k > 0; k-- {
				lr *= c.Gamma
			}
		}
		return lr
	case LRExp:
		return c.BaseLR * math.Pow(c.Gamma, float64(iter))
	case LRInv:
		return c.BaseLR * math.Pow(1+c.Gamma*float64(iter), -c.Power)
	case LRPoly:
		if c.MaxIteration <= 0 {
			return c.BaseLR
		}
		frac := 1 - float64(iter)/float64(c.MaxIteration)
		if frac < 0 {
			frac = 0
		}
		return c.BaseLR * math.Pow(frac, c.Power)
	default: // LRFixed
		return c.BaseLR
	}
}

// SGDSolver applies momentum SGD to a network, replicating Caffe's update:
//
//	v = momentum·v + lr·(grad + weight_decay·w)
//	w = w − v
//
// This is the "SGD optimizer of Caffe" that ShmCaffe reuses unchanged for
// the local update (Eq. 2 of the paper).
type SGDSolver struct {
	cfg      SolverConfig
	net      *Network
	velocity []*tensor.Tensor
	dense    []*denseSlot // per top-level layer of net: its Dense slot, or nil
	owner    []*denseSlot // per param of net: the Dense slot it belongs to, or nil
	rule     momentum     // the rule of the update in progress
	iter     int
}

// momentum is one update's rule (Eq. 2) as the kernels take it.
type momentum struct {
	lr, mom, wd, clip float32
	nesterov          bool
}

// denseSlot is a top-level Dense layer of the solver's network with the
// velocities of its weight and bias.
type denseSlot struct {
	d      *Dense
	vw, vb *tensor.Tensor
}

// swept reports whether Step folds the layer's update into its backward
// sweep: a Dense layer whose two params are both trainable. Every other
// layer — conv, batch-norm, a Dense inside a container or with a frozen
// param — accumulates into its gradient views and is updated after the
// backward, as ApplyUpdate does.
func (ds *denseSlot) swept() bool { return ds != nil && !ds.d.w.Frozen && !ds.d.b.Frozen }

// NewSGDSolver returns a solver bound to net. It clears the gradients its
// update consumes once; from then on the update leaves them cleared, so
// Step never pays a separate zeroing sweep. The gradient views of the
// Dense layers Step sweeps are neither cleared nor ever touched by Step,
// so their pages stay as NewNetwork left them: cleared and, until a
// TrainStep writes them, not resident.
func NewSGDSolver(net *Network, cfg SolverConfig) *SGDSolver {
	params := net.Params()
	s := &SGDSolver{
		cfg:      cfg,
		net:      net,
		velocity: make([]*tensor.Tensor, len(params)),
		dense:    make([]*denseSlot, len(net.layers)),
		owner:    make([]*denseSlot, len(params)),
	}
	for i, p := range params {
		s.velocity[i] = tensor.New(p.W.Shape()...)
	}
	k := 0 // NewNetwork packs each layer's params in order, layer by layer
	for i, l := range net.layers {
		if d, ok := l.(*Dense); ok {
			ds := &denseSlot{d: d, vw: s.velocity[k], vb: s.velocity[k+1]}
			s.dense[i], s.owner[k], s.owner[k+1] = ds, ds, ds
		}
		k += len(l.Params())
	}
	s.clearGrads()
	return s
}

// Iter returns the number of Step calls so far.
func (s *SGDSolver) Iter() int { return s.iter }

// Config returns the solver configuration.
func (s *SGDSolver) Config() SolverConfig { return s.cfg }

// Step trains one minibatch and returns its loss. Forward and loss run as
// in TrainStep; the backward hands each swept Dense layer the momentum
// update, which it applies row by row as it forms the row's gradient
// (tensor.FusedDenseStep), so that gradient is never written. Every other
// parameter accumulates into its (already clear) gradient and is updated
// after the backward, which consumes the gradient. Each weight gets the
// same bits ApplyUpdate would give it after TrainStep. A failed forward
// or backward clears the gradients it may have half-accumulated, so the
// next Step starts clean either way; a backward failure after a swept
// layer leaves that layer updated.
func (s *SGDSolver) Step(x *tensor.Tensor, labels []int) (float64, error) {
	s.rule = s.momentumRule()
	loss, _, err := s.net.trainStep(x, labels, s)
	if err != nil {
		s.clearGrads()
		return 0, err
	}
	s.update(true)
	return loss, nil
}

// ApplyUpdate applies the momentum update using the gradients currently
// stored in the network, and consumes them: every gradient is +0 when it
// returns (frozen parameters' included), ready for the next backward pass.
// Split out from Step so distributed solvers can aggregate gradients
// (allreduce) between a TrainStep and the update. With Nesterov enabled it
// applies the NAG form w −= (1+μ)v_new − μ·v_old. Each parameter is one
// tensor.FusedMomentumStep sweep (clip, weight decay, momentum, weight
// write, gradient clear).
func (s *SGDSolver) ApplyUpdate() {
	s.rule = s.momentumRule()
	s.update(false)
}

// momentumRule is the rule at the current iteration.
func (s *SGDSolver) momentumRule() momentum {
	return momentum{
		lr:       float32(s.cfg.LearningRate(s.iter)),
		mom:      float32(s.cfg.Momentum),
		wd:       float32(s.cfg.WeightDecay),
		clip:     float32(s.cfg.GradClip),
		nesterov: s.cfg.Nesterov,
	}
}

// update applies s.rule to every parameter from its gradient, except, when
// swept is set, the params of the Dense layers the backward already
// updated. A frozen parameter's gradient is only cleared.
func (s *SGDSolver) update(swept bool) {
	u := &s.rule
	for i, p := range s.net.Params() {
		switch {
		case swept && s.owner[i].swept():
		case p.Frozen:
			p.Grad.Zero()
		default:
			tensor.FusedMomentumStep(u.lr, u.mom, u.wd, u.clip, u.nesterov, p.W.Data(), p.Grad.Data(), s.velocity[i].Data())
		}
	}
	s.iter++
}

// clearGrads clears every gradient Step's update consumes: all but those
// of the swept Dense layers.
func (s *SGDSolver) clearGrads() {
	for i, p := range s.net.Params() {
		if !s.owner[i].swept() {
			p.Grad.Zero()
		}
	}
}

// Validate checks the configuration for obviously unusable values. A
// non-finite rate, momentum, decay or clip is rejected outright: each would
// silently turn every weight into NaN (or, for GradClip, disable the clamp)
// on the first update.
func (c SolverConfig) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"base LR", c.BaseLR}, {"momentum", c.Momentum}, {"weight decay", c.WeightDecay}, {"gradient clip", c.GradClip}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("nn: solver %s %v is not finite", f.name, f.v)
		}
	}
	if c.BaseLR <= 0 {
		return fmt.Errorf("nn: solver base LR %v must be positive", c.BaseLR)
	}
	if c.Momentum < 0 || c.Momentum >= 1 {
		return fmt.Errorf("nn: solver momentum %v outside [0,1)", c.Momentum)
	}
	if c.WeightDecay < 0 {
		return fmt.Errorf("nn: solver weight decay %v negative", c.WeightDecay)
	}
	if c.GradClip < 0 {
		return fmt.Errorf("nn: solver gradient clip %v negative (0 disables clipping)", c.GradClip)
	}
	if c.StepSize < 0 {
		return fmt.Errorf("nn: solver step size %d negative", c.StepSize)
	}
	switch c.Policy {
	case "", LRFixed, LRStep, LRExp, LRInv, LRPoly:
	default:
		return fmt.Errorf("nn: unknown LR policy %q", c.Policy)
	}
	return nil
}
