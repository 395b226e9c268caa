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
	iter     int
}

// NewSGDSolver returns a solver bound to net. It clears net's gradients
// once; from then on ApplyUpdate leaves them cleared, so Step never pays a
// separate zeroing sweep.
func NewSGDSolver(net *Network, cfg SolverConfig) *SGDSolver {
	vel := make([]*tensor.Tensor, len(net.Params()))
	for i, p := range net.Params() {
		vel[i] = tensor.New(p.W.Shape()...)
	}
	net.ZeroGrads()
	return &SGDSolver{cfg: cfg, net: net, velocity: vel}
}

// Iter returns the number of Step calls so far.
func (s *SGDSolver) Iter() int { return s.iter }

// Config returns the solver configuration.
func (s *SGDSolver) Config() SolverConfig { return s.cfg }

// Step trains one minibatch: forward/backward into the (already clear)
// gradients, then the momentum update, which consumes them. It returns the
// minibatch loss. A failed forward/backward clears the gradients it may
// have half-accumulated, so the next Step starts clean either way.
func (s *SGDSolver) Step(x *tensor.Tensor, labels []int) (float64, error) {
	loss, _, err := s.net.TrainStep(x, labels)
	if err != nil {
		s.net.ZeroGrads()
		return 0, err
	}
	s.ApplyUpdate()
	return loss, nil
}

// ApplyUpdate applies the momentum update using the gradients currently
// stored in the network, and consumes them: every gradient is +0 when it
// returns (frozen parameters' included), ready for the next backward pass.
// Split out from Step so distributed solvers can aggregate gradients
// (allreduce) between backward and update. With Nesterov enabled it applies
// the NAG form w −= (1+μ)v_new − μ·v_old. Each parameter is one
// tensor.FusedMomentumStep sweep (clip, weight decay, momentum, weight
// write, gradient clear).
func (s *SGDSolver) ApplyUpdate() {
	lr := float32(s.cfg.LearningRate(s.iter))
	mom := float32(s.cfg.Momentum)
	wd := float32(s.cfg.WeightDecay)
	clip := float32(s.cfg.GradClip)
	for i, p := range s.net.Params() {
		if p.Frozen {
			p.Grad.Zero()
			continue
		}
		tensor.FusedMomentumStep(lr, mom, wd, clip, s.cfg.Nesterov, p.W.Data(), p.Grad.Data(), s.velocity[i].Data())
	}
	s.iter++
}

// ResetMomentum clears the velocity buffers; the elastic-averaging update
// (Eq. 3/6) replaces weights outside the momentum path, after which stale
// velocity can destabilize training at high worker counts.
func (s *SGDSolver) ResetMomentum() {
	for _, v := range s.velocity {
		v.Zero()
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
