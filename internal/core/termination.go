package core

import "fmt"

// TerminationPolicy selects how workers align their training end time
// (paper Sec. III-E). Without alignment, ASGD workers that finish their
// fixed iteration budget idle on their GPU while stragglers run on.
type TerminationPolicy int

const (
	// StopOnMaster: all workers finish when the master worker reaches the
	// target (criterion 1).
	StopOnMaster TerminationPolicy = iota + 1
	// StopOnFirst: all workers finish as soon as the fastest worker
	// reaches the target (criterion 2).
	StopOnFirst
	// StopOnAverage: all workers finish when the mean completed-iteration
	// count reaches the target (criterion 3).
	StopOnAverage
	// StopIndependently disables alignment: every worker runs its own
	// fixed iteration budget (BVLC Caffe behaviour, kept as the ablation
	// baseline).
	StopIndependently
)

// String implements fmt.Stringer.
func (p TerminationPolicy) String() string {
	switch p {
	case StopOnMaster:
		return "master"
	case StopOnFirst:
		return "first"
	case StopOnAverage:
		return "average"
	case StopIndependently:
		return "independent"
	default:
		return fmt.Sprintf("TerminationPolicy(%d)", int(p))
	}
}

// Validate checks that the policy is one of the defined criteria.
func (p TerminationPolicy) Validate() error {
	switch p {
	case StopOnMaster, StopOnFirst, StopOnAverage, StopIndependently:
		return nil
	default:
		return fmt.Errorf("unknown termination policy %d: %w", int(p), ErrConfig)
	}
}

// ShouldStop evaluates the policy against the shared progress counters.
// target is the per-worker iteration budget. Every worker evaluates the
// same deterministic predicate over the same shared state, so no dedicated
// coordinator thread is needed — exactly the simplification the shared
// control segment buys (Sec. III-E).
func (p TerminationPolicy) ShouldStop(progress []int64, target int64) bool {
	return p.ShouldStopAlive(progress, nil, target)
}

// ShouldStopAlive is ShouldStop with a liveness view: alive[i] false means
// worker i is known dead and must not hold the survivors hostage. A nil
// alive treats everyone as alive (the fault-free fast path). Per policy:
//
//   - StopOnMaster with a dead master re-elects the lowest-ranked live
//     worker as the progress reference — otherwise a master crash at
//     iteration k freezes the job forever at "master not done".
//   - StopOnFirst ignores liveness: progress counters are monotone, so a
//     dead worker's last count still only triggers a stop it had earned.
//   - StopOnAverage averages over the living only. A dead worker's frozen
//     counter would otherwise drag the mean down and the survivors would
//     grind out its unfinished share (or never terminate with target
//     unreachable).
func (p TerminationPolicy) ShouldStopAlive(progress []int64, alive []bool, target int64) bool {
	if len(progress) == 0 {
		return false
	}
	switch p {
	case StopOnMaster:
		for i, v := range progress {
			if aliveAt(alive, i) {
				return v >= target
			}
		}
		return true // nobody alive: nothing left to wait for
	case StopOnFirst:
		for _, v := range progress {
			if v >= target {
				return true
			}
		}
		return false
	case StopOnAverage:
		var sum, count int64
		for i, v := range progress {
			if !aliveAt(alive, i) {
				continue
			}
			sum += v
			count++
		}
		if count == 0 {
			return true
		}
		return sum >= target*count
	default:
		return false
	}
}

// aliveAt reads a liveness view that may be nil or short: everyone it does
// not cover is alive.
func aliveAt(alive []bool, i int) bool { return i >= len(alive) || alive[i] }
