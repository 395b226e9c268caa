// Package core implements the paper's contribution: SEASGD (shared-memory
// elastic averaging SGD) and HSGD (hybrid intra-node synchronous / inter-
// node asynchronous SGD) on top of the SMB remote shared memory substrate.
//
// The package has two faces:
//
//   - Pure update algebra (elastic.go) — Eqs. (2)–(7) of the paper, shared
//     by the functional runtime and the baselines.
//   - A functional distributed runtime (worker.go, hybrid.go): workers
//     with the Fig. 6 main-thread/update-thread overlap, SMB buffer layout
//     of Fig. 5, the Fig. 2 key-exchange bootstrap on the SMB server
//     (bootstrap.go), and the Sec. III-E termination-alignment protocol.
package core

import (
	"errors"
	"fmt"
)

// Exported errors.
var (
	ErrConfig  = errors.New("core: invalid configuration")
	ErrStopped = errors.New("core: training stopped")
)

// ElasticConfig carries the two hyper-parameters ShmCaffe adds on top of
// Caffe's solver set (paper Sec. III-A).
type ElasticConfig struct {
	// MovingRate is α, the moving averaging rate scaling the elastic
	// penalty (paper uses 0.2).
	MovingRate float64
	// UpdateInterval is how many local iterations pass between global
	// exchanges (paper uses 1).
	UpdateInterval int
}

// DefaultElasticConfig returns the paper's settings: α = 0.2, interval 1.
func DefaultElasticConfig() ElasticConfig {
	return ElasticConfig{MovingRate: 0.2, UpdateInterval: 1}
}

// Validate checks the hyper-parameters.
func (c ElasticConfig) Validate() error {
	if c.MovingRate <= 0 || c.MovingRate >= 1 {
		return fmt.Errorf("moving_rate %v outside (0,1): %w", c.MovingRate, ErrConfig)
	}
	if c.UpdateInterval < 1 {
		return fmt.Errorf("update_interval %d < 1: %w", c.UpdateInterval, ErrConfig)
	}
	return nil
}
