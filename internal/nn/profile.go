package nn

import (
	"fmt"
	"time"
)

// Profile describes one of the paper's CNN models for timing purposes: the
// parameter volume that must cross the network every iteration and the
// measured single-GPU computation time per iteration. The values are the
// paper's own calibration (Table IV/V, Sec. IV-E), so the discrete-event
// reproduction of Figs. 9–15 inherits the authors' measurements rather than
// our CPU's. ParamBytes is the float32 weight vector size; the SEASGD
// communication volume per iteration is 2×ParamBytes (read Wg + write ΔWx).
type Profile struct {
	Name string
	// ParamBytes is the size of the flat float32 weight vector.
	ParamBytes int64
	// CompTime is the forward+backward+local-update time for one
	// iteration on one GPU at the paper's batch size.
	CompTime time.Duration
	// BatchSize is the per-worker minibatch size used in the paper.
	BatchSize int
	// InputSide is the square input resolution (299/320/224...).
	InputSide int
}

// The four evaluation models of the paper. Parameter sizes: Inception-ResNet
// -v2 is the paper's own number (214 MB, Sec. IV-E); VGG16 and ResNet-50 use
// the standard Caffe model sizes; Inception-v1 uses the BVLC GoogLeNet
// weight size. Computation times come from Table V's one-worker column
// (VGG16: 389.8 ms per two 1-GPU iterations ⇒ 194.9 ms).
var (
	// InceptionV1 is GoogLeNet / Inception-v1.
	InceptionV1 = Profile{
		Name:       "inception_v1",
		ParamBytes: 53 * 1000 * 1000,
		CompTime:   257 * time.Millisecond,
		BatchSize:  60,
		InputSide:  224,
	}
	// ResNet50 is the 50-layer residual network.
	ResNet50 = Profile{
		Name:       "resnet_50",
		ParamBytes: 102 * 1000 * 1000,
		CompTime:   225 * time.Millisecond,
		BatchSize:  32,
		InputSide:  224,
	}
	// InceptionResNetV2 trains on 320×320 inputs in the paper.
	InceptionResNetV2 = Profile{
		Name:       "inception_resnet_v2",
		ParamBytes: 214 * 1000 * 1000,
		CompTime:   443 * time.Millisecond,
		BatchSize:  16,
		InputSide:  320,
	}
	// VGG16 has a short compute time and a very large parameter vector —
	// the paper's example of a model unsuited to multi-node scaling.
	VGG16 = Profile{
		Name:       "vgg16",
		ParamBytes: 528 * 1000 * 1000,
		CompTime:   194900 * time.Microsecond,
		BatchSize:  32,
		InputSide:  224,
	}
)

// PaperModels lists the four evaluation models in the paper's order.
func PaperModels() []Profile {
	return []Profile{InceptionV1, ResNet50, InceptionResNetV2, VGG16}
}

// ParamMB returns the parameter volume in megabytes (10^6 bytes).
func (p Profile) ParamMB() float64 { return float64(p.ParamBytes) / 1e6 }

// Validate checks the profile for usable values.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("nn: profile without name")
	}
	if p.ParamBytes <= 0 {
		return fmt.Errorf("nn: profile %q has non-positive param bytes", p.Name)
	}
	if p.CompTime <= 0 {
		return fmt.Errorf("nn: profile %q has non-positive comp time", p.Name)
	}
	return nil
}
