package nn

import "fmt"

// The model zoo provides the trainable stand-ins used by the functional
// experiments. The paper trains Inception-v1 / ResNet-50 /
// Inception-ResNet-v2 / VGG16 on ImageNet; those models only make sense on
// GPU hardware, so convergence experiments here run laptop-scale CNNs whose
// *distributed update dynamics* (the thing the paper's Figs. 8 and 11
// measure) are identical. See Profile (profile.go) for the timing-side
// stand-ins.

// SmallCNN builds a LeNet-style CNN for c×size×size inputs and the given
// class count: conv-relu-pool ×2, dense-relu, dense. This is the default
// model for convergence experiments.
func SmallCNN(name string, channels, size, classes int, seed uint64) (*Network, error) {
	if size%4 != 0 {
		return nil, fmt.Errorf("nn: SmallCNN input size %d must be divisible by 4", size)
	}
	final := size / 4
	layers := []Layer{
		NewConv2D(name+"/conv1", channels, 8, 3, 1, 1),
		NewReLU(name + "/relu1"),
		NewMaxPool2D(name+"/pool1", 2, 2),
		NewConv2D(name+"/conv2", 8, 16, 3, 1, 1),
		NewReLU(name + "/relu2"),
		NewMaxPool2D(name+"/pool2", 2, 2),
		NewFlatten(name + "/flat"),
		NewDense(name+"/fc1", 16*final*final, 64),
		NewReLU(name + "/relu3"),
		NewDense(name+"/fc2", 64, classes),
	}
	return NewNetwork(name, []int{channels, size, size}, layers...)
}

// MLP builds a two-hidden-layer perceptron over flat feature vectors; the
// cheapest model for high-worker-count convergence sweeps.
func MLP(name string, features, hidden, classes int) (*Network, error) {
	layers := []Layer{
		NewDense(name+"/fc1", features, hidden),
		NewReLU(name + "/relu1"),
		NewDense(name+"/fc2", hidden, hidden),
		NewReLU(name + "/relu2"),
		NewDense(name+"/fc3", hidden, classes),
	}
	return NewNetwork(name, []int{features}, layers...)
}
