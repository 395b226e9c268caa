package nn

import "fmt"

// Laptop-scale miniatures of the paper's four evaluation architectures
// (Table IV). Each keeps the defining structural idea of its namesake —
// inception branches, residual shortcuts, plain deep convs — at a size the
// functional experiments can train in seconds. The timing experiments use
// the calibrated Profiles instead (profile.go); these miniatures exist so
// convergence runs exercise the same computational *patterns* the real
// models would.

// inceptionBlock builds a 3-branch inception module: 1×1 conv, 3×3 conv,
// and 3×3-pool→1×1-conv, concatenated along channels.
func inceptionBlock(name string, inC, c1, c3, cp int) Layer {
	return NewParallel(name,
		NewStack(name+"/b1",
			NewConv2D(name+"/b1/conv1x1", inC, c1, 1, 1, 0),
			NewReLU(name+"/b1/relu"),
		),
		NewStack(name+"/b3",
			NewConv2D(name+"/b3/conv3x3", inC, c3, 3, 1, 1),
			NewReLU(name+"/b3/relu"),
		),
		NewStack(name+"/bp",
			NewMaxPool2D(name+"/bp/pool", 3, 1), // stride 1: needs pad-free size math
			NewConv2D(name+"/bp/conv1x1", inC, cp, 1, 1, 1),
			NewReLU(name+"/bp/relu"),
		),
	)
}

// MiniInception is the Inception-v1 miniature: stem conv + LRN, two
// inception modules, global average pooling head (GoogLeNet's signature
// classifier).
func MiniInception(name string, channels, size, classes int) (*Network, error) {
	if size%2 != 0 {
		return nil, fmt.Errorf("nn: MiniInception input size %d must be even", size)
	}
	layers := []Layer{
		NewConv2D(name+"/stem", channels, 8, 3, 1, 1),
		NewReLU(name + "/stem/relu"),
		NewLRN(name + "/lrn"),
		NewMaxPool2D(name+"/pool1", 2, 2),
		inceptionBlock(name+"/inc1", 8, 4, 8, 4),
		inceptionBlock(name+"/inc2", 16, 8, 8, 8),
		NewGlobalAvgPool(name + "/gap"),
		NewFlatten(name + "/flat"),
		NewDense(name+"/fc", 24, classes),
	}
	return NewNetwork(name, []int{channels, size, size}, layers...)
}

// residualUnit is conv-BN-relu-conv-BN wrapped in an identity shortcut.
func residualUnit(name string, c int) Layer {
	return NewResidual(name, NewStack(name+"/f",
		NewConv2D(name+"/conv1", c, c, 3, 1, 1),
		NewBatchNorm(name+"/bn1", c),
		NewReLU(name+"/relu"),
		NewConv2D(name+"/conv2", c, c, 3, 1, 1),
		NewBatchNorm(name+"/bn2", c),
	))
}

// MiniResNet is the ResNet-50 miniature: stem conv + BN, two residual
// units, global average pooling head.
func MiniResNet(name string, channels, size, classes int) (*Network, error) {
	if size%2 != 0 {
		return nil, fmt.Errorf("nn: MiniResNet input size %d must be even", size)
	}
	layers := []Layer{
		NewConv2D(name+"/stem", channels, 8, 3, 1, 1),
		NewBatchNorm(name+"/stem/bn", 8),
		NewReLU(name + "/stem/relu"),
		NewMaxPool2D(name+"/pool1", 2, 2),
		residualUnit(name+"/res1", 8),
		NewReLU(name + "/relu1"),
		residualUnit(name+"/res2", 8),
		NewReLU(name + "/relu2"),
		NewGlobalAvgPool(name + "/gap"),
		NewFlatten(name + "/flat"),
		NewDense(name+"/fc", 8, classes),
	}
	return NewNetwork(name, []int{channels, size, size}, layers...)
}

// MiniVGG is the VGG16 miniature: plain stacked 3×3 convs with pooling and
// a deliberately fat fully connected head (VGG's defining cost structure —
// most parameters in the dense layers).
func MiniVGG(name string, channels, size, classes int) (*Network, error) {
	if size%4 != 0 {
		return nil, fmt.Errorf("nn: MiniVGG input size %d must be divisible by 4", size)
	}
	final := size / 4
	layers := []Layer{
		NewConv2D(name+"/conv1a", channels, 8, 3, 1, 1),
		NewReLU(name + "/relu1a"),
		NewConv2D(name+"/conv1b", 8, 8, 3, 1, 1),
		NewReLU(name + "/relu1b"),
		NewMaxPool2D(name+"/pool1", 2, 2),
		NewConv2D(name+"/conv2a", 8, 16, 3, 1, 1),
		NewReLU(name + "/relu2a"),
		NewMaxPool2D(name+"/pool2", 2, 2),
		NewFlatten(name + "/flat"),
		NewDense(name+"/fc1", 16*final*final, 128), // the fat VGG head
		NewReLU(name + "/relu3"),
		NewDropout(name+"/drop", 0.3, 1),
		NewDense(name+"/fc2", 128, classes),
	}
	return NewNetwork(name, []int{channels, size, size}, layers...)
}
