// Package opcode is golden-file input for the opcode-exhaustiveness
// analyzer.
package opcode

type op byte

const (
	opA op = iota + 1
	opB
	opC // want `constant opC of type op has no case in any switch over op`
)

func dispatch(o op) int {
	switch o {
	case opA:
		return 1
	case opB:
		return 2
	default:
		return 0
	}
}

// verb's constants are covered by the union of two switches, mirroring the
// SMB server's dispatchOp → dispatchShm chain.
type verb int

const (
	va verb = iota
	vb
)

func first(v verb) bool {
	switch v {
	case va:
		return true
	}
	return false
}

func second(v verb) bool {
	switch v {
	case vb:
		return true
	}
	return false
}

// color is never switched on, so it is not checked.
type color int

const (
	red color = iota
	blue
)

func colorName(c color) string {
	if c == red {
		return "red"
	}
	return "blue"
}
