package tensor

import (
	"encoding/binary"
	"fmt"
	"unsafe"
)

// nativeLittleEndian reports whether the host stores float32/uint32 in the
// wire byte order, which makes reinterpreting segment bytes as floats a
// pure pointer cast.
var nativeLittleEndian = func() bool {
	var probe [4]byte
	binary.LittleEndian.PutUint32(probe[:], 0x01020304)
	return *(*uint32)(unsafe.Pointer(&probe[0])) == 0x01020304
}()

// Float32View returns a []float32 aliasing b — no copy, no allocation —
// when the platform is little-endian and b is 4-byte aligned with a length
// that is a multiple of 4. ok is false otherwise and callers must fall back
// to DecodeFloat32. Writes through the view are writes to b: the SMB
// accumulate path uses this to run dst += src directly on segment bytes.
func Float32View(b []byte) (vals []float32, ok bool) {
	if !nativeLittleEndian || len(b)%4 != 0 {
		return nil, false
	}
	if len(b) == 0 {
		return nil, true
	}
	if uintptr(unsafe.Pointer(&b[0]))%unsafe.Alignof(float32(0)) != 0 {
		return nil, false
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), len(b)/4), true
}

// AsBytes returns the memory of vals as a []byte aliasing it — no copy, no
// allocation, on any host; the inverse view of Float32View. Writes through
// it are writes to vals. On a little-endian host these bytes are exactly the
// SMB wire encoding of vals, so a worker reads Wg into, and pushes ΔWx out
// of, its float32 buffers through this view; SwapWireOrder makes the same
// view correct on a big-endian host.
func AsBytes(vals []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), 4*len(vals))
}

// SwapWireOrder converts vals in place between host byte order and the
// little-endian SMB wire order. It is its own inverse: a no-op on
// little-endian hosts, a byte swap of every element on big-endian ones.
func SwapWireOrder(vals []float32) { swapWireOrder(AsBytes(vals)) }

// swapWireOrder is SwapWireOrder over encoded bytes, valid at any alignment
// of b.
func swapWireOrder(b []byte) {
	if !nativeLittleEndian {
		reverseWords(b)
	}
}

// reverseWords reverses the bytes of every 4-byte word of b — the big-endian
// arm of swapWireOrder, kept separate so tests on little-endian hosts can
// exercise it.
func reverseWords(b []byte) {
	for i := 0; i+4 <= len(b); i += 4 {
		b[i], b[i+1], b[i+2], b[i+3] = b[i+3], b[i+2], b[i+1], b[i]
	}
}

// EncodeFloat32 serializes vals as little-endian float32 into dst, which must
// have 4·len(vals) bytes. It returns the number of bytes written. The SMB
// wire protocol and segment store move weight vectors in this encoding. dst
// may have any alignment: only the float side is viewed.
func EncodeFloat32(vals []float32, dst []byte) (int, error) {
	need := 4 * len(vals)
	if len(dst) < need {
		return 0, fmt.Errorf("tensor: encode needs %d bytes, have %d", need, len(dst))
	}
	copy(dst, AsBytes(vals))
	swapWireOrder(dst[:need])
	return need, nil
}

// DecodeFloat32 deserializes little-endian float32 values from src into dst,
// which must have len(src)/4 elements; len(src) must be a multiple of 4. src
// may have any alignment: only the float side is viewed.
func DecodeFloat32(src []byte, dst []float32) error {
	if len(src)%4 != 0 {
		return fmt.Errorf("tensor: decode length %d not a multiple of 4", len(src))
	}
	n := len(src) / 4
	if len(dst) < n {
		return fmt.Errorf("tensor: decode needs %d elements, have %d", n, len(dst))
	}
	copy(AsBytes(dst[:n]), src)
	SwapWireOrder(dst[:n])
	return nil
}

// Float32Bytes allocates and returns the little-endian encoding of vals.
func Float32Bytes(vals []float32) []byte {
	buf := make([]byte, 4*len(vals))
	if _, err := EncodeFloat32(vals, buf); err != nil {
		// Unreachable: buf is sized exactly.
		panic(err)
	}
	return buf
}

// Float32FromBytes allocates and returns the float32 decoding of src.
func Float32FromBytes(src []byte) ([]float32, error) {
	if len(src)%4 != 0 {
		return nil, fmt.Errorf("tensor: decode length %d not a multiple of 4", len(src))
	}
	out := make([]float32, len(src)/4)
	if err := DecodeFloat32(src, out); err != nil {
		return nil, err
	}
	return out, nil
}
