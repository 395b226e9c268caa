package tensor

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// wireSpecialBits are float32 bit patterns a byte-moving codec must carry
// unchanged: a quiet NaN with a payload, a signalling-NaN pattern, −0, the
// smallest subnormal, ±Inf and ±MaxFloat32.
var wireSpecialBits = []uint32{
	0x7fc12345, 0x7fa00001, 0x80000000, 0x00000001,
	0x7f800000, 0xff800000, 0x7f7fffff, 0xff7fffff,
}

func wireSpecials() []float32 {
	vals := make([]float32, len(wireSpecialBits))
	for i, b := range wireSpecialBits {
		vals[i] = math.Float32frombits(b)
	}
	return vals
}

// encodeWith is the reference encoding of vals in byte order o.
func encodeWith(o binary.ByteOrder, vals []float32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		o.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

// TestCodecBitExact: the codec produces the little-endian reference bytes
// and decodes them back bit for bit, special values included, at every byte
// alignment of the []byte side.
func TestCodecBitExact(t *testing.T) {
	vals := append(wireSpecials(), 1.5, -2.25)
	want := encodeWith(binary.LittleEndian, vals)
	for off := 0; off < 4; off++ {
		buf := make([]byte, off+len(want)+3)
		n, err := EncodeFloat32(vals, buf[off:])
		if err != nil || n != len(want) {
			t.Fatalf("offset %d: encode = %d, %v", off, n, err)
		}
		if !bytes.Equal(buf[off:off+n], want) {
			t.Fatalf("offset %d: encoded % x, want % x", off, buf[off:off+n], want)
		}
		got := make([]float32, len(vals)+1)
		got[len(vals)] = 7 // past the decoded prefix: must stay untouched
		if err := DecodeFloat32(buf[off:off+n], got); err != nil {
			t.Fatal(err)
		}
		for i, v := range vals {
			if math.Float32bits(got[i]) != math.Float32bits(v) {
				t.Fatalf("offset %d: decoded [%d] = %#08x, want %#08x", off, i, math.Float32bits(got[i]), math.Float32bits(v))
			}
		}
		if got[len(vals)] != 7 {
			t.Fatalf("offset %d: decode wrote past len(src)/4", off)
		}
	}
}

// TestAsBytes: the view aliases the floats, writes through it reach them,
// and taking it allocates nothing.
func TestAsBytes(t *testing.T) {
	vals := []float32{1, 2, 3}
	b := AsBytes(vals)
	if len(b) != 12 {
		t.Fatalf("len = %d, want 12", len(b))
	}
	copy(b[4:8], AsBytes([]float32{42}))
	if vals[1] != 42 {
		t.Fatalf("write through view did not reach the floats: %v", vals)
	}
	if len(AsBytes(nil)) != 0 || len(AsBytes(vals[:0])) != 0 {
		t.Fatal("empty view must be empty")
	}
	if a := testing.AllocsPerRun(100, func() { _ = AsBytes(vals) }); a != 0 {
		t.Errorf("AsBytes allocates %.1f per call", a)
	}
}

// TestSwapWireOrder pins both arms. SwapWireOrder leaves AsBytes showing the
// little-endian wire bytes on any host and is its own inverse; reverseWords
// — the arm a big-endian host runs — turns the native bytes of each value
// into those of the other byte order, which on a little-endian host is
// binary.BigEndian, and undoes itself.
func TestSwapWireOrder(t *testing.T) {
	vals := wireSpecials()
	SwapWireOrder(vals)
	if got, want := AsBytes(vals), encodeWith(binary.LittleEndian, wireSpecials()); !bytes.Equal(got, want) {
		t.Fatalf("wire view % x, want % x", got, want)
	}
	SwapWireOrder(vals)
	if got, want := AsBytes(vals), AsBytes(wireSpecials()); !bytes.Equal(got, want) {
		t.Fatal("SwapWireOrder twice is not the identity")
	}

	other := binary.ByteOrder(binary.BigEndian)
	if !nativeLittleEndian {
		other = binary.LittleEndian
	}
	reverseWords(AsBytes(vals))
	if got, want := AsBytes(vals), encodeWith(other, wireSpecials()); !bytes.Equal(got, want) {
		t.Fatalf("one swap % x, want %s bytes % x", got, other, want)
	}
	reverseWords(AsBytes(vals))
	for i, v := range wireSpecials() {
		if math.Float32bits(vals[i]) != math.Float32bits(v) {
			t.Fatalf("swap twice [%d] = %#08x, want %#08x", i, math.Float32bits(vals[i]), math.Float32bits(v))
		}
	}
}
