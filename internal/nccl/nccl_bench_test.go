package nccl

import (
	"sync"
	"testing"
)

// BenchmarkRingAllReduce measures the NCCL-style ring over 4 goroutine
// devices with 256k elements each.
func BenchmarkRingAllReduce(b *testing.B) {
	const devices = 4
	const elems = 1 << 18
	group, err := NewGroup(devices)
	if err != nil {
		b.Fatal(err)
	}
	bufs := make([][]float32, devices)
	for d := range bufs {
		bufs[d] = make([]float32, elems)
	}
	b.SetBytes(int64(elems * 4 * devices))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for d := 0; d < devices; d++ {
			d := d
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := group.AllReduce(d, bufs[d]); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
	}
}
