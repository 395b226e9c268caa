// Benchmark harness: one testing.B benchmark per table and figure of the
// paper. Substrate microbenchmarks live beside the code they time, in the
// owning package's go test -bench. Each exhibit benchmark regenerates its
// table through internal/bench and reports the headline quantity as a
// custom metric, so
//
//	go test -bench=. -benchmem
//
// both exercises the generators and prints the reproduced numbers.
package shmcaffe_test

import (
	"strconv"
	"strings"
	"testing"

	"shmcaffe/internal/bench"
	"shmcaffe/internal/nn"
	"shmcaffe/internal/perfmodel"
	"shmcaffe/internal/trace"
)

func BenchmarkFig7SMBBandwidth(b *testing.B) {
	hw := perfmodel.DefaultHardware()
	var saturated float64
	for i := 0; i < b.N; i++ {
		bw, err := perfmodel.SimulateSMBBandwidth(32, 1e9, 16e6, hw)
		if err != nil {
			b.Fatal(err)
		}
		saturated = bw
	}
	b.ReportMetric(saturated/1e9, "GB/s@32procs")
}

func BenchmarkTable2TrainingTime(b *testing.B) {
	hw := perfmodel.DefaultHardware()
	var tab *trace.Table
	for i := 0; i < b.N; i++ {
		var err error
		tab, err = bench.Table2TrainingTime(hw)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lastScalability(b, tab), "shmcaffe16_speedup")
}

func lastScalability(b *testing.B, tab *trace.Table) float64 {
	b.Helper()
	row := tab.Rows[len(tab.Rows)-1]
	v, err := strconv.ParseFloat(strings.TrimSuffix(row[len(row)-1], "x"), 64)
	if err != nil {
		b.Fatal(err)
	}
	return v
}

func BenchmarkFig10CompComm(b *testing.B) {
	hw := perfmodel.DefaultHardware()
	var ratio float64
	for i := 0; i < b.N; i++ {
		shm, err := perfmodel.SimulateHSGD(nn.InceptionV1, []int{4, 4, 4, 4}, 40, hw)
		if err != nil {
			b.Fatal(err)
		}
		cmpi, err := perfmodel.SimulateCaffeMPI(nn.InceptionV1, 16, 40, hw)
		if err != nil {
			b.Fatal(err)
		}
		ratio = cmpi.Comm.Seconds() / shm.Comm.Seconds()
	}
	b.ReportMetric(ratio, "commspeedup_vs_caffempi")
}

func BenchmarkTable5ShmCaffeA(b *testing.B) {
	hw := perfmodel.DefaultHardware()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table5ShmCaffeA(hw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6ShmCaffeH(b *testing.B) {
	hw := perfmodel.DefaultHardware()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table6ShmCaffeH(hw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15AvsH(b *testing.B) {
	hw := perfmodel.DefaultHardware()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig15AvsH(hw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8Convergence(b *testing.B) {
	opts := bench.DefaultConvergenceOptions()
	opts.Epochs = 2
	opts.PerClass = 40
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig8Convergence(4, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11AsyncVsHybrid(b *testing.B) {
	opts := bench.DefaultConvergenceOptions()
	opts.Epochs = 2
	opts.PerClass = 40
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig11AsyncVsHybrid([]int{1, 4}, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationOverlap(b *testing.B) {
	hw := perfmodel.DefaultHardware()
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationOverlap(hw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationGroupSize(b *testing.B) {
	hw := perfmodel.DefaultHardware()
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationGroupSize(hw); err != nil {
			b.Fatal(err)
		}
	}
}
