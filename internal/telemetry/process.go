package telemetry

import (
	"math"
	"syscall"
)

// RegisterProcessCPU registers process_cpu_seconds_total{mode="user"} and
// process_cpu_seconds_total{mode="system"}: the CPU time every thread of
// this process has spent in user and in kernel mode. Each series reads
// getrusage(RUSAGE_SELF) when it is scraped, so the hot path pays
// nothing. smbserver, shmtrain and shmserve register it on their /metrics.
func RegisterProcessCPU(r *Registry) {
	const help = "CPU time this process has spent in user and in kernel mode (getrusage)"
	r.FloatCounterFunc(`process_cpu_seconds_total{mode="user"}`, help,
		func() float64 { return cpuSeconds(func(ru *syscall.Rusage) syscall.Timeval { return ru.Utime }) })
	r.FloatCounterFunc(`process_cpu_seconds_total{mode="system"}`, help,
		func() float64 { return cpuSeconds(func(ru *syscall.Rusage) syscall.Timeval { return ru.Stime }) })
}

// cpuSeconds reads one of this process's rusage times in seconds; NaN if
// getrusage fails.
func cpuSeconds(pick func(*syscall.Rusage) syscall.Timeval) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := pick(&ru)
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}
