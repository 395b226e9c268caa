package telemetry

import (
	"bytes"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestProcessCPU: the two process_cpu_seconds_total series parse, the
// user series rises while the test burns CPU, and user + system agrees
// with the utime + stime of /proc/self/stat within 50 ms — /proc counts in
// 10 ms clock ticks (USER_HZ 100) and the two reads are not simultaneous.
func TestProcessCPU(t *testing.T) {
	reg := NewRegistry()
	RegisterProcessCPU(reg)
	scrape := func() (user, sys float64) {
		t.Helper()
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "# TYPE process_cpu_seconds_total counter\n") {
			t.Fatalf("no counter family in\n%s", buf.String())
		}
		samples, err := ParsePrometheus(&buf)
		if err != nil {
			t.Fatal(err)
		}
		var ok1, ok2 bool
		user, ok1 = SampleValue(samples, "process_cpu_seconds_total", map[string]string{"mode": "user"})
		sys, ok2 = SampleValue(samples, "process_cpu_seconds_total", map[string]string{"mode": "system"})
		if !ok1 || !ok2 || len(samples) != 2 {
			t.Fatalf("samples %+v, want the user and system series", samples)
		}
		return user, sys
	}
	// Burn CPU until the user series has risen by 50 ms; on a loaded host
	// that takes longer than 50 ms of wall time, so only a stuck series
	// runs into the 10 s limit.
	user0, sys0 := scrape()
	user1, sys1 := user0, sys0
	x := 1.0
	for start := time.Now(); user1-user0 < 0.05; user1, sys1 = scrape() {
		if time.Since(start) > 10*time.Second {
			t.Fatalf("after 10 s of busy loop (%v): user %v → %v s", x, user0, user1)
		}
		for i := 0; i < 100000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	if sys1 < sys0 {
		t.Fatalf("system series fell: %v → %v s", sys0, sys1)
	}

	stat, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		t.Skipf("no /proc/self/stat to compare with: %v", err)
	}
	user2, sys2 := scrape()
	// Fields 14 and 15 (utime, stime) follow the parenthesised command.
	fields := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	ticks := func(i int) float64 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			t.Fatal(err)
		}
		return v / 100
	}
	proc := ticks(11) + ticks(12)
	if d := math.Abs(user2 + sys2 - proc); d > 0.05 {
		t.Fatalf("getrusage user+system %.3f s, /proc/self/stat utime+stime %.3f s: differ by %.3f s", user2+sys2, proc, d)
	}
}
