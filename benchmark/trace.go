package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// spanRecorder keeps the driver's own spans — one around every call the
// driver makes into a layer (probe calls, HTTP requests, writer pushes) — in
// memory until the traced run ends. A nil recorder records nothing, so the
// untraced run pays one branch per call.
type spanRecorder struct {
	epoch    time.Time
	workload string

	mu     sync.Mutex
	events []traceEvent
	layers map[string]int
}

func newSpanRecorder(workload string) *spanRecorder {
	return &spanRecorder{epoch: time.Now(), workload: workload, layers: make(map[string]int)}
}

// driverPID separates the driver's tracks from the workers' (pid 0) in the
// merged trace.
const driverPID = 1

// span opens a span named name on the track of layer; call the result to
// close it.
func (r *spanRecorder) span(layer, name string) func() {
	if r == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		end := time.Now()
		r.mu.Lock()
		tid, ok := r.layers[layer]
		if !ok {
			tid = len(r.layers)
			r.layers[layer] = tid
		}
		r.events = append(r.events, traceEvent{
			Name: name, Cat: layer, Ph: "X",
			TS:  float64(start.Sub(r.epoch).Nanoseconds()) / 1e3,
			Dur: float64(end.Sub(start).Nanoseconds()) / 1e3,
			PID: driverPID, TID: tid,
			Args: map[string]string{"trace_id": r.workload},
		})
		r.mu.Unlock()
	}
}

// counter records a scrape delta as a counter event at the current time.
func (r *spanRecorder) counter(layer, name string, value float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.events = append(r.events, traceEvent{
		Name: name, Cat: layer, Ph: "C",
		TS:   float64(time.Since(r.epoch).Nanoseconds()) / 1e3,
		PID:  driverPID,
		Args: map[string]string{"trace_id": r.workload, "value": formatFloat(value)},
	})
	r.mu.Unlock()
}

// write merges the workers' span files (rebased onto the driver's clock)
// with the driver's spans into dir/<workload>.trace.json and removes the
// per-worker parts.
func (r *spanRecorder) write(dir string, workerFiles []string) (string, error) {
	r.mu.Lock()
	events := append([]traceEvent(nil), r.events...)
	for layer, tid := range r.layers {
		events = append(events, traceEvent{
			Name: "thread_name", Ph: "M", PID: driverPID, TID: tid,
			Args: map[string]string{"name": "driver → " + layer},
		})
	}
	r.mu.Unlock()
	for _, f := range workerFiles {
		evs, err := loadTraceFile(f)
		if err != nil {
			return "", err
		}
		shiftUs := float64(traceEpochUnixNs(evs)-r.epoch.UnixNano()) / 1e3
		for _, ev := range evs {
			if ev.Ph == "M" && ev.Name == "clock_epoch" {
				continue
			}
			if ev.Ph == "X" {
				ev.TS += shiftUs
			}
			events = append(events, ev)
		}
	}
	path := filepath.Join(dir, r.workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	err = json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", err
	}
	for _, f := range workerFiles {
		os.Remove(f) // merged above; a leftover part is harmless
	}
	return path, nil
}
