package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sampleTrace is a hand-built trace: per worker, 10ms of compute, 6ms of
// hidden T.A work, 3ms exposed, 1ms blocked.
const sampleTrace = `{"traceEvents":[
{"name":"T1","cat":"seasgd","ph":"X","ts":0,"dur":2000,"pid":0,"tid":0},
{"name":"T2","cat":"seasgd","ph":"X","ts":2000,"dur":1000,"pid":0,"tid":0},
{"name":"T4+T5","cat":"seasgd","ph":"X","ts":3000,"dur":10000,"pid":0,"tid":0},
{"name":"T.A1","cat":"seasgd","ph":"X","ts":3000,"dur":500,"pid":0,"tid":1},
{"name":"T.A3","cat":"seasgd","ph":"X","ts":3500,"dur":4500,"pid":0,"tid":1},
{"name":"T.A4","cat":"seasgd","ph":"X","ts":8000,"dur":1000,"pid":0,"tid":1},
{"name":"T.A5","cat":"seasgd","ph":"X","ts":13000,"dur":1000,"pid":0,"tid":0},
{"name":"process_name","ph":"M","pid":0,"args":{"name":"train"}}
]}`

func TestTraceReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := os.WriteFile(path, []byte(sampleTrace), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-trace", path}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"Phase breakdown",
		"T4+T5",
		"compute",
		"T.A3",
		"hidden",
		"workers: 1",
		"overlap ratio (hidden/compute): 0.600",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
}

func TestTraceReportCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := os.WriteFile(path, []byte(sampleTrace), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-trace", path, "-csv"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "T4+T5") {
		t.Fatalf("CSV report missing compute row:\n%s", out.String())
	}
}

func TestTraceReportRejectsEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := os.WriteFile(path, []byte(`{"traceEvents":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-trace", path}, &out); err == nil {
		t.Fatal("expected error for a trace with no phase spans")
	}
}
