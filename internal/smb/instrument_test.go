package smb

import (
	"strings"
	"testing"

	"shmcaffe/internal/telemetry"
	"shmcaffe/internal/tensor"
)

// TestStoreInstrumented: with a registry installed, traffic must show up in
// both the scrape-time counter views and the latency histograms.
func TestStoreInstrumented(t *testing.T) {
	reg := telemetry.NewRegistry()
	store := NewStore()
	store.Instrument(reg)

	key, err := store.Create("wg", 1024)
	if err != nil {
		t.Fatal(err)
	}
	dKey, err := store.Create("dw", 1024)
	if err != nil {
		t.Fatal(err)
	}
	hg, _ := store.Attach(key)
	hd, _ := store.Attach(dKey)
	buf := tensor.Float32Bytes(onesVec(256))
	if err := store.Write(hd, 0, buf); err != nil {
		t.Fatal(err)
	}
	if err := store.Read(hg, 0, buf); err != nil {
		t.Fatal(err)
	}
	if err := store.Accumulate(hg, hd); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"smb_creates_total 2",
		"smb_reads_total 1",
		"smb_writes_total 1",
		"smb_accumulates_total 1",
		"smb_segments 2",
		"smb_accumulate_seconds_count 1",
		"smb_accumulate_stripe_wait_seconds_count 1",
		"smb_read_seconds_count 1",
		"smb_write_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestStreamClientInstrumented covers the wire RTT histograms end to end.
func TestStreamClientInstrumented(t *testing.T) {
	store := NewStore()
	server, err := NewServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	go server.Serve()

	reg := telemetry.NewRegistry()
	client, err := Dial(server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.Instrument(reg)

	key, err := client.Create("wg", 256)
	if err != nil {
		t.Fatal(err)
	}
	h, err := client.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	if err := client.Write(h, 0, buf); err != nil {
		t.Fatal(err)
	}
	if err := client.Read(h, 0, buf); err != nil {
		t.Fatal(err)
	}
	if err := client.Accumulate(h, h); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`smb_client_rtt_seconds_count{op="read"} 1`,
		`smb_client_rtt_seconds_count{op="write"} 1`,
		`smb_client_rtt_seconds_count{op="accumulate"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}
