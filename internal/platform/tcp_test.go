package platform

import (
	"errors"
	"testing"

	"shmcaffe/internal/smb"
)

// TestShmCaffeAOverTCP runs the full SEASGD platform against a real SMB
// server over TCP — the deployment shape of the paper (workers on GPU
// nodes, memory server across the fabric).
func TestShmCaffeAOverTCP(t *testing.T) {
	srv, err := smb.NewServer(smb.NewStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve()
	}()
	defer func() {
		srv.Close()
		<-done
	}()

	cfg := testConfig(t, 2, 21)
	cfg.SMBAddr = srv.Addr()
	cfg.Job = "tcp-test"
	res, err := (ShmCaffeA{}).Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertLearned(t, res, 0.6)

	// The server must have seen the segment family and the accumulates.
	st := srv.Store().Stats()
	if st.Accumulates == 0 {
		t.Fatal("no accumulates reached the TCP server")
	}
	if _, err := srv.Store().Lookup(smb.SegmentNames{Job: "tcp-test"}.Global()); err != nil {
		t.Fatalf("global segment missing on server: %v", err)
	}
}

func TestShmCaffeADialFailure(t *testing.T) {
	cfg := testConfig(t, 2, 22)
	cfg.SMBAddr = "127.0.0.1:1" // nothing listens here
	_, err := (ShmCaffeA{}).Train(cfg)
	if err == nil {
		t.Fatal("expected dial error")
	}
	if errors.Is(err, ErrConfig) {
		t.Fatalf("an unreachable server is not a configuration error: %v", err)
	}
}

// TestShmCaffeHOverTCP drives the hybrid platform against a TCP SMB server:
// only group roots talk to the server, members stay on the in-process
// NCCL ring.
func TestShmCaffeHOverTCP(t *testing.T) {
	srv, err := smb.NewServer(smb.NewStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve()
	}()
	defer func() {
		srv.Close()
		<-done
	}()

	cfg := testConfig(t, 4, 23)
	cfg.GroupSize = 2
	cfg.SMBAddr = srv.Addr()
	cfg.Job = "tcp-h"
	res, err := (ShmCaffeH{}).Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertLearned(t, res, 0.6)
	// Only the two group roots push increments.
	names := smb.SegmentNames{Job: "tcp-h"}
	for gi := 0; gi < 2; gi++ {
		if _, err := srv.Store().Lookup(names.Increment(gi)); err != nil {
			t.Fatalf("group %d increment missing: %v", gi, err)
		}
	}
	if _, err := srv.Store().Lookup(names.Increment(2)); err == nil {
		t.Fatal("non-root increment segment exists")
	}
}
