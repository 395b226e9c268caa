package smb_test

import (
	"errors"
	"os"
	"sync"
	"testing"
	"time"

	"shmcaffe/internal/rds"
	"shmcaffe/internal/smb"
	"shmcaffe/internal/tensor"
)

// TestSMBOverRDS runs the full SMB protocol over the RDS-like reliable
// datagram transport — the transport stack of the paper (SMB on modified
// RDS) end to end: handshake, segment creation, a multi-packet weight
// write, accumulate, and read-back.
func TestSMBOverRDS(t *testing.T) {
	serverEP, err := rds.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer serverEP.Close()

	store := smb.NewStore()
	srv, err := smb.NewServer(store, "127.0.0.1:0") // TCP listener unused here
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Accept RDS connections and serve SMB on each.
	var wg sync.WaitGroup
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		for {
			conn, err := serverEP.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				srv.ServeConn(conn)
			}()
		}
	}()

	clientEP, err := rds.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer clientEP.Close()
	conn, err := clientEP.Dial(serverEP.Addr())
	if err != nil {
		t.Fatal(err)
	}
	client := smb.NewStreamClient(conn)
	defer client.Close()

	// A weight vector spanning many RDS packets (256 KiB > 16 KiB MTU).
	const elems = 64 * 1024
	kw, err := client.Create("wg", elems*4)
	if err != nil {
		t.Fatal(err)
	}
	kd, err := client.Create("dw", elems*4)
	if err != nil {
		t.Fatal(err)
	}
	hw, err := client.Attach(kw)
	if err != nil {
		t.Fatal(err)
	}
	hd, err := client.Attach(kd)
	if err != nil {
		t.Fatal(err)
	}
	inc := make([]float32, elems)
	rng := tensor.NewRNG(1)
	for i := range inc {
		inc[i] = float32(rng.NormFloat64())
	}
	if err := client.Write(hd, 0, tensor.Float32Bytes(inc)); err != nil {
		t.Fatal(err)
	}
	if err := client.Accumulate(hw, hd); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, elems*4)
	if err := client.Read(hw, 0, buf); err != nil {
		t.Fatal(err)
	}
	got, err := tensor.Float32FromBytes(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range inc {
		if got[i] != inc[i] {
			t.Fatalf("element %d: %v vs %v", i, got[i], inc[i])
		}
	}
	// Stats flowed through the datagram transport.
	if store.Stats().Accumulates != 1 {
		t.Fatalf("server stats %+v", store.Stats())
	}
}

// TestOpTimeoutOverRDS: a client's op timeout holds over rds as it does
// over TCP. Against an rds peer that accepts and never answers, a
// StreamClient with a 200 ms op timeout fails a Lookup within a second,
// with an error matching both ErrTransport and os.ErrDeadlineExceeded, and
// the rds transport's supervised session reports failure instead of
// hanging.
func TestOpTimeoutOverRDS(t *testing.T) {
	const op = 200 * time.Millisecond
	peer, err := rds.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	go func() {
		for {
			// Accepted connections stay open on the endpoint, unread.
			if _, err := peer.Accept(); err != nil {
				return
			}
		}
	}()

	// lookup runs c.Lookup, failing the test if it is still blocked after
	// limit, and returns how long it took and its error.
	lookup := func(t *testing.T, c smb.Client, limit time.Duration) (time.Duration, error) {
		t.Helper()
		t0 := time.Now()
		done := make(chan error, 1)
		go func() {
			_, err := c.Lookup("wg")
			done <- err
		}()
		select {
		case err := <-done:
			return time.Since(t0), err
		case <-time.After(limit):
			t.Fatalf("lookup against a silent peer still blocked after %v", limit)
			return 0, nil
		}
	}

	t.Run("stream", func(t *testing.T) {
		ep, err := rds.ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close() // closes the client's connection too
		conn, err := ep.Dial(peer.Addr())
		if err != nil {
			t.Fatal(err)
		}
		c := smb.NewStreamClient(conn)
		c.SetTimeouts(op)
		took, err := lookup(t, c, 5*time.Second)
		if !errors.Is(err, smb.ErrTransport) || !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("lookup against a silent peer: %v, want ErrTransport and os.ErrDeadlineExceeded", err)
		}
		if took > time.Second {
			t.Fatalf("lookup failed after %v, want about the %v op timeout", took, op)
		}
	})
	t.Run("supervised", func(t *testing.T) {
		c, err := smb.DialTransport("rds", smb.DialOptions{Addr: peer.Addr(), OpTimeout: op})
		if err != nil {
			t.Fatal(err)
		}
		// Ten attempts of one op timeout each, plus the reconnect backoff.
		if _, err := lookup(t, c, 30*time.Second); !errors.Is(err, smb.ErrTransport) {
			t.Fatalf("supervised lookup against a silent peer: %v, want ErrTransport", err)
		}
		c.Close() // not deferred: a still-blocked lookup would hold its lock
	})
}
