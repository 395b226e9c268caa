package platform

import (
	"errors"
	"testing"

	"shmcaffe/internal/rds"
	"shmcaffe/internal/smb"
)

// TestShmCaffeAOverRDS runs the full SEASGD platform against an SMB server
// reached through the RDS-like reliable datagram transport — the complete
// paper stack: workers → SMB wire protocol → RDS → (UDP standing in for
// Infiniband).
func TestShmCaffeAOverRDS(t *testing.T) {
	ep, err := rds.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	srv, err := smb.NewServer(smb.NewStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go func() {
		for {
			conn, err := ep.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(conn)
		}
	}()

	cfg := testConfig(t, 2, 41)
	cfg.SMBAddr = ep.Addr()
	cfg.SMBTransport = "rds"
	cfg.Job = "rds-test"
	res, err := (ShmCaffeA{}).Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertLearned(t, res, 0.6)
	if srv.Store().Stats().Accumulates == 0 {
		t.Fatal("no accumulates crossed the RDS transport")
	}
}

func TestUnknownSMBTransport(t *testing.T) {
	cfg := testConfig(t, 2, 42)
	cfg.SMBAddr = "127.0.0.1:1"
	cfg.SMBTransport = "carrier-pigeon"
	if _, err := (ShmCaffeA{}).Train(cfg); !errors.Is(err, ErrConfig) {
		t.Fatalf("unknown transport: err = %v, want ErrConfig", err)
	}
}

// TestShmCaffeAUnreachableRDS: a bad address must fail before any MPI
// collective starts, on the rds session as on the tcp one — not strand the
// other ranks in a broadcast rank 0 never joins. An unreachable server is a
// transport fault, not a configuration error. Slow by construction: the
// supervised session spends its ten dial attempts, 2 s of handshake each.
func TestShmCaffeAUnreachableRDS(t *testing.T) {
	cfg := testConfig(t, 2, 43)
	cfg.SMBAddr = "127.0.0.1:1" // nothing listens here
	cfg.SMBTransport = "rds"
	_, err := (ShmCaffeA{}).Train(cfg)
	if !errors.Is(err, smb.ErrTransport) || errors.Is(err, ErrConfig) {
		t.Fatalf("unreachable rds server: err = %v, want ErrTransport and not ErrConfig", err)
	}
}
