package faults

import (
	"fmt"
	"net"
	"time"
)

// Conn wraps a net.Conn and injects the owner's fault mix into every Read
// and Write: delays stall the op, drops kill the connection with
// ErrInjected, and partial writes push a prefix of the buffer into the
// transport before killing it — the truncated-frame case a length-prefixed
// protocol must treat as poison. Everything else — Close, addresses and
// deadlines, so smb.StreamClient's per-op deadlines — is the wrapped
// connection's own.
type Conn struct {
	net.Conn
	inj *Injector

	// dead latches the first injected drop: once a connection drops, every
	// later op fails the same way, matching a real broken socket. Reads
	// and writes on an smb connection are already serialized by the
	// client/handler, so a plain bool with no lock is deliberate — the
	// wrapper must not add synchronization the wrapped protocol doesn't
	// have.
	dead bool
}

// WrapConn returns conn with i's fault mix injected. A nil injector (or a
// config that injects nothing) still wraps, costing one PRNG draw per op.
func (i *Injector) WrapConn(conn net.Conn) *Conn {
	return &Conn{Conn: conn, inj: i}
}

// enter applies the shared pre-op faults (delay, drop). It reports whether
// the op may proceed.
func (c *Conn) enter(op string) error {
	if c.dead {
		return fmt.Errorf("faults: %s on dropped connection: %w", op, ErrInjected)
	}
	if d := c.inj.drawDelay(); d > 0 {
		time.Sleep(d)
	}
	if c.inj.drawDrop() {
		c.dead = true
		c.Conn.Close()
		return fmt.Errorf("faults: %s dropped: %w", op, ErrInjected)
	}
	return nil
}

// Read implements io.Reader with fault injection.
//
//lint:ignore netdeadline a pass-through: deadlines set on the wrapper are the wrapped connection's own, armed by its caller
func (c *Conn) Read(p []byte) (int, error) {
	if err := c.enter("read"); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

// Write implements io.Writer with fault injection.
//
//lint:ignore netdeadline a pass-through: deadlines set on the wrapper are the wrapped connection's own, armed by its caller
func (c *Conn) Write(p []byte) (int, error) {
	if err := c.enter("write"); err != nil {
		return 0, err
	}
	if keep, ok := c.inj.drawPartial(len(p)); ok {
		n, err := c.Conn.Write(p[:keep])
		c.dead = true
		c.Conn.Close()
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("faults: write truncated after %d/%d bytes: %w", n, len(p), ErrInjected)
	}
	return c.Conn.Write(p)
}

// Listener wraps accepted connections of a net.Listener with an injector —
// the server-side chaos tap used by cmd/smbserver's chaos flags.
type Listener struct {
	net.Listener
	inj *Injector
}

// WrapListener returns ln with every accepted connection fault-wrapped.
func (i *Injector) WrapListener(ln net.Listener) *Listener {
	return &Listener{Listener: ln, inj: i}
}

// Accept fault-wraps the accepted connection.
func (l *Listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.inj.WrapConn(conn), nil
}
