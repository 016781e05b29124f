package faultinject

import (
	"net"
	"sync"
	"time"
)

// Network-level fault servers for federation chaos tests. Each one
// impersonates a peer that is broken in a specific, realistic way:
//
//   - BlackHole: TCP-alive but wedged — accepts and reads, never
//     answers. The worst peer: connections succeed, requests vanish,
//     only the caller's deadline ends the wait.
//   - Drip: alive and talking, uselessly slowly — trickles bytes that
//     never complete a response line, defeating naive "got some bytes"
//     liveness checks.
//
// A plain dead peer needs no helper: close its listener and dials fail
// fast with connection-refused.

// BlackHole is a listener that accepts connections and consumes
// requests without ever responding.
type BlackHole struct {
	ln   net.Listener
	wg   sync.WaitGroup
	done chan struct{}
}

// NewBlackHole starts a black hole on addr ("127.0.0.1:0" for an
// ephemeral port).
func NewBlackHole(addr string) (*BlackHole, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	b := &BlackHole{ln: ln, done: make(chan struct{})}
	b.wg.Add(1)
	go b.accept()
	return b, nil
}

// Addr is the listen address to hand to the system under test.
func (b *BlackHole) Addr() string { return b.ln.Addr().String() }

// Close stops the listener and hangs up every swallowed connection.
func (b *BlackHole) Close() error {
	select {
	case <-b.done:
		return nil
	default:
	}
	close(b.done)
	err := b.ln.Close()
	b.wg.Wait()
	return err
}

func (b *BlackHole) accept() {
	defer b.wg.Done()
	for {
		conn, err := b.ln.Accept()
		if err != nil {
			return
		}
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			defer conn.Close()
			buf := make([]byte, 4096)
			for {
				select {
				case <-b.done:
					return
				default:
				}
				// Keep the peer's writes flowing so it blocks on the read,
				// not the write — the realistic wedge.
				_ = conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
				if _, err := conn.Read(buf); err != nil {
					if ne, ok := err.(net.Error); ok && ne.Timeout() {
						continue
					}
					return
				}
			}
		}()
	}
}

// Drip is a listener that answers every connection with an endless
// trickle of bytes that never forms a complete response line.
type Drip struct {
	ln       net.Listener
	interval time.Duration
	wg       sync.WaitGroup
	done     chan struct{}
}

// NewDrip starts a drip server on addr emitting one byte per interval.
func NewDrip(addr string, interval time.Duration) (*Drip, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	d := &Drip{ln: ln, interval: interval, done: make(chan struct{})}
	d.wg.Add(1)
	go d.accept()
	return d, nil
}

// Addr is the listen address to hand to the system under test.
func (d *Drip) Addr() string { return d.ln.Addr().String() }

// Close stops the listener and every drip in progress.
func (d *Drip) Close() error {
	select {
	case <-d.done:
		return nil
	default:
	}
	close(d.done)
	err := d.ln.Close()
	d.wg.Wait()
	return err
}

func (d *Drip) accept() {
	defer d.wg.Done()
	for {
		conn, err := d.ln.Accept()
		if err != nil {
			return
		}
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			defer conn.Close()
			ticker := time.NewTicker(d.interval)
			defer ticker.Stop()
			for {
				select {
				case <-d.done:
					return
				case <-ticker.C:
					// A space is JSON whitespace: valid stream prefix, never a
					// complete line.
					if _, err := conn.Write([]byte(" ")); err != nil {
						return
					}
				}
			}
		}()
	}
}
