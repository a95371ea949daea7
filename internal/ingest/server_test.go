package ingest

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"

	"sensorguard/internal/chaos"
	"sensorguard/internal/vecmat"
)

// collectConsumer records every submitted reading.
type collectConsumer struct {
	mu       sync.Mutex
	readings []Reading
}

func (c *collectConsumer) SubmitBatch(rs []Reading) (int, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.readings = append(c.readings, rs...)
	return len(rs), 0, nil
}

func (c *collectConsumer) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.readings)
}

func ingestLine(t *testing.T, seconds int) []byte {
	t.Helper()
	r := Reading{Deployment: "gdi"}
	r.Time = time.Duration(seconds) * time.Second
	r.Values = vecmat.Vector{12.5, 94}
	line, err := EncodeLine(r)
	if err != nil {
		t.Fatal(err)
	}
	return append(line, '\n')
}

// listenTCP returns a loopback listener on an ephemeral port.
func listenTCP(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestTCPServerDeliversStream(t *testing.T) {
	sink := &collectConsumer{}
	srv := ServeTCP(listenTCP(t), sink, DefaultTCPIdleTimeout, StreamOptions{})
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := conn.Write(ingestLine(t, 300*(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	conn.Close()
	waitFor(t, 2*time.Second, func() bool { return sink.count() == 5 },
		fmt.Sprintf("server delivered %d of 5 readings", sink.count()))
}

// TestTCPAcceptRetriesTransientErrors pins the accept-loop fix: temporary
// accept failures (EMFILE-style descriptor exhaustion) must not kill the
// listener — the loop backs off, retries, and the next accept serves.
func TestTCPAcceptRetriesTransientErrors(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := chaos.WrapListener(inner)
	ln.FailNextAccepts(4, syscall.EMFILE)

	sink := &collectConsumer{}
	srv := ServeTCP(ln, sink, 0, StreamOptions{})
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(ingestLine(t, 300)); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitFor(t, 5*time.Second, func() bool { return sink.count() == 1 },
		"listener never recovered from transient accept errors")
	if got := ln.Accepted(); got != 1 {
		t.Fatalf("listener accepted %d connections, want 1", got)
	}
}

// TestTCPIdleTimeoutSeversStalledConn checks the half-open-client defence: a
// connection that goes silent past the idle timeout is severed by the server.
func TestTCPIdleTimeoutSeversStalledConn(t *testing.T) {
	sink := &collectConsumer{}
	srv := ServeTCP(listenTCP(t), sink, 80*time.Millisecond, StreamOptions{})
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(ingestLine(t, 300)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return sink.count() == 1 },
		"reading before the stall never arrived")

	// Go silent. The server must close its end; our read then fails.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("connection still open long after the idle timeout")
	}
}

// TestTCPIdleTimeoutSparesLiveProducer checks the deadline resets per read: a
// producer pausing less than the idle timeout between lines — but streaming
// for several multiples of it overall — is never cut off.
func TestTCPIdleTimeoutSparesLiveProducer(t *testing.T) {
	sink := &collectConsumer{}
	srv := ServeTCP(listenTCP(t), sink, 150*time.Millisecond, StreamOptions{})
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const n = 12 // 12 × 50ms = 600ms of streaming, 4× the idle timeout
	for i := 0; i < n; i++ {
		if _, err := conn.Write(ingestLine(t, 300*(i+1))); err != nil {
			t.Fatalf("write %d failed — live producer was severed: %v", i, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	waitFor(t, 2*time.Second, func() bool { return sink.count() == n },
		fmt.Sprintf("server delivered %d of %d readings", sink.count(), n))
}

// lateConnListener is a listener whose Close hands one last connection to
// the pending Accept before reporting itself closed: a real listener can
// complete a handshake in the instant before it closes.
type lateConnListener struct {
	conns  chan net.Conn
	closed chan struct{}
	late   net.Conn
}

func (l *lateConnListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *lateConnListener) Close() error {
	l.conns <- l.late
	close(l.closed)
	return nil
}

func (l *lateConnListener) Addr() net.Addr { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }

// TestTCPCloseSeversLateConnection: a connection the listener hands over
// while Close is shutting it down must still be closed, or Close waits on
// its stream forever (idle = 0 sets no deadline to end it).
func TestTCPCloseSeversLateConnection(t *testing.T) {
	for i := 0; i < 50; i++ {
		server, client := net.Pipe()
		ln := &lateConnListener{conns: make(chan net.Conn), closed: make(chan struct{}), late: server}
		srv := ServeTCP(ln, &collectConsumer{}, 0, StreamOptions{})
		closed := make(chan error, 1)
		go func() { closed <- srv.Close() }()
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Fatalf("iteration %d: Close still waiting on the late connection", i)
		}
		client.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := client.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
			t.Fatalf("iteration %d: late connection left open: read returned %v", i, err)
		}
		client.Close()
	}
}
