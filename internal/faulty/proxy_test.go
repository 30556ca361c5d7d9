package faulty

import (
	"net"
	"strings"
	"testing"
	"time"
)

// echoBackend accepts connections and echoes bytes back.
func echoBackend(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 256)
				for {
					n, err := c.Read(buf)
					if err != nil {
						return
					}
					if _, err := c.Write(buf[:n]); err != nil {
						return
					}
				}
			}(c)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln
}

func dialProxy(t *testing.T, p *Proxy) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestProxyPassForwards(t *testing.T) {
	ln := echoBackend(t)
	p, err := NewProxy(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c := dialProxy(t, p)
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := readFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "ping" {
		t.Fatalf("echoed %q", buf)
	}
}

func TestProxyStallNeverAnswers(t *testing.T) {
	ln := echoBackend(t)
	p, err := NewProxy(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.SetMode(ProxyStall)
	c := dialProxy(t, p)
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	buf := make([]byte, 4)
	n, err := c.Read(buf)
	if n != 0 || err == nil {
		t.Fatalf("stalled proxy answered: n=%d err=%v", n, err)
	}
	ne, ok := err.(net.Error)
	if !ok || !ne.Timeout() {
		t.Fatalf("want a read timeout, got %v", err)
	}
}

func TestProxyResetSeversMidStream(t *testing.T) {
	ln := echoBackend(t)
	p, err := NewProxy(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c := dialProxy(t, p)
	// Healthy round trip first: the connection is established and live.
	if _, err := c.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := readFull(c, buf); err != nil {
		t.Fatal(err)
	}
	// Flip to reset: the in-flight connection dies, not just new ones.
	p.SetMode(ProxyReset)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(buf); err == nil {
		t.Fatal("read succeeded after a mid-stream reset")
	}
	// New connections are refused with a reset as well.  The proxy
	// accepts and closes with linger 0, so the RST can reach the client
	// before its connect returns: that dial error is the refusal too.
	c2, err := net.Dial("tcp", p.Addr())
	if err != nil {
		if !strings.Contains(err.Error(), "reset") {
			t.Fatalf("dial against a resetting proxy: %v", err)
		}
		return
	}
	defer c2.Close()
	c2.Write([]byte("x"))
	c2.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, rerr := c2.Read(buf)
	if rerr == nil {
		t.Fatal("read succeeded against a resetting proxy")
	}
	if strings.Contains(rerr.Error(), "timeout") {
		t.Fatalf("reset came back as a timeout: %v", rerr)
	}
}

func TestProxyBackendGoneResets(t *testing.T) {
	ln := echoBackend(t)
	addr := ln.Addr().String()
	p, err := NewProxy(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ln.Close() // the "process" dies; the proxy stays up
	// The reset may land during the handshake or on the first read;
	// either way the client must see an error, never a response.
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		return
	}
	defer c.Close()
	c.Write([]byte("ping"))
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 4)
	if _, err := c.Read(buf); err == nil {
		t.Fatal("read succeeded with no backend")
	}
}

func readFull(c net.Conn, buf []byte) (int, error) {
	total := 0
	for total < len(buf) {
		n, err := c.Read(buf[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
