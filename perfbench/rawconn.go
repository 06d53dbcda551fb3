package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"os"
	"syscall"
)

// rawConn is one keep-alive HTTP/1.1 connection to lmtd on a blocking
// socket, used by serve's measured window. A request is one write and its
// response blocking reads on the caller's own thread: net/http's Transport
// hands each request and response between the caller and two goroutines of
// its own, and each hand-off to a caller locked to its thread wakes that
// thread, a delay the host's load sets and the benchmark would add to every
// latency it measures.
type rawConn struct {
	addr string
	f    *os.File
	br   *bufio.Reader
	buf  []byte
}

// dialRaw connects to addr (ip:port, IPv4).
func dialRaw(addr string) (*rawConn, error) {
	c := &rawConn{addr: addr}
	return c, c.dial()
}

func (c *rawConn) dial() error {
	f, err := dialBlocking(c.addr)
	if err != nil {
		return err
	}
	c.f = f
	c.br = bufio.NewReaderSize(f, 64<<10)
	return nil
}

// dialBlocking connects to addr (ip:port, IPv4) with a blocking TCP socket
// whose reads and writes time out after serveTimeout. Reads and writes of
// the returned file are plain syscalls on the caller's thread.
func dialBlocking(addr string) (*os.File, error) {
	ap, err := netip.ParseAddrPort(addr)
	if err != nil || !ap.Addr().Is4() {
		return nil, fmt.Errorf("dial %s: want an IPv4 ip:port", addr)
	}
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	tv := syscall.NsecToTimeval(int64(serveTimeout))
	for _, err := range []error{
		syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1),
		syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_RCVTIMEO, &tv),
		syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_SNDTIMEO, &tv),
		connect(fd, &syscall.SockaddrInet4{Port: int(ap.Port()), Addr: ap.Addr().As4()}),
	} {
		if err != nil {
			syscall.Close(fd)
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
	}
	return os.NewFile(uintptr(fd), "tcp "+addr), nil // a blocking fd: the runtime's poller stays out
}

func connect(fd int, sa syscall.Sockaddr) error {
	for {
		if err := syscall.Connect(fd, sa); err != syscall.EINTR {
			return err
		}
	}
}

// post sends body to path and returns the status and the response body.
// After an error the connection is closed, and the next post dials again.
func (c *rawConn) post(path string, body []byte) (int, []byte, error) {
	status, b, err := c.roundTrip(path, body)
	if err != nil {
		c.Close()
	}
	return status, b, err
}

func (c *rawConn) roundTrip(path string, body []byte) (int, []byte, error) {
	if c.f == nil {
		if err := c.dial(); err != nil {
			return 0, nil, err
		}
	}
	c.buf = fmt.Appendf(c.buf[:0], "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		path, c.addr, len(body))
	c.buf = append(c.buf, body...)
	if _, err := c.f.Write(c.buf); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Close {
		c.Close() // lmtd ends the connection after this response: dial again next time
	}
	return resp.StatusCode, b, err
}

// Close closes the connection; closing a closed one does nothing.
func (c *rawConn) Close() {
	if c.f != nil {
		c.f.Close()
		c.f = nil
	}
}
