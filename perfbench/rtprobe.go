package main

import (
	"fmt"
	"net"
	"os"
	"sort"
	"time"
)

// The round-trip probe: once per slice of serve's window, the benchmark
// times a one-byte ping to an echo server of its own, over loopback TCP
// from a blocking socket to a Go server goroutine woken by the runtime's
// poller, the path every serve request takes before lmtd does any work.
//
// serve's median request is a result-cache hit that costs lmtd about 5 us
// in service.Run and arrives at a machine that has idled for about 3 ms;
// nearly all of its latency is the host waking the server's and the
// client's threads and refilling caches the host's other tenants evicted.
// On a shared host that drifts by tens of percent over minutes with no CPU
// time stolen: in six serve runs on the reference host the probe's median
// went from 84 to 101 us and serve's p50 followed it with a correlation of
// 0.94; dividing the probe out took p50's spread over the runs from 0.16
// to 0.08. serve's p50 is therefore reported at the reference round trip
// rtRefUS (see outcome.e2e). The probe is the benchmark's own code: a
// change to lmtd, its HTTP and JSON handling included, does not change what
// it measures. The tail (8-task batches) and CPU per request (mostly fresh
// computations) are compute-bound and are not scaled.
const (
	rtProbePings = 21                   // pings per slice; the slice's figure is their median
	rtProbeGap   = 2 * time.Millisecond // idle time before each ping, as before a serve request
	rtRefUS      = 100.0                // reference round trip, us
)

type rtProbe struct {
	ln   net.Listener
	f    *os.File // the pinging end
	done chan struct{}
}

// startRTProbe starts the echo server and connects to it.
func startRTProbe() (*rtProbe, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("round-trip probe: %w", err)
	}
	p := &rtProbe{ln: ln, done: make(chan struct{})}
	go p.echo()
	if p.f, err = dialBlocking(ln.Addr().String()); err != nil {
		ln.Close()
		<-p.done
		return nil, fmt.Errorf("round-trip probe: %w", err)
	}
	return p, nil
}

// echo serves the probe's one connection until it closes.
func (p *rtProbe) echo() {
	defer close(p.done)
	c, err := p.ln.Accept()
	if err != nil {
		return // closed before the probe connected
	}
	defer c.Close()
	buf := make([]byte, 64)
	for {
		n, err := c.Read(buf)
		if err != nil {
			return
		}
		if _, err := c.Write(buf[:n]); err != nil {
			return
		}
	}
}

// rttUS pings rtProbePings times and returns the median round trip in us.
func (p *rtProbe) rttUS() (float64, error) {
	rtt := make([]float64, 0, rtProbePings)
	b := []byte{1}
	for i := 0; i < rtProbePings; i++ {
		time.Sleep(rtProbeGap)
		t0 := time.Now()
		if _, err := p.f.Write(b); err != nil {
			return 0, err
		}
		if _, err := p.f.Read(b); err != nil {
			return 0, err
		}
		rtt = append(rtt, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	sort.Float64s(rtt)
	return quantile(rtt, 0.5), nil
}

// close closes both ends and waits for the echo server to end.
func (p *rtProbe) close() {
	p.f.Close()
	p.ln.Close()
	<-p.done
}
