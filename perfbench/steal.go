package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sliceLen is the length of the slices a measured window is cut into.
const sliceLen = time.Second

// calmSlices returns the calmer half of the slices (rounded up): those
// with the least CPU time stolen by the hypervisor, ties broken by order.
//
// On a shared virtual machine the hypervisor steals CPU time in phases of
// seconds, and stolen time shifts request latency by tens of percent (on
// the reference host, serve's median went from 0.9 ms in a slice with 8%
// steal to 1.9 ms in one with 30%). Dropping the slices with the most steal
// removes much of that interference and keeps what the program itself
// does, GC pauses and stalls included, since those do not follow the
// host's steal. Always keeping half, also on a quiet host, keeps the sample
// count and so the tail percentile chosen for tail_ms the same from run to
// run.
func calmSlices(steal []int64) map[int]bool {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	calm := make(map[int]bool)
	for _, i := range idx[:(len(idx)+1)/2] {
		calm[i] = true
	}
	return calm
}

// stealShare is the share of the machine's CPU time (every CPU, for d)
// that the hypervisor stole, given the stolen ticks.
func stealShare(ticks int64, d time.Duration) float64 {
	capacity := float64(runtime.NumCPU()*clockTicks) * d.Seconds()
	if capacity <= 0 {
		return 0
	}
	return min(float64(ticks)/capacity, 0.9)
}

// stealMeter samples, once per slice, the machine's stolen CPU time, the
// peak resident set of the system under test in the slice and, with a
// probe, the host's loopback round trip.
type stealMeter struct {
	stop, done chan struct{}
	steal      []int64
	hwm        []int64 // summed peak resident bytes per slice; nil if the peak cannot be reset
	probe      *rtProbe
	rtt        []float64 // probe round trips, us
}

// startSteal starts sampling at the window start. pids are the processes
// of the system under test ("self": the benchmark); probe may be nil.
func startSteal(start time.Time, pids []string, probe *rtProbe) *stealMeter {
	m := &stealMeter{stop: make(chan struct{}), done: make(chan struct{}), probe: probe}
	go func() {
		defer close(m.done)
		time.Sleep(time.Until(start))
		prev := readSteal()
		perSlice := resetHWM(pids) == nil
		for k := 1; ; k++ {
			t := time.NewTimer(time.Until(start.Add(time.Duration(k) * sliceLen)))
			select {
			case <-m.stop:
				t.Stop()
				return
			case <-t.C:
			}
			cur := readSteal()
			m.steal = append(m.steal, cur-prev)
			prev = cur
			if perSlice {
				var sum int64
				for _, pid := range pids {
					hwm, err := procHWM(pid)
					perSlice = perSlice && err == nil
					sum += hwm
				}
				perSlice = perSlice && resetHWM(pids) == nil
				m.hwm = append(m.hwm, sum)
				if !perSlice {
					m.hwm = nil
				}
			}
			if m.probe != nil {
				if rtt, err := m.probe.rttUS(); err == nil { // a failed ping leaves the slice out
					m.rtt = append(m.rtt, rtt)
				}
			}
		}
	}()
	return m
}

// finish waits until the window that began at start and lasted window has
// passed, stops sampling and returns the steal of every whole slice.
func (m *stealMeter) finish(start time.Time, window time.Duration) []int64 {
	time.Sleep(time.Until(start.Add(window + sliceLen/10))) // let the last slice close
	close(m.stop)
	<-m.done
	return m.steal
}

// rttUS is the median probe round trip in us after finish; 0 without a
// probe.
func (m *stealMeter) rttUS() float64 { return medianOrZero(m.rtt) }

// sliceHWM is the median over the slices of the peak resident bytes in a
// slice after finish; 0 where the peak could not be reset.
func (m *stealMeter) sliceHWM() int64 {
	xs := make([]float64, len(m.hwm))
	for i, h := range m.hwm {
		xs[i] = float64(h)
	}
	return int64(medianOrZero(xs))
}

func medianOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// readSteal returns the machine-wide stolen time in clock ticks from
// /proc/stat, or 0 where it is not available.
func readSteal() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64) // malformed: no steal information
	return v
}
