package service

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"repro/internal/spec"
)

// ResultCache memoizes completed Responses: an LRU keyed by the canonical
// request key, fronted by a singleflight group so N concurrent identical
// requests cost one runner invocation and N−1 waiters. Every request the
// service accepts is deterministic once its seed is resolved — a
// (graph key, normalized task key) pair has exactly one answer — so a hit
// may serve the stored result verbatim, with no graph build, no kernel, and
// no oracle run behind it.
//
// Only successful results are stored. Errors — including deadline
// cancellations, which abort a run midway, and recovered runner panics —
// complete their flight and are returned to that flight's waiters, but
// never enter the LRU: the cache cannot be poisoned by a partial or failed
// computation. A panicking leader still completes its flight (lead's
// deferred cleanup), so waiters can never be stranded on a crashed
// computation.
type ResultCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used; values are *resultEntry
	items   map[string]*list.Element
	flights map[string]*flight
	ctr     *counters
}

// resultEntry is one memoized result under its canonical key.
type resultEntry struct {
	key string
	val *cachedResult
}

// cachedResult is the stored portion of a Response: the runner's result,
// the run-graph descriptor for churned runs, and the JSON-encoded size used
// for the bytes gauge (measured by lead before the entry is inserted).
type cachedResult struct {
	result   any
	runGraph *GraphInfo
	bytes    int64
}

// flight is one in-progress computation; waiters block on done.
type flight struct {
	done chan struct{}
	val  *cachedResult
	err  error
}

// newResultCache builds a cache holding at most capEntries results.
func newResultCache(capEntries int, ctr *counters) *ResultCache {
	return &ResultCache{
		cap:     capEntries,
		ll:      list.New(),
		items:   make(map[string]*list.Element),
		flights: make(map[string]*flight),
		ctr:     ctr,
	}
}

// resultKey renders the canonical key of a normalized task over a graph.
// The task must already carry its resolved seed and filled defaults
// (Service.normalize).
func resultKey(graphKey string, t spec.TaskSpec) string {
	return graphKey + "|" + withoutSchedule(t).Key()
}

// withoutSchedule zeroes the schedule-only fields — Workers, SweepWorkers,
// DeadlineMS, Cluster — for the derived-seed hash and the result key alike:
// they never change a completed result (for Cluster, that is the
// determinism contract of internal/cluster).
func withoutSchedule(t spec.TaskSpec) spec.TaskSpec {
	t.Workers, t.SweepWorkers, t.DeadlineMS = 0, 0, 0
	t.Cluster = nil
	return t
}

// lookup serves a memoized result if one exists, refreshing its LRU
// position and counting the hit. Misses are not counted here — do counts
// them when a computation actually starts, so a fast-path miss that falls
// through to do is one miss, not two.
func (c *ResultCache) lookup(key string) (*cachedResult, bool) {
	c.mu.Lock()
	el, ok := c.items[key]
	if ok {
		c.ll.MoveToFront(el)
	}
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	c.ctr.resultHits.Add(1)
	return el.Value.(*resultEntry).val, true
}

// join attaches to an in-progress identical computation, if any. The caller
// must then wait on the returned flight (bounded by its own context); a
// successful flight's value may be served, a failed one must be recomputed
// by the caller (typically by falling through to the admitted do path).
func (c *ResultCache) join(key string) (*flight, bool) {
	c.mu.Lock()
	f, ok := c.flights[key]
	c.mu.Unlock()
	if ok {
		c.ctr.sfShared.Add(1)
	}
	return f, ok
}

// do is the singleflight entry point: serve the memoized result, else join
// an in-flight identical computation, else lead one by calling compute.
// shared reports that the result came from another request's flight. A
// failed flight is never served to other requests — its waiters loop and
// recompute with their own context, so one request's deadline abort cannot
// fail an identical request that had the budget to finish. The one
// exception is a panicked leader (ErrRunnerPanic): the waiters fail with
// the same tagged error instead of re-running a computation that crashes.
func (c *ResultCache) do(ctx context.Context, key string, compute func() (*cachedResult, error)) (val *cachedResult, hit, shared bool, err error) {
	for {
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			c.ll.MoveToFront(el)
			c.mu.Unlock()
			c.ctr.resultHits.Add(1)
			return el.Value.(*resultEntry).val, true, false, nil
		}
		if f, ok := c.flights[key]; ok {
			c.mu.Unlock()
			c.ctr.sfShared.Add(1)
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, false, true, ctx.Err()
			}
			if f.err == nil {
				return f.val, false, true, nil
			}
			if errors.Is(f.err, ErrRunnerPanic) {
				// The request is deterministic: a leader that panicked on it
				// would panic for us too. Fail with the leader's tagged error
				// instead of recomputing the crash.
				return nil, false, true, f.err
			}
			continue // the leader failed (e.g. its own deadline); retry under our own context
		}
		f := &flight{done: make(chan struct{})}
		c.flights[key] = f
		c.mu.Unlock()

		c.ctr.resultMisses.Add(1)
		c.lead(key, f, compute)
		return f.val, false, false, f.err
	}
}

// lead runs one computation as the flight's leader. The flight completes on
// every exit path — including a compute panic escaping its own recovery —
// via the deferred cleanup: the panic is converted to an ErrRunnerPanic
// error first, then the flight is deleted, a success is memoized, and done
// is closed, so waiters always unblock and a crashed leader leaks nothing.
func (c *ResultCache) lead(key string, f *flight, compute func() (*cachedResult, error)) {
	panicked := true
	defer func() {
		if panicked {
			f.val, f.err = nil, fmt.Errorf("%w: %v", ErrRunnerPanic, recover())
		}
		c.mu.Lock()
		delete(c.flights, key)
		if f.err == nil {
			c.insertLocked(key, f.val)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.val, f.err = compute()
	if f.err == nil && f.val.bytes == 0 {
		f.val.bytes = encodedSize(f.val.result)
	}
	panicked = false
}

// encodedSize returns the length of v's JSON encoding, for the bytes gauge.
// It counts the encoder's output instead of keeping it, and the caller
// measures before it takes the cache lock, so lookups never wait on an
// encode.
func encodedSize(v any) int64 {
	var n byteCounter
	if err := json.NewEncoder(&n).Encode(v); err != nil {
		return 0
	}
	return int64(n) - 1 // Encode ends the value with a newline
}

// byteCounter is an io.Writer that keeps only the number of bytes written.
type byteCounter int64

func (n *byteCounter) Write(p []byte) (int, error) {
	*n += byteCounter(len(p))
	return len(p), nil
}

// insertLocked stores a completed result and evicts from the LRU tail past
// capacity. Caller holds mu.
func (c *ResultCache) insertLocked(key string, val *cachedResult) {
	c.items[key] = c.ll.PushFront(&resultEntry{key: key, val: val})
	c.ctr.resultBytes.Add(val.bytes)
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		e := oldest.Value.(*resultEntry)
		delete(c.items, e.key)
		c.ctr.resultBytes.Add(-e.val.bytes)
		c.ctr.resultEvictions.Add(1)
	}
}

// len reports the number of memoized results.
func (c *ResultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
