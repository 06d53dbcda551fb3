package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around a
// public entry point. Times are offsets from the tracer's origin.
type Span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"` // 0 = root
	Req    int64         `json:"req"`              // request (job) the span belongs to
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pay one nil check per call site.
type Tracer struct {
	origin time.Time
	mu     sync.Mutex
	next   int64
	spans  []Span
}

func newTracer() *Tracer { return &Tracer{origin: time.Now()} }

// open is a started span; end records it.
type open struct {
	t      *Tracer
	id     int64
	parent int64
	req    int64
	name   string
	start  time.Time
}

// begin starts a span named name under parent (0 for a root span).
func (t *Tracer) begin(name string, parent, req int64) open {
	if t == nil {
		return open{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return open{t: t, id: id, parent: parent, req: req, name: name, start: time.Now()}
}

// end records the span and returns its duration.
func (o open) end() time.Duration {
	if o.t == nil {
		return 0
	}
	now := time.Now()
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, Span{ID: o.id, Parent: o.parent, Req: o.req, Name: o.name,
		Start: o.start.Sub(o.t.origin), End: now.Sub(o.t.origin)})
	o.t.mu.Unlock()
	return now.Sub(o.start)
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children's intervals covers.
func selfTimes(spans []Span) map[int64]time.Duration {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the child intervals clipped to the
// parent's interval.
func covered(parent Span, kids []Span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// spanSummary aggregates spans by name.
type spanSummary struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

func summarize(spans []Span) []spanSummary {
	self := selfTimes(spans)
	by := make(map[string]*spanSummary)
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &spanSummary{Name: s.Name}
			by[s.Name] = a
		}
		a.Count++
		a.Total += s.End - s.Start
		a.Self += self[s.ID]
	}
	out := make([]spanSummary, 0, len(by))
	for _, a := range by {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// printSummary writes the per-name span table.
func printSummary(w io.Writer, spans []Span) {
	fmt.Fprintf(w, "%-34s %8s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "mean_self_us")
	for _, a := range summarize(spans) {
		fmt.Fprintf(w, "%-34s %8d %12.3f %12.3f %12.1f\n", a.Name, a.Count,
			a.Total.Seconds()*1e3, a.Self.Seconds()*1e3, a.Self.Seconds()*1e6/float64(a.Count))
	}
}

// writeSpans dumps every span as JSON lines.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
