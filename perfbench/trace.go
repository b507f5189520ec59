package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one call into a layer, timed from the benchmark's side of the
// call. Spans of one request share req; spans the filesystem decorator
// records have req 0 and no parent, and are attributed by interval.
type span struct {
	name       string // "<layer>.<call>"
	start, end int64  // ns since the tracer's epoch
	id, parent uint64
	req        uint64
}

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.name, ".")
	return layer
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record stores a finished span and returns its id (0 when untraced).
func (t *tracer) record(name string, parent, req uint64, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	id := t.ids.Add(1)
	t.add(span{name: name, start: start.Sub(t.epoch).Nanoseconds(), end: end.Sub(t.epoch).Nanoseconds(),
		id: id, parent: parent, req: req})
	return id
}

// recordRequest stores the root span of request req, whose id is req:
// its children were recorded earlier with req as their parent.
func (t *tracer) recordRequest(name string, req uint64, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(span{name: name, start: start.Sub(t.epoch).Nanoseconds(), end: end.Sub(t.epoch).Nanoseconds(),
		id: req, req: req})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops every span recorded so far.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// newReq returns a fresh request id (0 when untraced).
func (t *tracer) newReq() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// layerChildren names, for each layer whose self time is reported, the
// layers that run inside its calls. The filesystem and checkpoint spans
// come from other goroutines than the call that waits on them, so they
// are attributed by interval, not by parent id.
var layerChildren = map[string][]string{
	"pam":       nil,
	"rangetree": nil,
	"serve":     {"ckpt", "fs"},
	"ckpt":      {"fs"},
	"fs":        nil,
}

// selfTimes returns, per layer, the wall time covered by its spans minus
// the part of it covered by its child layers' spans, in seconds.
func (t *tracer) selfTimes() map[string]float64 {
	byLayer := map[string][]interval{}
	for _, s := range t.spans {
		byLayer[s.layer()] = append(byLayer[s.layer()], interval{s.start, s.end})
	}
	out := map[string]float64{}
	for layer, children := range layerChildren {
		own := union(byLayer[layer])
		var kids []interval
		for _, c := range children {
			kids = append(kids, byLayer[c]...)
		}
		out[layer] = float64(length(own)-overlap(own, union(kids))) / 1e9
	}
	return out
}

// dump writes every span as one tab-separated line.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\treq\tname\tstart_ns\tend_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.req, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
