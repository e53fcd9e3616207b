package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one
// operation (a solve, a time step) share Op; Parent indexes the span
// that caused this one, -1 for an operation's root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0     time.Time
	nextOp atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op returns a fresh operation id (0 when not tracing).
func (t *tracer) op() int64 {
	if t == nil {
		return 0
	}
	return t.nextOp.Add(1)
}

// begin opens a span and returns its index (-1 when not tracing).
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// snapshot returns the spans recorded from index from on.
func (t *tracer) snapshot(from int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[from:]...)
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores every span as a JSON array at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerOf names a span's layer: the module prefix of its name.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns, per layer, the self time of its spans — each
// span's duration minus the part covered by its child spans — in ms
// per operation. Spans are indexed relative to base (the tracer index
// of ss[0]); children of one span run one after another on the
// caller's goroutine, so their durations add up.
func selfTimes(ss []span, base int) map[string]float64 {
	child := make([]int64, len(ss))
	for _, s := range ss {
		if p := s.Parent - base; p >= 0 && p < len(ss) {
			child[p] += s.End - s.Start
		}
	}
	total := map[string]float64{}
	ops := map[int64]bool{}
	for i, s := range ss {
		self := s.End - s.Start - child[i]
		if self < 0 {
			self = 0
		}
		total[layerOf(s.Name)] += float64(self) / 1e6
		ops[s.Op] = true
	}
	for k := range total {
		total[k] /= float64(len(ops))
	}
	return total
}
