package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the enclosing span's index (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, op int64, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now})
	return int32(len(t.spans) - 1)
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, op int64, parent int32, fn func()) {
	id := t.begin(name, op, parent)
	fn()
	t.end(id)
}

// layerTime is one span name's aggregate.
type layerTime struct {
	Count  int64   `json:"count"`
	SelfMS float64 `json:"self_ms"` // total self time
	WallMS float64 `json:"wall_ms"` // total duration
}

// MeanSelf is the mean self time per call, ms.
func (l layerTime) MeanSelf() float64 {
	if l.Count == 0 {
		return 0
	}
	return l.SelfMS / float64(l.Count)
}

// layers aggregates self time (duration minus the part covered by child
// spans) and call counts per span name.
func (t *tracer) layers() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]layerTime)
	for i, s := range t.spans {
		d := s.End - s.Start
		l := out[s.Name]
		l.Count++
		l.WallMS += float64(d) / 1e6
		l.SelfMS += float64(d-child[i]) / 1e6
		out[s.Name] = l
	}
	return out
}

// durations returns every duration of span name, ms, by op id.
func (t *tracer) durations(name string) map[int64]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int64]float64)
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Op] += float64(s.End-s.Start) / 1e6
		}
	}
	return out
}

// write stores the spans and the per-layer table under dir, and prints
// the table.
func (t *tracer) write(dir, stem string) error {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	if err := writeJSON(filepath.Join(dir, stem+"-spans.json"), spans); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	ls := t.layers()
	names := make([]string, 0, len(ls))
	for n := range ls {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-24s %8s %12s %12s %12s\n", "span", "count", "self_ms", "wall_ms", "self_ms/call")
	for _, n := range names {
		l := ls[n]
		fmt.Fprintf(&sb, "%-24s %8d %12.3f %12.3f %12.4f\n", n, l.Count, l.SelfMS, l.WallMS, l.MeanSelf())
	}
	fmt.Printf("spans: %d written to %s\n%s", len(spans), filepath.Join(dir, stem+"-spans.json"), sb.String())
	return os.WriteFile(filepath.Join(dir, stem+"-layers.txt"), []byte(sb.String()), 0o644)
}
