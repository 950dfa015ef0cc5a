package main

import (
	"sort"
	"sync"
	"time"
)

// Tracing from outside the program: the traced run drives each op as the
// public calls of its layers and records one span around each call. Spans
// stay in memory until the run ends; the untraced run never touches this
// file, so end-to-end numbers carry no tracing cost.

type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`     // spans of one op share it
	Parent int    `json:"parent"` // index of the causing span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end and for children. A nil
// tracer records nothing, so call sites need no "if traced".
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	// SelfMs is total minus the part of each span its children cover;
	// overlapping children (fields compressed concurrently) count once.
	SelfMs float64 `json:"self_ms"`
}

func (t *tracer) summary() map[string]spanStat {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]spanStat)
	for i, s := range spans {
		st := out[s.Name]
		st.Count++
		d := s.End - s.Start
		st.TotalMs += float64(d) / 1e6
		st.SelfMs += float64(d-covered(children[i])) / 1e6
		out[s.Name] = st
	}
	return out
}

// covered is the length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// durationsMs returns each span of the given name as milliseconds.
func (t *tracer) durationsMs(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}
