package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer. Name is
// "layer.function"; Parent is the ID of the span that caused it (0 for
// none); Run is the repetition it belongs to. Times are offsets from the
// recorder's start.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Run    int           `json:"run"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps spans in memory until the benchmark writes them out. A
// nil *recorder records nothing, so untraced runs pay one nil check per
// call site.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	run   int
	spans []Span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// setRun tags later spans with repetition n.
func (r *recorder) setRun(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.run = n
	r.mu.Unlock()
}

// add records a finished span and returns its ID (0 on a nil recorder).
func (r *recorder) add(name string, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Run: r.run, Name: name,
		Start: start.Sub(r.t0), End: end.Sub(r.t0)})
	return id
}

// open records a span that has started and returns its ID; close sets its
// end. Children need the parent's ID before the parent ends.
func (r *recorder) open(name string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Now()
	return r.add(name, parent, now, now)
}

func (r *recorder) close(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// timed runs fn inside a span and returns fn's error.
func (r *recorder) timed(name string, parent int, fn func() error) error {
	id := r.open(name, parent)
	err := fn()
	r.close(id)
	return err
}

// selfTimes returns each layer's self time in seconds: the summed
// duration of its spans minus the part of each span its children cover.
// The layer is the span name up to the first dot.
func selfTimes(spans []Span) map[string]float64 {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		self := s.End - s.Start - covered(s, children[s.ID])
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += self.Seconds()
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	for i, x := range iv {
		switch {
		case i == 0:
			curA, curB = x[0], x[1]
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if len(iv) > 0 {
		total += curB - curA
	}
	return total
}

// write stores the spans as a JSON array.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	buf, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}
