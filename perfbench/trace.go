package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files. Spans of one point or one sweep share a group.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Group  string `json:"group,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the package a span's call enters: the name up to the first dot.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// traceLayers are the layers whose self time a traced run reports; "bench"
// is the benchmark's own loop and checking.
var traceLayers = []string{
	"bench", "program", "core", "engine", "dist", "svc", "stats",
	"oracle", "cache", "memsys", "btb", "bpred", "ftq",
}

// tracer keeps spans in memory until the run writes them out. A nil tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span; the zero value (from a nil tracer) is inert.
type spanRef struct {
	tr *tracer
	id int
}

// start opens a root span.
func (t *tracer) start(name, group string) spanRef {
	return t.open(name, group, 0)
}

func (t *tracer) open(name, group string, parent int) spanRef {
	if t == nil {
		return spanRef{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Group: group, Name: name, Start: int64(time.Since(t.t0))})
	return spanRef{tr: t, id: id}
}

// child opens a span under s, in s's group.
func (s spanRef) child(name string) spanRef {
	if s.tr == nil {
		return spanRef{}
	}
	s.tr.mu.Lock()
	group := s.tr.spans[s.id-1].Group
	s.tr.mu.Unlock()
	return s.tr.open(name, group, s.id)
}

// end closes s.
func (s spanRef) end() {
	if s.tr == nil {
		return
	}
	s.tr.mu.Lock()
	s.tr.spans[s.id-1].End = int64(time.Since(s.tr.t0))
	s.tr.mu.Unlock()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// durations returns the durations of every closed span named name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var ds []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			ds = append(ds, s.dur())
		}
	}
	return ds
}

// selfTimes returns each layer's self time: every span's duration minus the
// part of its interval its children cover, summed per layer.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		if s.End == 0 {
			continue
		}
		self[s.layer()] += s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is how much of p's interval the union of its children spans.
func covered(p span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum, hi int64
	hi = p.Start
	for _, k := range kids {
		lo, end := max(k.Start, hi), min(k.End, p.End)
		if end > lo {
			sum += end - lo
			hi = end
		}
	}
	return time.Duration(sum)
}

// layerMetrics reports the span count and each layer's self time.
func (t *tracer) layerMetrics(rep *report) {
	rep.setLayer("trace.spans", float64(t.len()), "count")
	self := t.selfTimes()
	for _, l := range traceLayers {
		rep.setLayer("trace.self_s."+l, self[l].Seconds(), "s")
	}
}

// write saves the spans and per-layer self times as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	self := make(map[string]float64)
	for l, d := range t.selfTimes() {
		self[l] = d.Seconds()
	}
	t.mu.Lock()
	b, err := json.Marshal(struct {
		SelfSeconds map[string]float64 `json:"self_s"`
		Spans       []span             `json:"spans"`
	}{self, t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
