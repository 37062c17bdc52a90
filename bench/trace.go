package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// tracer keeps the spans of one traced run in memory and writes them out
// when the run ends. The traced run is a single goroutine, so spans nest
// through a stack and a span's children run one after another: the part of
// a span they cover is the sum of their durations.
type tracer struct {
	run     string
	epoch   time.Time
	spans   []span
	covered []time.Duration // per span, the summed duration of its closed children
	open    []int           // indices of the open spans, innermost last
}

// span is one timed call into a layer. Parent is the ID of the enclosing
// span (0 at top level); times are nanoseconds since the run began.
type span struct {
	Run     string `json:"run"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func newTracer(run string) *tracer { return &tracer{run: run, epoch: time.Now()} }

func (t *tracer) begin(name string) {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{Run: t.run, ID: len(t.spans) + 1, Parent: parent, Name: name,
		StartNS: int64(time.Since(t.epoch))})
	t.covered = append(t.covered, 0)
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].EndNS = int64(time.Since(t.epoch))
	d := time.Duration(t.spans[i].EndNS - t.spans[i].StartNS)
	if n := len(t.open); n > 0 {
		t.covered[t.open[n-1]] += d
	}
	return d
}

// endCovered closes the innermost open span and returns the part of it its
// child spans cover.
func (t *tracer) endCovered() time.Duration {
	i := t.open[len(t.open)-1]
	t.end()
	return t.covered[i]
}

// do runs f inside a span and returns the span's duration.
func (t *tracer) do(name string, f func()) time.Duration {
	t.begin(name)
	f()
	return t.end()
}

// self returns, per span name, the summed self time: each span's duration
// minus the part of it its child spans cover.
func (t *tracer) self() map[string]time.Duration {
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.Name] += time.Duration(s.EndNS-s.StartNS) - t.covered[i]
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
