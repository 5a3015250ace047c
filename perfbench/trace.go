package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call the benchmark made into a layer. A span whose
// OOB flag is set was timed out of band, on a twin system built from the
// same seed, because the measured call reaches that layer from inside
// another layer's public function; it still counts as a child of Parent,
// so its duration comes off the parent's self time.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a statement's root span
	Stmt   int    `json:"stmt"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	OOB    bool   `json:"oob,omitempty"`
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent, stmt int, start, end time.Time, oob bool) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Stmt: stmt, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), OOB: oob,
	})
	return id
}

// addDur records a span of an accumulated duration d starting at start:
// the sum of many short calls (one per result batch) in one span.
func (t *tracer) addDur(name string, parent, stmt int, start time.Time, d time.Duration) int {
	return t.add(name, parent, stmt, start, start.Add(d), false)
}

// layerStats is the self time of every span of one name.
type layerStats struct {
	count int
	self  time.Duration
}

// meanSelf returns the mean self time per span in the given unit.
func (l layerStats) meanSelf(unit time.Duration) float64 {
	if l.count == 0 {
		return 0
	}
	return float64(l.self) / float64(l.count) / float64(unit)
}

// selfTimes returns each span name's self time: its spans' durations minus
// the durations of their children.
func (t *tracer) selfTimes() map[string]layerStats {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]layerStats{}
	for _, s := range t.spans {
		l := out[s.Name]
		l.count++
		l.self += time.Duration(s.End - s.Start - child[s.ID])
		out[s.Name] = l
	}
	return out
}

// uncovered returns the share of traced statement latency that no layer
// span accounts for: the self time of root spans named "stmt" (the
// benchmark's own steps between its calls into the program), over the
// roots' duration less the benchmark's own digesting (bench.* spans),
// which the latency excludes. Other roots are layers themselves.
func (t *tracer) uncovered() float64 {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var lat, self int64
	for _, s := range t.spans {
		d := s.End - s.Start
		switch {
		case s.Parent == 0:
			lat += d
			if s.Name == "stmt" {
				self += d - child[s.ID]
			}
		case strings.HasPrefix(s.Name, "bench."):
			lat -= d
		}
	}
	if lat <= 0 {
		return 0
	}
	return float64(self) / float64(lat)
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

// finishTrace records the counts of a traced run's untraced and traced
// phases, writes the spans, prints the layer breakdown and records the
// coverage and tracing-overhead metrics.
func (r *report) finishTrace(o opts, t *tracer, untraced, traced *tally) error {
	r.Attempted = untraced.attempted + traced.attempted
	r.Failed = untraced.bad + traced.bad
	r.check(r.Failed == 0, "%d statements answered wrongly", r.Failed)
	path := spanPath(o)
	if err := t.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(t.spans), path)
	self := t.selfTimes()
	var names []string
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		l := self[name]
		fmt.Printf("  layer %-24s spans=%-7d mean self=%10.1f us\n", name, l.count, l.meanSelf(time.Microsecond))
		// A negative mean self time means out-of-band timings on the twin
		// overstate the children: the breakdown would not add up.
		r.check(l.self >= 0, "layer %s has negative self time %v", name, l.self)
	}
	unc := t.uncovered()
	fmt.Printf("uncovered remainder: %.4f of traced statement latency\n", unc)
	r.set("trace.uncovered_frac", unc)
	r.check(unc < 0.5, "per-layer self times cover only %.1f%% of traced latency", 100*(1-unc))
	if u := median(untraced.lats); u > 0 {
		r.set("trace.overhead_frac", median(traced.lats)/u-1)
	}
	return nil
}
