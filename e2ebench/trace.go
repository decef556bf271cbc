package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into a
// layer. Spans of one campaign call or daemon job share an operation id.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root span
	Op     int           `json:"op"`     // -1 for probes
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the tracer's epoch
	End    time.Duration `json:"end_ns"`
	Self   time.Duration `json:"self_ns"` // filled by selfTimes
}

// tracer keeps spans in memory until the run ends. Every method is a no-op
// on a nil tracer, so untraced phases pass nil and pay one nil check per
// call. It is used from the driving goroutine only.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: now, End: now})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.epoch)
}

// add records an interval timed elsewhere, such as the queue wait and run
// time the daemon stamps on a job record.
func (t *tracer) add(name string, parent, op int, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
}

// selfTimes sets each span's self time: its duration minus the part of its
// interval that its children cover.
func (t *tracer) selfTimes() {
	children := make(map[int][]int)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		var iv [][2]time.Duration
		for _, c := range children[s.ID] {
			lo, hi := max(t.spans[c].Start, s.Start), min(t.spans[c].End, s.End)
			if hi > lo {
				iv = append(iv, [2]time.Duration{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := time.Duration(0), s.Start
		for _, x := range iv {
			lo := max(x[0], reach)
			if x[1] > lo {
				covered += x[1] - lo
				reach = x[1]
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	name        string
	count       int
	total, self time.Duration
}

func (t *tracer) stats() []spanStat {
	byName := make(map[string]*spanStat)
	for _, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{name: s.Name}
			byName[s.Name] = st
		}
		st.count++
		st.total += s.End - s.Start
		st.self += s.Self
	}
	out := make([]spanStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// write derives self times, saves every span as JSON to path and prints the
// per-name totals.
func (t *tracer) write(path string, w io.Writer) error {
	t.selfTimes()
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(w, "spans %d written to %s\n", len(t.spans), path)
	for _, st := range t.stats() {
		fmt.Fprintf(w, "span %-28s count %6d total_ms %11.3f self_ms %11.3f\n",
			st.name, st.count, ms(st.total), ms(st.self))
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
