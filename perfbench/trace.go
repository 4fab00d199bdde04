package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer's public function, recorded from the
// benchmark's own code around the call.
type span struct {
	name   string
	parent int32 // index of the enclosing span; -1 at top level
	start  time.Duration
	end    time.Duration
}

// tracer keeps spans in memory; they are written out once the run is over.
// A tracer belongs to one goroutine. Tracers sharing an origin can be
// written to one file.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer(origin time.Time, capHint int) *tracer {
	return &tracer{origin: origin, spans: make([]span, 0, capHint)}
}

// begin opens a span under parent (-1 for none) and returns its index.
func (t *tracer) begin(name string, parent int32) int32 {
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.origin)})
	return int32(len(t.spans) - 1)
}

// end closes span id.
func (t *tracer) end(id int32) { t.spans[id].end = time.Since(t.origin) }

// durations returns the duration in ns of every span called name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// selfTimes returns, for every span called name, its duration minus the
// time its child spans cover, in ns.
func (t *tracer) selfTimes(name string) []float64 {
	child := make(map[int32]time.Duration)
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	var out []float64
	for i, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start-child[int32(i)]))
		}
	}
	return out
}

// topLevel sums the durations of the spans that have no parent, skipping
// the names in except.
func (t *tracer) topLevel(except ...string) time.Duration {
	var sum time.Duration
next:
	for _, s := range t.spans {
		if s.parent >= 0 {
			continue
		}
		for _, e := range except {
			if s.name == e {
				continue next
			}
		}
		sum += s.end - s.start
	}
	return sum
}

// spanFile is where a traced run writes its spans, and the comment line
// (the host manifest) that heads the file.
type spanFile struct {
	path   string
	header string
}

// write writes the spans of every tracer as tab-separated lines (tracer,
// id, parent, name, start_ns, end_ns).
func (sf spanFile) write(tracers ...*tracer) error {
	if err := os.MkdirAll(filepath.Dir(sf.path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(sf.path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# %s\n", sf.header)
	fmt.Fprintln(w, "tracer\tid\tparent\tname\tstart_ns\tend_ns")
	for ti, t := range tracers {
		for i, s := range t.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", ti, i, s.parent, s.name, s.start.Nanoseconds(), s.end.Nanoseconds())
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
