package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Times are nanoseconds since the
// recorder's epoch; Parent 0 marks a root.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Step   int32  `json:"step"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder is
// off: every method returns at once and allocates nothing, so the
// untraced runs that produce the end-to-end metrics pay one nil check
// per call site.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its id (0 when off).
func (r *recorder) begin(name string, parent, step int32) int32 {
	if r == nil {
		return 0
	}
	t := int64(time.Since(r.epoch))
	r.mu.Lock()
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Step: step, Start: t})
	r.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int32) {
	if r == nil || id == 0 {
		return
	}
	t := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1].End = t
	r.mu.Unlock()
}

// add records a span that finished at end after lasting d — for calls
// whose duration a layer reports through a hook — and returns its id.
func (r *recorder) add(name string, parent, step int32, end time.Time, d time.Duration) int32 {
	if r == nil {
		return 0
	}
	e := int64(end.Sub(r.epoch))
	r.mu.Lock()
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Step: step, Start: e - int64(d), End: e})
	r.mu.Unlock()
	return id
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as JSON lines in path.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// selfTimes returns each span's self time, indexed by id-1: its
// duration minus the part of its interval its children cover. Children
// may overlap each other (they can run on other goroutines), so the
// covered part is the union of their clipped intervals.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var total, curS, curE int64
	open := false
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e <= s {
			continue
		}
		switch {
		case !open:
			curS, curE, open = s, e, true
		case s > curE:
			total += curE - curS
			curS, curE = s, e
		case e > curE:
			curE = e
		}
	}
	if open {
		total += curE - curS
	}
	return time.Duration(total)
}

// spanTotals sums duration and self time per span name.
func spanTotals(spans []span) (dur, self map[string]time.Duration, count map[string]int) {
	st := selfTimes(spans)
	dur = map[string]time.Duration{}
	self = map[string]time.Duration{}
	count = map[string]int{}
	for i, s := range spans {
		dur[s.Name] += s.dur()
		self[s.Name] += st[i]
		count[s.Name]++
	}
	return dur, self, count
}
