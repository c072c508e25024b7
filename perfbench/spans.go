package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the recorder's origin; Parent is the ID of the span
// that caused it (0 for a root). An open span has End < Start.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's length in nanoseconds (0 while open).
func (s Span) Dur() int64 {
	if s.End < s.Start {
		return 0
	}
	return s.End - s.Start
}

// Recorder keeps spans in memory while the benchmark runs and writes
// them to its sink once, at Close, so tracing never does I/O inside a
// measured region. Safe for concurrent use.
type Recorder struct {
	origin time.Time
	sink   io.Writer

	mu     sync.Mutex
	spans  []Span
	closed bool
}

// NewRecorder returns a recorder that writes to sink at Close.
func NewRecorder(sink io.Writer) *Recorder {
	return &Recorder{origin: time.Now(), sink: sink}
}

func (r *Recorder) ns(t time.Time) int64 { return int64(t.Sub(r.origin)) }

// Record adds a finished span and returns its ID.
func (r *Recorder) Record(name string, parent int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Start: r.ns(start), End: r.ns(end)})
	return id
}

// Begin opens a span that children may name as their parent before it
// ends; Finish closes it.
func (r *Recorder) Begin(name string, parent int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Start: r.ns(time.Now()), End: -1})
	return id
}

// Finish closes the span Begin opened and returns its duration.
func (r *Recorder) Finish(id int) time.Duration {
	end := r.ns(time.Now())
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = end
	return time.Duration(r.spans[id-1].Dur())
}

// Spans returns a copy of every span recorded so far.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Close writes every span, one JSON object per line with its self time,
// to the sink in a single write. Later calls write nothing.
func (r *Recorder) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	self := SelfTimes(r.spans)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i, s := range r.spans {
		rec := struct {
			Span
			Self int64 `json:"self_ns"`
		}{s, self[i]}
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("encode span %d: %w", s.ID, err)
		}
	}
	if buf.Len() == 0 {
		return nil
	}
	_, err := r.sink.Write(buf.Bytes())
	return err
}

// SelfTimes returns, for each span, its duration minus the part of its
// interval that its children cover. Children may overlap one another
// (concurrent work under one parent) and may stick out of the parent;
// only the union of their intervals clipped to the parent counts.
func SelfTimes(spans []Span) []int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent > 0 && s.End >= s.Start {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.Dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of ivs clipped to s.
func covered(s Span, ivs [][2]int64) int64 {
	if s.End < s.Start || len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	curS, curE := int64(-1), int64(-1)
	flush := func() {
		if curE > curS {
			total += curE - curS
		}
	}
	for _, iv := range ivs {
		lo, hi := max(iv[0], s.Start), min(iv[1], s.End)
		if hi <= lo {
			continue
		}
		if curE < 0 || lo > curE {
			flush()
			curS, curE = lo, hi
			continue
		}
		curE = max(curE, hi)
	}
	flush()
	return total
}
