package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestSelfTimes checks self time on a hand-built tree whose children
// overlap each other, stick out of their parent, and have children of
// their own.
func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Parent: 0, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // outlives root
		{ID: 5, Parent: 2, Name: "a1", Start: 15, End: 20}, // only a's child
		{ID: 6, Parent: 2, Name: "a2", Start: 18, End: 25}, // overlaps a1
		{ID: 7, Parent: 1, Name: "open", Start: 50, End: -1},
	}
	got := SelfTimes(spans)
	// root: 100 minus the union [10,60] ∪ [90,100]; a: 30 minus [15,25].
	want := []int64{40, 20, 30, 30, 5, 7, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

type countingWriter struct {
	writes int
	buf    bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

// TestRecorderWritesOnceAtClose checks that spans stay in memory while
// the benchmark runs and reach the sink in one write at Close.
func TestRecorderWritesOnceAtClose(t *testing.T) {
	sink := &countingWriter{}
	r := NewRecorder(sink)
	root := r.Begin("iteration", 0)
	now := time.Now()
	r.Record("store.load", root, now, now.Add(time.Millisecond))
	r.Record("store.write", root, now, now.Add(2*time.Millisecond))
	r.Finish(root)
	if sink.writes != 0 {
		t.Fatalf("recorder wrote %d times before Close", sink.writes)
	}
	if n := len(r.Spans()); n != 3 {
		t.Fatalf("recorder holds %d spans, want 3", n)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.writes != 1 {
		t.Fatalf("sink got %d writes, want exactly 1", sink.writes)
	}
	lines := strings.Split(strings.TrimSpace(sink.buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("sink got %d spans, want 3:\n%s", len(lines), sink.buf.String())
	}
	var first struct {
		Name string `json:"name"`
		Self int64  `json:"self_ns"`
		Span
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Name != "iteration" || first.Self < 0 || first.Self > first.Dur() {
		t.Fatalf("first span %+v: want the iteration with 0 ≤ self ≤ duration", first)
	}
}
