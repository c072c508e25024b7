package dynlist

import (
	"math/rand"
	"testing"

	"repro/internal/simtime"
	"repro/internal/taskgraph"
)

func ms(v float64) simtime.Time { return simtime.FromMs(v) }

func g(name string, first taskgraph.TaskID, n int) *taskgraph.Graph {
	execs := make([]simtime.Time, n)
	for i := range execs {
		execs[i] = ms(1)
	}
	return taskgraph.Chain(name, first, execs...)
}

func TestListFIFO(t *testing.T) {
	var l List
	if _, ok := l.PopFront(); ok {
		t.Error("pop from empty list")
	}
	a, b := g("a", 1, 2), g("b", 10, 3)
	l.Push(Item{Graph: a, Instance: 0})
	l.Push(Item{Graph: b, Instance: 1})
	if l.Len() != 2 || l.At(0).Graph != a || l.At(1).Graph != b {
		t.Fatalf("list state wrong: len=%d", l.Len())
	}
	it, ok := l.PopFront()
	if !ok || it.Graph != a {
		t.Errorf("pop = %v", it.Graph)
	}
	it, ok = l.PopFront()
	if !ok || it.Graph != b {
		t.Errorf("pop = %v", it.Graph)
	}
	if l.Len() != 0 {
		t.Error("list not empty")
	}
}

func TestNewSequence(t *testing.T) {
	a, b := g("a", 1, 1), g("b", 10, 1)
	f := NewSequence(a, b)
	if f.Len() != 2 {
		t.Fatalf("Len = %d", f.Len())
	}
	if rem := f.Remaining(); len(rem) != 2 {
		t.Fatalf("Remaining = %d", len(rem))
	}
	it, ok := f.Next()
	if !ok || it.Graph != a || it.Instance != 0 || it.Arrival != 0 {
		t.Errorf("first = %+v", it)
	}
	if rem := f.Remaining(); len(rem) != 1 || rem[0].Graph != b {
		t.Errorf("Remaining after one = %v", rem)
	}
	it, ok = f.Next()
	if !ok || it.Instance != 1 {
		t.Errorf("second = %+v", it)
	}
	if _, ok := f.Next(); ok {
		t.Error("exhausted feed returned ok")
	}
}

func TestNewTimed(t *testing.T) {
	a := g("a", 1, 1)
	f, err := NewTimed([]Item{
		{Graph: a, Arrival: ms(0)},
		{Graph: a, Arrival: ms(5)},
		{Graph: a, Arrival: ms(5)},
	})
	if err != nil {
		t.Fatal(err)
	}
	it, _ := f.Next()
	if it.Instance != 0 {
		t.Errorf("instances not renumbered: %+v", it)
	}

	if _, err := NewTimed([]Item{{Graph: a, Arrival: ms(5)}, {Graph: a, Arrival: ms(1)}}); err == nil {
		t.Error("decreasing arrivals accepted")
	}
	if _, err := NewTimed([]Item{{Graph: nil}}); err == nil {
		t.Error("nil graph accepted")
	}
}

func TestRandomSequence(t *testing.T) {
	pool := []*taskgraph.Graph{g("a", 1, 1), g("b", 10, 2), g("c", 20, 3)}
	f1, err := RandomSequence(pool, 100, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	f2, _ := RandomSequence(pool, 100, rand.New(rand.NewSource(5)))
	if f1.Len() != 100 {
		t.Fatalf("Len = %d", f1.Len())
	}
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		a, _ := f1.Next()
		b, _ := f2.Next()
		if a.Graph != b.Graph {
			t.Fatalf("same seed diverged at %d", i)
		}
		seen[a.Graph.Name()] = true
	}
	if len(seen) != 3 {
		t.Errorf("only %d of 3 graphs drawn in 100 samples", len(seen))
	}

	if _, err := RandomSequence(nil, 5, rand.New(rand.NewSource(1))); err == nil {
		t.Error("empty pool accepted")
	}
	if _, err := RandomSequence(pool, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestRandomArrivals(t *testing.T) {
	pool := []*taskgraph.Graph{g("a", 1, 1), g("b", 10, 2)}
	f, err := RandomArrivals(pool, 50, ms(20), rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	items := f.Remaining()
	if len(items) != 50 {
		t.Fatalf("len = %d", len(items))
	}
	if items[0].Arrival != 0 {
		t.Errorf("first arrival at %v, want 0", items[0].Arrival)
	}
	var prev simtime.Time
	var total simtime.Time
	for i, it := range items {
		if it.Arrival < prev {
			t.Fatalf("arrival %d at %v before %v", i, it.Arrival, prev)
		}
		prev = it.Arrival
		if it.Instance != i {
			t.Errorf("instance %d numbered %d", i, it.Instance)
		}
	}
	total = items[len(items)-1].Arrival
	// Mean gap 20 ms over 49 gaps: expect the span in a loose
	// [300, 3000] ms band (exponential spread).
	if total < ms(300) || total > ms(3000) {
		t.Errorf("span %v implausible for mean gap 20 ms", total)
	}
	// Deterministic per seed.
	f2, _ := RandomArrivals(pool, 50, ms(20), rand.New(rand.NewSource(4)))
	items2 := f2.Remaining()
	for i := range items {
		if items[i].Arrival != items2[i].Arrival || items[i].Graph != items2[i].Graph {
			t.Fatalf("seeded arrivals diverged at %d", i)
		}
	}
	// Zero gap means everything arrives at once.
	f3, err := RandomArrivals(pool, 5, 0, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range f3.Remaining() {
		if it.Arrival != 0 {
			t.Errorf("zero-gap arrival at %v", it.Arrival)
		}
	}
	// Validation.
	if _, err := RandomArrivals(nil, 5, ms(1), rand.New(rand.NewSource(1))); err == nil {
		t.Error("empty pool accepted")
	}
	if _, err := RandomArrivals(pool, 0, ms(1), rand.New(rand.NewSource(1))); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := RandomArrivals(pool, 3, -ms(1), rand.New(rand.NewSource(1))); err == nil {
		t.Error("negative gap accepted")
	}
}
