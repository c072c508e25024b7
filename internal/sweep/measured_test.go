package sweep

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/resultstore"
	"repro/internal/storetest"
)

// fabricateTimings writes one minimal store entry per scenario whose
// measured elapsed time is controlled by the caller: elapsed(i) is the
// recorded wall time for spec index i. The entries are valid for the
// current schema, so they also serve as hits.
func fabricateTimings(t *testing.T, store *resultstore.Store, spec Spec, elapsed func(i int) time.Duration) []string {
	t.Helper()
	keys, err := spec.ScenarioKeys()
	if err != nil {
		t.Fatal(err)
	}
	for i, key := range keys {
		ent := &resultstore.Entry{
			ElapsedNS: int64(elapsed(i)),
			Run:       &resultstore.Run{Executed: 1, Graphs: 1},
		}
		if err := store.Put(key, ent); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// countingBackend wraps a store backend and counts Load calls per key,
// so tests can pin how many backend reads a sweep makes per entry.
type countingBackend struct {
	resultstore.Backend
	mu    sync.Mutex
	loads map[string]int
}

func (b *countingBackend) Load(key string) ([]byte, bool) {
	b.mu.Lock()
	b.loads[key]++
	b.mu.Unlock()
	return b.Backend.Load(key)
}

// TestWarmSweepReadsEachEntryOnce pins that stored timings never steer
// dispatch: a warm store-backed sweep reads each entry from the backend
// exactly once (the serve, no separate timing probe), and dispatches in
// the same order as the store-less sweep even though the fabricated
// timings descend in spec order — the opposite of the static heuristic,
// which starts with the contended LFD block at the grid's end.
func TestWarmSweepReadsEachEntryOnce(t *testing.T) {
	spec := fig9Spec(t, 6, 4)
	spec.NoBaseline = true
	n := spec.Size()
	backend := &countingBackend{Backend: resultstore.NewMem(), loads: map[string]int{}}
	keys := fabricateTimings(t, resultstore.FromBackend(backend), spec, func(i int) time.Duration {
		return time.Duration(n-i) * time.Millisecond // descending in spec order
	})
	store := resultstore.FromBackend(backend)

	order := dispatchOrder(t, Executor{Workers: 1, Store: store}, spec)
	for _, key := range keys {
		if got := backend.loads[key]; got != 1 {
			t.Errorf("warm sweep read entry %s from the backend %d times, want exactly 1", key[:12], got)
		}
	}
	if hits, misses, puts := store.Stats(); hits != int64(n) || misses != 0 || puts != 0 {
		t.Fatalf("warm stats hits=%d misses=%d puts=%d, want %d/0/0", hits, misses, puts, n)
	}
	storeless := dispatchOrder(t, Executor{Workers: 1}, spec)
	if !reflect.DeepEqual(order, storeless) {
		t.Fatalf("store-backed dispatch order %v differs from the store-less order %v: stored timings steered dispatch", order, storeless)
	}
	// Guard against vacuity: the fabricated timings would put spec index
	// 0 first, so a timing-driven feed could not match the heuristic.
	if storeless[0] == 0 {
		t.Fatalf("store-less dispatch starts at spec index 0, like the fabricated timings — the order assertion proves nothing (order %v)", storeless)
	}
}

// TestSchemaBumpResimulatesInPlace: after a schema bump every entry is
// unservable, so the whole grid re-simulates, and the re-simulation
// overwrites each stale entry in place (keys exclude the schema
// version) with a fresh measured timing.
func TestSchemaBumpResimulatesInPlace(t *testing.T) {
	spec := fig9Spec(t, 6, 4)
	spec.NoBaseline = true
	n := spec.Size()
	store := openStore(t)
	keys := fabricateTimings(t, store, spec, func(i int) time.Duration {
		return time.Duration(n-i) * time.Millisecond
	})
	storetest.StaleifySchema(t, store)
	// Fresh handle: the stats below must describe the post-bump sweep
	// alone, not the fabrication writes.
	store, err := resultstore.Open(store.Dir())
	if err != nil {
		t.Fatal(err)
	}

	if err := (Executor{Workers: 1, Store: store}).Collect(spec, Discard); err != nil {
		t.Fatal(err)
	}
	// Unservable entries mean every scenario really re-simulated and was
	// written back under the current schema, with a real measurement.
	hits, misses, puts := store.Stats()
	if hits != 0 || misses != int64(n) || puts != int64(n) {
		t.Fatalf("stale store stats hits=%d misses=%d puts=%d, want 0/%d/%d", hits, misses, puts, n, n)
	}
	for _, key := range keys {
		ent, ok := store.Get(key)
		if !ok {
			t.Fatalf("re-simulation did not overwrite the stale entry for %s", key[:12])
		}
		if ent.ElapsedNS <= 0 {
			t.Fatalf("rewritten entry for %s lost the measured timing", key[:12])
		}
	}
}

// orderCheckCollector asserts results arrive in strictly ascending spec
// order with the scenario's own index, no matter how dispatch reordered
// the grid.
type orderCheckCollector struct {
	t    *testing.T
	next int
	got  int
}

func (c *orderCheckCollector) Collect(r *Result) error {
	if r.Scenario.Index != c.next {
		c.t.Errorf("collected scenario %d, want %d (delivery reordered)", r.Scenario.Index, c.next)
	}
	c.next++
	c.got++
	return nil
}

// TestPartialHintsSubsetDispatchAndDelivery: a grid where only a strict
// subset of scenarios is stored, with hour-scale timings on the two
// cheapest-ranked ones, must dispatch exactly as the store-less sweep
// does (stored timings are not hints to dispatch) and still deliver
// every result in spec order, on a concurrent pool. The stored pair is
// served from the store; everything else is live-simulated and
// streamed back in order.
func TestPartialHintsSubsetDispatchAndDelivery(t *testing.T) {
	spec := fig9Spec(t, 6, 4)
	spec.NoBaseline = true
	n := spec.Size()
	store := openStore(t)
	keys, err := spec.ScenarioKeys()
	if err != nil {
		t.Fatal(err)
	}
	// Spec indices 0 and 4 are the LRU scenarios (R=6 and R=4).
	for i, d := range map[int]time.Duration{0: 2 * time.Hour, 4: time.Hour} {
		ent := &resultstore.Entry{
			ElapsedNS: int64(d),
			Run:       &resultstore.Run{Executed: 1, Graphs: 1},
		}
		if err := store.Put(keys[i], ent); err != nil {
			t.Fatal(err)
		}
	}
	// Fresh handle: the stats below must describe the sweep alone, not
	// the fabrication writes.
	store, err = resultstore.Open(store.Dir())
	if err != nil {
		t.Fatal(err)
	}

	var order []int
	ex := Executor{Workers: 2, Store: store}
	ex.observeDispatch = func(i int) { order = append(order, i) }
	c := &orderCheckCollector{t: t}
	if err := ex.Collect(spec, c); err != nil {
		t.Fatal(err)
	}
	if c.got != n {
		t.Fatalf("collected %d of %d results", c.got, n)
	}
	if storeless := dispatchOrder(t, Executor{Workers: 2}, spec); !reflect.DeepEqual(order, storeless) {
		t.Fatalf("dispatch order %v, want the store-less order %v", order, storeless)
	}
	// The stored pair was served from the store, the rest simulated and
	// written back — a partial store must never re-simulate what it has
	// nor skip persisting what it lacks.
	if hits, misses, puts := store.Stats(); hits != 2 || misses != int64(n-2) || puts != int64(n-2) {
		t.Fatalf("stats hits=%d misses=%d puts=%d, want 2/%d/%d", hits, misses, puts, n-2, n-2)
	}
}

// TestElapsedRecordedAndServed: a cold store-backed sweep records every
// scenario's measured wall time on its entry (Entry.ElapsedNS), and
// a warm re-run — which simulates nothing — reports zero Elapsed on its
// results instead of replaying the stale measurement as its own.
func TestElapsedRecordedAndServed(t *testing.T) {
	spec := fig9Spec(t, 4)
	store := openStore(t)
	ex := Executor{Workers: 2, Store: store}

	cold, err := ex.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range cold.Results {
		if r.Elapsed <= 0 {
			t.Errorf("cold scenario %s has no measured elapsed time", r.Scenario.Name())
		}
	}
	keys, err := spec.ScenarioKeys()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		if ent, ok := store.Get(key); !ok || ent.ElapsedNS <= 0 {
			t.Errorf("no elapsed time recorded for %s", key[:12])
		}
	}

	warm, err := ex.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range warm.Results {
		if r.Elapsed != 0 {
			t.Errorf("store-served scenario %s claims a measured elapsed time of %v", r.Scenario.Name(), r.Elapsed)
		}
	}
}
