package sweep

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/policy"
)

// TestRunSummariesMatchesRun: the streaming summary path must agree with
// the full ResultSet row for row — same order, same summaries, same
// scalar counters.
func TestRunSummariesMatchesRun(t *testing.T) {
	spec := fig9Spec(t, 4, 5)
	rs, err := Executor{Workers: 4}.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := Executor{Workers: 4}.RunSummaries(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss.Rows) != len(rs.Results) {
		t.Fatalf("%d rows for %d results", len(ss.Rows), len(rs.Results))
	}
	for i, row := range ss.Rows {
		res := rs.Results[i]
		if row.Scenario.Index != i || row.Scenario.Name() != res.Scenario.Name() {
			t.Errorf("row %d: scenario %q at index %d", i, row.Scenario.Name(), row.Scenario.Index)
		}
		if !reflect.DeepEqual(row.Summary, res.Summary) {
			t.Errorf("row %d (%s): summary diverged", i, row.Scenario.Name())
		}
		want := countersOf(res.Run)
		if row.Counters != want {
			t.Errorf("row %d (%s): counters = %+v, want %+v", i, row.Scenario.Name(), row.Counters, want)
		}
	}
	// Axis indexing mirrors ResultSet.At.
	if a, b := ss.At(0, 1, 0, 2), rs.At(0, 1, 0, 2); !reflect.DeepEqual(a.Summary, b.Summary) {
		t.Error("SummarySet.At does not mirror ResultSet.At")
	}
}

// TestCollectStreamsInSpecOrder: whatever the completion order on a wide
// pool, the collector sees one call per scenario, in spec order, and can
// rely on single-goroutine delivery (no locking in this collector).
func TestCollectStreamsInSpecOrder(t *testing.T) {
	spec := fig9Spec(t, 4, 5, 6)
	next := 0
	err := Executor{Workers: 8}.Collect(spec, CollectorFunc(func(r *Result) error {
		if r.Scenario.Index != next {
			t.Fatalf("collected scenario %d, want %d", r.Scenario.Index, next)
		}
		next++
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if next != spec.Size() {
		t.Fatalf("collected %d of %d scenarios", next, spec.Size())
	}
}

// TestCollectorErrorCancels: a collector error aborts the sweep with a
// pointed error and no further Collect calls.
func TestCollectorErrorCancels(t *testing.T) {
	spec := fig9Spec(t, 4, 5)
	boom := fmt.Errorf("disk full")
	calls := 0
	err := Executor{Workers: 4}.Collect(spec, CollectorFunc(func(r *Result) error {
		calls++
		if r.Scenario.Index == 2 {
			return boom
		}
		return nil
	}))
	if err == nil {
		t.Fatal("collector error swallowed")
	}
	want := fmt.Sprintf("sweep: collect scenario 2 (%s): disk full", mustScenarioName(t, spec, 2))
	if err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
	}
	if calls != 3 {
		t.Errorf("collector called %d times after failing on the third", calls)
	}
}

// TestCollectorErrorNotDisplacedByStraggler: when a collector error
// cancels the sweep, a scenario error straggling in from a worker that
// was already in flight must not displace it — the caller debugs the
// cancellation's actual cause.
func TestCollectorErrorNotDisplacedByStraggler(t *testing.T) {
	spec := fig9Spec(t, 4)
	release := make(chan struct{})
	spec.Policies = []PolicySpec{
		spec.Policies[0], // completes first; its collection fails the sweep
		{Name: "late-boom", Key: "late-boom", New: func() (policy.Policy, error) {
			<-release // errors only once the sweep is already cancelled
			return nil, fmt.Errorf("straggler failure")
		}},
		spec.Policies[3],
	}
	boom := fmt.Errorf("collector sink full")
	ex := Executor{Workers: 2, SpecOrderDispatch: true}
	ex.onCancel = func() { close(release) }
	err := ex.Collect(spec, CollectorFunc(func(*Result) error { return boom }))
	if err == nil {
		t.Fatal("failing sweep succeeded")
	}
	want := fmt.Sprintf("sweep: collect scenario 0 (%s): collector sink full", mustScenarioName(t, spec, 0))
	if err.Error() != want {
		t.Errorf("error = %q, want the collector error %q", err, want)
	}
}

func mustScenarioName(t *testing.T, spec Spec, i int) string {
	t.Helper()
	scenarios, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return scenarios[i].Name()
}

// TestCollectBoundedReorderWindow pins the streaming memory guarantee:
// however large the grid, the executor never holds more dispatched-but-
// uncollected scenarios than the reorder window — O(workers), not
// O(grid). This is the CI memory-regression gate for SummaryCollector
// sweeps.
func TestCollectBoundedReorderWindow(t *testing.T) {
	rus := make([]int, 0, 17)
	for r := 4; r <= 20; r++ {
		rus = append(rus, r)
	}
	spec := fig9Spec(t, rus...) // 17 × 4 = 68 scenarios, well past the window
	const workers = 2
	window := reorderWindow(workers)
	if spec.Size() <= window {
		t.Fatalf("grid of %d does not exceed the window of %d — test proves nothing", spec.Size(), window)
	}
	maxPending := 0
	ex := Executor{Workers: workers}
	ex.observePending = func(n int) {
		if n > maxPending {
			maxPending = n
		}
	}
	var c SummaryCollector
	if err := ex.Collect(spec, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Rows) != spec.Size() {
		t.Fatalf("collected %d of %d", len(c.Rows), spec.Size())
	}
	if maxPending == 0 {
		t.Fatal("observePending never fired")
	}
	if maxPending > window {
		t.Errorf("held %d uncollected scenarios, window is %d — memory is not O(workers)", maxPending, window)
	}
}

// TestRowRendererBlocks is the pure grouping pin: Sizes sequencing with
// last-size repeat, block indices, Close's ragged-grid error and the
// MaxHeld bookkeeping, driven by synthetic results (no simulator).
func TestRowRendererBlocks(t *testing.T) {
	feed := func(rr *RowRenderer, n int) error {
		for i := 0; i < n; i++ {
			if err := rr.Collect(&Result{Scenario: Scenario{Index: i}}); err != nil {
				return err
			}
		}
		return nil
	}

	var got [][]int
	rr := &RowRenderer{
		Sizes: []int{2, 3, 1},
		Emit: func(i int, rows []SummaryRow) error {
			if i != len(got) {
				t.Fatalf("block index %d, want %d", i, len(got))
			}
			idxs := make([]int, len(rows))
			for j, r := range rows {
				idxs[j] = r.Scenario.Index
			}
			got = append(got, idxs)
			return nil
		},
	}
	// 2 + 3 + 1 + 1 (the last size repeats) = 7 scenarios, 4 blocks.
	if err := feed(rr, 7); err != nil {
		t.Fatal(err)
	}
	if err := rr.Close(); err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 1}, {2, 3, 4}, {5}, {6}}
	for i := range want {
		if len(got) <= i || len(got[i]) != len(want[i]) {
			t.Fatalf("blocks = %v, want shapes of %v", got, want)
		}
	}
	if rr.Rows() != 4 {
		t.Errorf("Rows() = %d, want 4", rr.Rows())
	}
	if rr.MaxHeld() != 3 {
		t.Errorf("MaxHeld() = %d, want 3 (the largest block)", rr.MaxHeld())
	}

	ragged := &RowRenderer{Sizes: []int{3}, Emit: func(int, []SummaryRow) error { return nil }}
	if err := feed(ragged, 4); err != nil {
		t.Fatal(err)
	}
	if err := ragged.Close(); err == nil {
		t.Error("Close accepted a stream that ended mid-row")
	}

	emitErr := &RowRenderer{Emit: func(int, []SummaryRow) error { return fmt.Errorf("sink full") }}
	if err := emitErr.Collect(&Result{}); err == nil {
		t.Error("Emit error swallowed")
	}

	bad := &RowRenderer{Sizes: []int{0}, Emit: func(int, []SummaryRow) error { return nil }}
	if err := bad.Collect(&Result{}); err == nil {
		t.Error("non-positive block size accepted")
	}
}

// TestRowRendererBoundedRetention is the renderer half of the streaming
// memory gate: on a grid far larger than one report row, a RowRenderer
// buffers at most one block — O(1) rows, never O(grid) — while emitting
// rows whose contents match the O(grid) SummaryCollector path exactly.
func TestRowRendererBoundedRetention(t *testing.T) {
	rus := make([]int, 0, 17)
	for r := 4; r <= 20; r++ {
		rus = append(rus, r)
	}
	spec := fig9Spec(t, rus...) // 17 × 4 = 68 scenarios
	group := len(spec.Policies)

	var rows []SummaryRow
	rr := &RowRenderer{
		Sizes: []int{group},
		Emit: func(i int, block []SummaryRow) error {
			rows = append(rows, append([]SummaryRow(nil), block...)...)
			return nil
		},
	}
	if err := (Executor{Workers: 4}).Collect(spec, rr); err != nil {
		t.Fatal(err)
	}
	if err := rr.Close(); err != nil {
		t.Fatal(err)
	}
	if rr.Rows() != spec.Size()/group {
		t.Errorf("emitted %d rows, grid has %d", rr.Rows(), spec.Size()/group)
	}
	if rr.MaxHeld() != group {
		t.Errorf("renderer held %d rows at peak, want exactly one block of %d — retention is not O(1) rows", rr.MaxHeld(), group)
	}
	ss, err := Executor{Workers: 4}.RunSummaries(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ss.Rows) {
		t.Fatalf("renderer streamed %d scenarios, SummaryCollector %d", len(rows), len(ss.Rows))
	}
	for i := range rows {
		a, b := &rows[i], &ss.Rows[i]
		if a.Scenario.Name() != b.Scenario.Name() || a.Counters != b.Counters || !reflect.DeepEqual(a.Summary, b.Summary) {
			t.Errorf("row %d: renderer diverged from SummaryCollector", i)
		}
	}
}

// TestEstimatedCostOrdering sanity-checks the dispatch heuristic: the
// LFD family outweighs the O(1) policies, wider windows outweigh
// narrower ones, and fewer units mean more work. (Only dispatch order —
// never results — depends on these.)
func TestEstimatedCostOrdering(t *testing.T) {
	spec := fig9Spec(t, 4, 10)
	scenarios, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	cost := func(policyName string, rus int) float64 {
		for i := range scenarios {
			if scenarios[i].Policy.Name == policyName && scenarios[i].RUs == rus {
				return estimatedCost(&scenarios[i])
			}
		}
		t.Fatalf("no scenario %q R=%d", policyName, rus)
		return 0
	}
	lfd4, lru4 := cost("LFD", 4), cost("LRU", 4)
	if lfd4 <= lru4 {
		t.Errorf("LFD cost %v not above LRU %v at R=4", lfd4, lru4)
	}
	if local := cost("Local LFD (1)", 4); local <= lru4 || local >= lfd4 {
		t.Errorf("Local LFD (1) cost %v not between LRU %v and LFD %v", local, lru4, lfd4)
	}
	if lfd10 := cost("LFD", 10); lfd10 >= lfd4 {
		t.Errorf("LFD at R=10 cost %v not below R=4 %v", lfd10, lfd4)
	}
	if w4 := policyCostWeight(LocalLFD(4, false)); w4 <= policyCostWeight(LocalLFD(1, false)) {
		t.Errorf("window 4 weight %v not above window 1", w4)
	}
}

// TestCostOrderDispatchesStragglerFirst pins the heavy-tail fix where a
// one-core host's wall clock cannot: on a descending-RU grid the most
// contended LFD scenario has the highest spec index, and spec order
// would start it last. It costs only about 1.2× LRU at R=4 on this
// 60-app grid, but front-running the expensive block pays: spec-order
// dispatch took 0.53–0.60 s against LPT's 0.45–0.49 s on perfbench's
// fig9-scaled workload (6 alternating pairs, 2-vCPU Linux host, Go
// 1.24). Cost-order dispatch must hand it to the pool first — and with
// SpecOrderDispatch set, must not.
func TestCostOrderDispatchesStragglerFirst(t *testing.T) {
	spec := fig9Spec(t, 10, 8, 6, 4) // descending: the expensive R=4 block last
	scenarios, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	straggler := -1
	for i := range scenarios {
		if scenarios[i].Policy.Name == "LFD" && scenarios[i].RUs == 4 {
			straggler = i
		}
	}
	if straggler < spec.Size()-2 {
		t.Fatalf("grid layout changed: LFD R=4 at index %d of %d", straggler, spec.Size())
	}
	order := dispatchOrder(t, Executor{Workers: 1}, spec)
	if order[0] != straggler {
		t.Errorf("cost order dispatched scenario %d (%s) first, want the straggler %d (%s)",
			order[0], scenarios[order[0]].Name(), straggler, scenarios[straggler].Name())
	}
	fifo := dispatchOrder(t, Executor{Workers: 1, SpecOrderDispatch: true}, spec)
	for i, got := range fifo {
		if got != i {
			t.Fatalf("spec-order dispatch ran scenario %d at step %d", got, i)
		}
	}
}

func dispatchOrder(t *testing.T, ex Executor, spec Spec) []int {
	t.Helper()
	var order []int
	ex.observeDispatch = func(i int) { order = append(order, i) }
	if err := ex.Collect(spec, Discard); err != nil {
		t.Fatal(err)
	}
	if len(order) != spec.Size() {
		t.Fatalf("dispatched %d of %d scenarios", len(order), spec.Size())
	}
	return order
}

// TestSpecOrderDispatchIdentical: the dispatch strategy must never reach
// the results — cost-order and spec-order runs are interchangeable.
func TestSpecOrderDispatchIdentical(t *testing.T) {
	spec := fig9Spec(t, 4, 5)
	lpt, err := Executor{Workers: 4}.RunSummaries(spec)
	if err != nil {
		t.Fatal(err)
	}
	fifo, err := Executor{Workers: 4, SpecOrderDispatch: true}.RunSummaries(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(lpt.Rows) != len(fifo.Rows) {
		t.Fatalf("cost-order collected %d rows, spec-order %d", len(lpt.Rows), len(fifo.Rows))
	}
	for i := range lpt.Rows {
		a, b := &lpt.Rows[i], &fifo.Rows[i]
		if a.Scenario.Name() != b.Scenario.Name() || a.Counters != b.Counters ||
			!reflect.DeepEqual(a.Summary, b.Summary) {
			t.Errorf("row %d: dispatch order changed the collected result", i)
		}
	}
}
