package benchgate

import (
	"strings"
	"testing"
)

// jsonStream builds a `go test -json` stream the way go actually emits
// benchmark lines: the name flushes in one output event, the numbers in
// a later one.
func jsonStream(pieces ...string) string {
	var b strings.Builder
	b.WriteString(`{"Action":"start","Package":"repro"}` + "\n")
	for _, p := range pieces {
		b.WriteString(`{"Action":"output","Package":"repro","Output":"` + p + `"}` + "\n")
	}
	b.WriteString(`{"Action":"pass","Package":"repro"}` + "\n")
	return b.String()
}

func TestParseReassemblesSplitLines(t *testing.T) {
	in := jsonStream(
		`BenchmarkEventLoop/LRU-8         \t`,
		`       5\t    226746 ns/op\t       154.2 ns/event\t         0 allocs/event\n`,
		`BenchmarkEventLoop/LFD-8         \t       2\t   3250000 ns/op\t       575.7 ns/event\t         0 allocs/event\n`,
	)
	got, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	lru := got["BenchmarkEventLoop/LRU"]
	if lru == nil || lru["ns/event"] != 154.2 || lru["allocs/event"] != 0 {
		t.Errorf("LRU metrics = %v", lru)
	}
	if lfd := got["BenchmarkEventLoop/LFD"]; lfd == nil || lfd["ns/event"] != 575.7 {
		t.Errorf("LFD metrics = %v", lfd)
	}
}

func TestParsePlainBenchText(t *testing.T) {
	in := "goos: linux\nBenchmarkEventLoop/LRU-4   10   100 ns/op   50.0 ns/event   0 allocs/event\nPASS\n"
	got, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m := got["BenchmarkEventLoop/LRU"]; m == nil || m["ns/event"] != 50 {
		t.Errorf("metrics = %v", m)
	}
}

// TestParseCountKeepsStrictest: with -count>1 the best time and the
// worst allocation count win.
func TestParseCountKeepsStrictest(t *testing.T) {
	in := "BenchmarkX-8 1 100 ns/op 60.0 ns/event 0 allocs/event\n" +
		"BenchmarkX-8 1 90 ns/op 50.0 ns/event 0.5 allocs/event\n"
	got, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	m := got["BenchmarkX"]
	if m["ns/event"] != 50 {
		t.Errorf("ns/event = %v, want best (50)", m["ns/event"])
	}
	if m["allocs/event"] != 0.5 {
		t.Errorf("allocs/event = %v, want worst (0.5)", m["allocs/event"])
	}
}

// TestParseStripsGomaxprocs: a 8-core run and a 4-core baseline land on
// the same key.
func TestParseStripsGomaxprocs(t *testing.T) {
	a, err := Parse(strings.NewReader("BenchmarkY-8 1 10.0 ns/event\n"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse(strings.NewReader("BenchmarkY-4 1 12.0 ns/event\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := a["BenchmarkY"]; !ok {
		t.Fatalf("keys = %v", a)
	}
	if _, ok := b["BenchmarkY"]; !ok {
		t.Fatalf("keys = %v", b)
	}
}

func bench(ns, allocs float64) map[string]Metrics {
	return map[string]Metrics{
		"BenchmarkEventLoop/LRU": {"ns/event": ns, "allocs/event": allocs},
	}
}

func TestGateAllocsBudgetIsAbsolute(t *testing.T) {
	// Fails even with no baseline: the zero-allocation invariant needs
	// no previous run to check.
	rep, err := Gate(bench(100, 0.01), nil, Options{})
	if err == nil {
		t.Fatalf("allocs/event > 0 passed:\n%s", rep)
	}
	if !strings.Contains(rep, "FAIL") {
		t.Errorf("report hides the violation:\n%s", rep)
	}
}

func TestGateNoBaselineBootstraps(t *testing.T) {
	rep, err := Gate(bench(100, 0), nil, Options{})
	if err != nil {
		t.Fatalf("bootstrap run failed: %v\n%s", err, rep)
	}
	if !strings.Contains(rep, "no previous artifact") {
		t.Errorf("report does not explain the skipped trend check:\n%s", rep)
	}
}

func TestGateNsRegression(t *testing.T) {
	prev := bench(100, 0)
	if rep, err := Gate(bench(140, 0), prev, Options{}); err != nil {
		t.Errorf("1.4× within default 1.5× budget failed: %v\n%s", err, rep)
	}
	if rep, err := Gate(bench(160, 0), prev, Options{}); err == nil {
		t.Errorf("1.6× past default budget passed:\n%s", rep)
	}
	if rep, err := Gate(bench(115, 0), prev, Options{MaxRatio: 1.1}); err == nil {
		t.Errorf("1.15× past tightened 1.1× budget passed:\n%s", rep)
	}
}

func TestGateNewBenchmarkHasNoBaseline(t *testing.T) {
	prev := map[string]Metrics{"BenchmarkOther": {"ns/event": 10}}
	rep, err := Gate(bench(999, 0), prev, Options{})
	if err != nil {
		t.Errorf("new benchmark treated as regression: %v\n%s", err, rep)
	}
	if !strings.Contains(rep, "no baseline yet") {
		t.Errorf("report does not flag the missing baseline:\n%s", rep)
	}
}

// TestGateNsPerTableTrend: the artifact-cache benchmark's ns/table is
// gated by the same regression ratio as the hot loop's ns/event.
func TestGateNsPerTableTrend(t *testing.T) {
	tables := func(ns float64) map[string]Metrics {
		return map[string]Metrics{
			"BenchmarkFig9ArtifactWarm": {"ns/table": ns},
		}
	}
	prev := tables(1000)
	if rep, err := Gate(tables(1400), prev, Options{}); err != nil {
		t.Errorf("1.4× ns/table within default budget failed: %v\n%s", err, rep)
	}
	rep, err := Gate(tables(1600), prev, Options{})
	if err == nil {
		t.Errorf("1.6× ns/table past default budget passed:\n%s", rep)
	}
	if !strings.Contains(rep, "ns/table") {
		t.Errorf("report does not name the regressed unit:\n%s", rep)
	}
	// ns/table alone satisfies the wrong-artifact guard.
	if _, err := Gate(tables(10), nil, Options{}); err != nil {
		t.Errorf("ns/table-only artifact refused: %v", err)
	}
}

// TestGateRefusesEmptyArtifact: gating a stream with none of the
// budgeted metrics means the wrong file was fed in — loud failure, not
// a silent pass.
func TestGateRefusesEmptyArtifact(t *testing.T) {
	cur := map[string]Metrics{"BenchmarkFig9Sweep/seq": {"ns/op": 1e9}}
	if _, err := Gate(cur, nil, Options{}); err == nil {
		t.Error("artifact without ns/event or allocs/event passed")
	}
}

// TestGateLFDWithinTwiceLRU: the sibling rule bounds LFD's ns/event by
// 2× LRU's in the same artifact, with no previous artifact needed.
func TestGateLFDWithinTwiceLRU(t *testing.T) {
	loop := func(lru, lfd float64) map[string]Metrics {
		return map[string]Metrics{
			"BenchmarkEventLoop/LRU": {"ns/event": lru, "allocs/event": 0},
			"BenchmarkEventLoop/LFD": {"ns/event": lfd, "allocs/event": 0},
		}
	}
	rep, err := Gate(loop(100, 190), nil, Options{})
	if err != nil {
		t.Errorf("LFD at 1.9× LRU failed: %v\n%s", err, rep)
	}
	if !strings.Contains(rep, "1.90× BenchmarkEventLoop/LRU") {
		t.Errorf("report does not state the ratio:\n%s", rep)
	}
	// The rule is within one run: a previous artifact where LFD was far
	// slower does not excuse it, and trend-wise 2.5× LFD passes (1.39×).
	rep, err = Gate(loop(100, 250), loop(100, 180), Options{})
	if err == nil {
		t.Fatalf("LFD at 2.5× LRU passed:\n%s", rep)
	}
	if !strings.Contains(rep, "FAIL BenchmarkEventLoop/LFD: 250.0 ns/event is 2.50× BenchmarkEventLoop/LRU (100.0), budget 2.00×") {
		t.Errorf("report does not name the broken ratio:\n%s", rep)
	}
}

// TestGateLFDMissingSibling: an artifact with LFD but no LRU cannot be
// checked against the ratio, and says so by failing.
func TestGateLFDMissingSibling(t *testing.T) {
	cur := map[string]Metrics{"BenchmarkEventLoop/LFD": {"ns/event": 100, "allocs/event": 0}}
	rep, err := Gate(cur, nil, Options{})
	if err == nil {
		t.Fatalf("LFD without its LRU sibling passed:\n%s", rep)
	}
	if !strings.Contains(rep, "reports no ns/event for BenchmarkEventLoop/LRU") {
		t.Errorf("report does not name the missing sibling:\n%s", rep)
	}
	// Without LFD the rule has nothing to bound.
	if rep, err := Gate(bench(100, 0), nil, Options{}); err != nil || strings.Contains(rep, "LFD") {
		t.Errorf("LRU-only artifact: err %v\n%s", err, rep)
	}
}
