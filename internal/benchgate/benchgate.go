// Package benchgate turns the benchmark artifact CI already archives
// (`BENCH_ci.json`, the `go test -json` stream of the per-commit bench
// job) into an enforced budget instead of a passive record. It parses
// the benchmark result lines out of the stream, extracts the custom
// metrics the hot-loop benchmark reports (ns/event, allocs/event), and
// gates a current run against three rules:
//
//   - allocs/event must be exactly 0 — the zero-allocation steady state
//     is an invariant, not a trend, so it needs no baseline to check;
//   - within the artifact, clairvoyant LFD's hot loop must cost at most
//     2× LRU's ns/event — a ratio between siblings of one run, so it is
//     host-independent and needs no previous artifact either (the
//     next-use index makes an LFD decision O(candidates); a return to
//     scanning the whole future costs ~5× LRU);
//   - the trend units (ns/event for the hot loop, ns/table for the
//     design-time artifact cache) must not regress past a ratio of the
//     previous run's value — a trend rule, skipped (with a note) for
//     benchmarks the previous artifact does not contain, and skipped
//     entirely when there is no previous artifact at all (the first run
//     on a branch bootstraps the baseline rather than failing).
//
// Comparisons key on the benchmark name with the -GOMAXPROCS suffix
// stripped, so a runner with a different core count still matches its
// baseline.
package benchgate

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Metrics holds one benchmark's reported values keyed by unit
// ("ns/op", "ns/event", "allocs/event", ...).
type Metrics map[string]float64

// testEvent is the subset of the `go test -json` event schema the
// parser needs.
type testEvent struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

// gomaxprocsSuffix strips the trailing "-N" go appends to benchmark
// names, so runs from machines with different core counts compare.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// benchLine matches a benchmark result line: name, iteration count,
// then value/unit pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.+)$`)

// Parse reads a `go test -json` stream (or, as a convenience for local
// use, plain `go test -bench` text) and returns the metrics of every
// benchmark result line in it. Go streams a result line in pieces —
// the name flushes before the benchmark runs, the numbers after — so
// the parser reassembles the output text first and scans whole lines.
func Parse(r io.Reader) (map[string]Metrics, error) {
	var text strings.Builder
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	jsonLines := false
	for sc.Scan() {
		line := sc.Text()
		var ev testEvent
		if err := json.Unmarshal([]byte(line), &ev); err == nil && ev.Action != "" {
			jsonLines = true
			if ev.Action == "output" {
				text.WriteString(ev.Output)
			}
			continue
		}
		if jsonLines {
			return nil, fmt.Errorf("benchgate: mixed json and non-json input at %q", line)
		}
		text.WriteString(line)
		text.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchgate: %w", err)
	}
	return parseBenchText(text.String())
}

// parseBenchText extracts benchmark result lines from assembled output.
func parseBenchText(text string) (map[string]Metrics, error) {
	out := make(map[string]Metrics)
	for _, line := range strings.Split(text, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(m[1], "")
		fields := strings.Fields(m[2])
		if len(fields)%2 != 0 {
			return nil, fmt.Errorf("benchgate: odd value/unit fields in %q", line)
		}
		mm := out[name]
		if mm == nil {
			mm = make(Metrics)
			out[name] = mm
		}
		for i := 0; i < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchgate: bad value %q in %q: %w", fields[i], line, err)
			}
			unit := fields[i+1]
			// A -count>1 run repeats each benchmark; keep the strictest
			// reading — the worst allocation count, the best time (repeated
			// timings differ by scheduler noise, allocations must not).
			if old, ok := mm[unit]; ok {
				if strings.HasPrefix(unit, "allocs/") {
					v = max(v, old)
				} else {
					v = min(v, old)
				}
			}
			mm[unit] = v
		}
	}
	return out, nil
}

// Options tunes the gate.
type Options struct {
	// MaxRatio is the trend-unit regression budget: a current value above
	// previous × MaxRatio fails. Zero means the default 1.5 — generous
	// against runner noise, far below an accidental re-introduction of
	// per-event allocation (the LFD loop was 6× slower before pooling).
	MaxRatio float64
}

// trendUnits are the custom metrics gated by the regression-ratio rule.
// Absolute values are host-dependent; the ratio against the previous
// artifact from the same runner pool is what the gate enforces.
var trendUnits = []string{"ns/event", "ns/table"}

// The LFD rule bounds clairvoyant LFD's hot-loop ns/event by a multiple
// of LRU's in the same artifact. It applies whenever the artifact holds
// the LFD benchmark; LRU missing from the same run is a failure, not a
// skip, so renaming a benchmark cannot silently retire the rule.
const (
	lfdBench      = "BenchmarkEventLoop/LFD"
	lruBench      = "BenchmarkEventLoop/LRU"
	maxLFDOverLRU = 2.0
)

// Gate checks cur against the rules, using prev as the trend baseline;
// prev may be nil (no previous artifact — bootstrap run).
// The returned report always describes every check performed, pass or
// fail; err is non-nil if any rule failed.
func Gate(cur, prev map[string]Metrics, opt Options) (string, error) {
	ratio := opt.MaxRatio
	if ratio == 0 {
		ratio = 1.5
	}
	names := make([]string, 0, len(cur))
	for n := range cur {
		names = append(names, n)
	}
	sort.Strings(names)

	var b strings.Builder
	violations := 0
	checked := 0
	for _, n := range names {
		m := cur[n]
		if a, ok := m["allocs/event"]; ok {
			checked++
			if a > 0 {
				violations++
				fmt.Fprintf(&b, "FAIL %s: %.4g allocs/event, budget is exactly 0\n", n, a)
			} else {
				fmt.Fprintf(&b, "ok   %s: 0 allocs/event\n", n)
			}
		}
		for _, unit := range trendUnits {
			ns, ok := m[unit]
			if !ok {
				continue
			}
			checked++
			if prev == nil {
				fmt.Fprintf(&b, "ok   %s: %.1f %s (no previous artifact — baseline recorded)\n", n, ns, unit)
				continue
			}
			pm, ok := prev[n]
			if !ok {
				fmt.Fprintf(&b, "ok   %s: %.1f %s (new benchmark — no baseline yet)\n", n, ns, unit)
				continue
			}
			pns, ok := pm[unit]
			if !ok || pns <= 0 {
				fmt.Fprintf(&b, "ok   %s: %.1f %s (previous run reported no %s)\n", n, ns, unit, unit)
				continue
			}
			r := ns / pns
			if r > ratio {
				violations++
				fmt.Fprintf(&b, "FAIL %s: %.1f %s vs %.1f previously (%.2f×, budget %.2f×)\n", n, ns, unit, pns, r, ratio)
			} else {
				fmt.Fprintf(&b, "ok   %s: %.1f %s vs %.1f previously (%.2f×)\n", n, ns, unit, pns, r)
			}
		}
	}
	if lfd, ok := cur[lfdBench]["ns/event"]; ok {
		checked++
		lru, ok := cur[lruBench]["ns/event"]
		switch r := lfd / lru; {
		case !ok || lru <= 0:
			violations++
			fmt.Fprintf(&b, "FAIL %s: %.1f ns/event, but this run reports no ns/event for %s to bound it by (budget %.2f×)\n",
				lfdBench, lfd, lruBench, maxLFDOverLRU)
		case r > maxLFDOverLRU:
			violations++
			fmt.Fprintf(&b, "FAIL %s: %.1f ns/event is %.2f× %s (%.1f), budget %.2f×\n",
				lfdBench, lfd, r, lruBench, lru, maxLFDOverLRU)
		default:
			fmt.Fprintf(&b, "ok   %s: %.1f ns/event is %.2f× %s (%.1f)\n", lfdBench, lfd, r, lruBench, lru)
		}
	}
	if checked == 0 {
		return b.String(), fmt.Errorf("benchgate: no benchmark reported ns/event or allocs/event — wrong artifact?")
	}
	if violations > 0 {
		return b.String(), fmt.Errorf("benchgate: %d budget violation(s)", violations)
	}
	return b.String(), nil
}
