// Command rtrbenchgate enforces the hot-loop performance budget in CI.
// It reads the current bench artifact (`go test -json` output with the
// BenchmarkEventLoop metrics), optionally a previous run's artifact,
// and fails when the budget is broken:
//
//	rtrbenchgate -current BENCH_ci.json -previous prev/BENCH_ci.json
//
// Rules: allocs/event must be exactly 0 (no baseline needed — the
// zero-allocation steady state is an invariant); BenchmarkEventLoop/LFD
// must cost at most 2× BenchmarkEventLoop/LRU ns/event in the same
// artifact (no baseline needed either); ns/event must stay within
// -max-regress × the previous run (default 1.5, generous against
// runner noise). A missing previous artifact skips the trend rule with
// a note — the first run on a branch records the baseline instead of
// failing. The full check report prints either way.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/benchgate"
)

func main() {
	var (
		current  = flag.String("current", "BENCH_ci.json", "this run's `go test -json` benchmark output")
		previous = flag.String("previous", "", "previous run's artifact to diff ns/event against (missing file or empty flag: trend rule skipped)")
		maxRatio = flag.Float64("max-regress", 1.5, "ns/event budget as a ratio of the previous run")
	)
	flag.Parse()

	cur, err := parseFile(*current)
	if err != nil {
		fatal(err)
	}
	var prev map[string]benchgate.Metrics
	if *previous != "" {
		prev, err = parseFile(*previous)
		if os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "rtrbenchgate: no previous artifact at %s — baseline bootstrap\n", *previous)
			prev, err = nil, nil
		}
		if err != nil {
			fatal(err)
		}
	}

	report, err := benchgate.Gate(cur, prev, benchgate.Options{MaxRatio: *maxRatio})
	fmt.Print(report)
	if err != nil {
		fatal(err)
	}
}

func parseFile(path string) (map[string]benchgate.Metrics, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return benchgate.Parse(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rtrbenchgate:", err)
	os.Exit(1)
}
