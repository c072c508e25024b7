// Command perfbench is the repository benchmark. It runs one workload
// for a fixed time, checks every report it renders, and prints the
// metrics as the last line of its output, one JSON object:
//
//	go run . -workload fig9-scaled -seed 2011 -seconds 35 -trace 0
//
// With -trace 0 it reports the end-to-end metrics of untraced
// iterations; with -trace 1 it alternates untraced and traced iterations
// and reports the per-layer metrics the traced ones record. README.md
// says why each workload and metric is there; run.py builds the command
// and is what BENCHMARK.json names.
package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/mobility"
)

// defaultSeed is the repository's default workload seed.
const defaultSeed = 2011

// A run times at least minSetups set-ups, and keeps setting up until
// they add up to minSetupTime, so a set-up of microseconds is measured
// over thousands of samples; setup_s is their median.
const (
	minSetups    = 21
	minSetupTime = 200 * time.Millisecond
)

//go:embed golden.json
var goldenJSON []byte

// tmpRoot holds the campaign workload's store and coordinator.
var tmpRoot string

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: fig9-scaled, designtime-synthetic or campaign-fs")
		seed    = flag.Int64("seed", defaultSeed, "workload seed")
		seconds = flag.Float64("seconds", 35, "time budget: iterations start while they are expected to end within it")
		traced  = flag.Int("trace", 0, "1: report per-layer metrics from traced iterations")
		spans   = flag.String("spans", "", "with -trace 1, write the recorded spans to this file at exit")
		tmp     = flag.String("tmp", os.TempDir(), "directory for the campaign workload's store and coordinator")
	)
	flag.Parse()
	tmpRoot = *tmp
	var b *bench
	for _, c := range benches() {
		if c.name == *name {
			b = &c
		}
	}
	if b == nil || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (fig9-scaled, designtime-synthetic, campaign-fs) and -trace 0|1\n")
		os.Exit(2)
	}
	res, err := measure(*b, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %16.6f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// sample is one iteration's raw measurements.
type sample struct {
	report   []byte
	o        *outcome
	wall     time.Duration
	firstRow time.Duration
	cpu      time.Duration
	rss      uint64             // peak resident bytes sampled during the run
	layers   map[string]float64 // traced iterations only
}

// runner drives iterations of one workload and accumulates the checks.
type runner struct {
	b      bench
	seed   int64
	rec    *Recorder
	setups []time.Duration

	attempted, failed int
	ref               *reference
	digestShown       bool
}

func measure(b bench, seed int64, budget time.Duration, traced bool, spansPath string) (*result, error) {
	r := &runner{b: b, seed: seed}
	if traced {
		var sink io.Writer = io.Discard
		var f *os.File
		if spansPath != "" {
			var err error
			if f, err = os.Create(spansPath); err != nil {
				return nil, err
			}
			sink = f
		}
		r.rec = NewRecorder(sink)
		defer func() {
			err := r.rec.Close()
			if f != nil {
				err = errors.Join(err, f.Close())
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
			}
		}()
	}
	if b.reference != nil {
		ref, err := b.reference(seed)
		if err != nil {
			return nil, fmt.Errorf("%s reference render: %w", b.name, err)
		}
		r.ref = ref
	}
	var (
		plainRuns, tracedRuns []sample
		rounds                []float64 // seconds per loop round
	)
	start := time.Now()
	// Start another round only while it is expected to end within the
	// budget, so a run's length stays close to what it was asked for.
	for len(rounds) == 0 || time.Since(start).Seconds()+median(rounds) <= budget.Seconds() {
		roundStart := time.Now()
		s, err := r.iterate(nil)
		if err != nil {
			return nil, err
		}
		plainRuns = append(plainRuns, s)
		if !traced {
			rounds = append(rounds, time.Since(roundStart).Seconds())
			continue
		}
		t := newTracer(r.rec, b.name)
		ts, err := r.iterate(t)
		if err != nil {
			return nil, err
		}
		r.rec.Finish(t.root)
		if !bytes.Equal(ts.report, s.report) {
			fmt.Fprintf(os.Stderr, "perfbench: traced report differs from the untraced one\n")
			r.failed += ts.o.scenarios
		}
		tracedRuns = append(tracedRuns, ts)
		rounds = append(rounds, time.Since(roundStart).Seconds())
	}
	var total time.Duration
	for _, d := range r.setups {
		total += d
	}
	for len(r.setups) < minSetups || total < minSetupTime {
		start := time.Now()
		inst, err := b.setup(seed, nil)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", b.name, err)
		}
		d := time.Since(start)
		r.setups = append(r.setups, d)
		total += d
		if inst.cleanup != nil {
			inst.cleanup()
		}
	}
	res := &result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	res.Correct = r.failed == 0
	if !traced {
		endToEnd(res, r, plainRuns)
		return res, nil
	}
	perLayer(res, r, plainRuns, tracedRuns)
	return res, nil
}

// setup builds one instance and times it. The garbage collection after
// it is untimed: it only clears what earlier iterations left, which a
// fresh process does not have, so the timed run starts on a clean heap.
func (r *runner) setup(t *tracer) (*instance, error) {
	start := time.Now()
	inst, err := r.b.setup(r.seed, t)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", r.b.name, err)
	}
	r.setups = append(r.setups, time.Since(start))
	runtime.GC()
	return inst, nil
}

// iterate sets up, runs and checks one iteration.
func (r *runner) iterate(t *tracer) (sample, error) {
	inst, err := r.setup(t)
	if err != nil {
		return sample{}, err
	}
	if inst.cleanup != nil {
		defer inst.cleanup()
	}

	var (
		before runtime.MemStats
		mob    = mobility.Stats()
	)
	if t != nil {
		runtime.ReadMemStats(&before)
	}
	mem := startMemSampler()
	cpu0 := cpuTime()
	start := time.Now()
	w := newReportWriter(start, t)
	o, err := inst.run(w)
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	peak := mem.stop()
	if err != nil {
		return sample{}, fmt.Errorf("%s: %w", r.b.name, err)
	}
	var after runtime.MemStats
	mob1 := mobility.Stats()
	if t != nil {
		runtime.ReadMemStats(&after)
	}
	s := sample{report: w.buf.Bytes(), o: o, wall: wall, firstRow: w.firstRow, cpu: cpu, rss: peak.rss}
	fmt.Fprintf(os.Stderr, "perfbench: %s traced=%v wall %.3fs first row %.3fs cpu %.3fs\n",
		r.b.name, t != nil, wall.Seconds(), s.firstRow.Seconds(), cpu.Seconds())
	if err := r.check(inst, &s); err != nil {
		return sample{}, err
	}
	if t != nil {
		s.layers = layers(t, s, inst, mob, mob1, &before, &after, peak.heap)
	}
	return s, nil
}

// check runs every output check on an iteration, outside the timed
// region, and counts the scenarios that fail one.
func (r *runner) check(inst *instance, s *sample) error {
	if s.o == nil {
		s.o = r.ref.o
	}
	if inst.check != nil {
		if err := inst.check(s.o); err != nil {
			return err
		}
	}
	if s.firstRow < 0 {
		return errors.New("report has no table row")
	}
	bad := false
	sum := sha256.Sum256(s.report)
	digest := hex.EncodeToString(sum[:])
	if !r.digestShown {
		r.digestShown = true
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d report sha256 %s\n", r.b.name, r.seed, digest)
	}
	if r.seed == defaultSeed {
		var golden map[string]string
		if err := json.Unmarshal(goldenJSON, &golden); err != nil {
			return fmt.Errorf("golden.json: %w", err)
		}
		if want, ok := golden[r.b.name]; ok && want != digest {
			fmt.Fprintf(os.Stderr, "perfbench: %s report digest %s, golden %s\n", r.b.name, digest, want)
			bad = true
		}
	}
	if r.ref != nil && !bytes.Equal(s.report, r.ref.report) {
		fmt.Fprintf(os.Stderr, "perfbench: %s report differs from the reference render\n", r.b.name)
		bad = true
	}
	r.attempted += s.o.scenarios
	if bad {
		r.failed += s.o.scenarios
	} else {
		r.failed += s.o.failed
	}
	return nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(runs []sample, f func(sample) float64) float64 {
	xs := make([]float64, len(runs))
	for i, s := range runs {
		xs[i] = f(s)
	}
	return median(xs)
}

// endToEnd fills the metrics a user of the system sees, each a median
// over the run's iterations.
func endToEnd(res *result, r *runner, runs []sample) {
	secs := make([]float64, len(r.setups))
	for i, d := range r.setups {
		secs[i] = d.Seconds()
	}
	m := res.Metrics
	m["setup_s"] = metric{median(secs), "s"}
	m["wall_s"] = metric{medianOf(runs, func(s sample) float64 { return s.wall.Seconds() }), "s"}
	m["first_row_s"] = metric{medianOf(runs, func(s sample) float64 { return s.firstRow.Seconds() }), "s"}
	m["sim_events_per_s"] = metric{medianOf(runs, func(s sample) float64 { return float64(s.o.events) / s.wall.Seconds() }), "1/s"}
	m["cpu_s"] = metric{medianOf(runs, func(s sample) float64 { return s.cpu.Seconds() }), "s"}
	m["peak_rss_mb"] = metric{medianOf(runs, func(s sample) float64 { return float64(s.rss) / (1 << 20) }), "MB"}
	_, overhead := summaryMeans(runs[0].o)
	m["overhead_pct"] = metric{overhead, "%"}
}

// summaryMeans is the mean reuse rate and remaining overhead over every
// scenario summary of one iteration; iterations agree exactly.
func summaryMeans(o *outcome) (reuse, overhead float64) {
	if len(o.summaries) == 0 {
		return 0, 0
	}
	for _, s := range o.summaries {
		reuse += s.ReuseRate()
		overhead += s.RemainingOverheadPct()
	}
	n := float64(len(o.summaries))
	return reuse / n, overhead / n
}
