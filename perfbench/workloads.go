package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/campaign"
	"repro/internal/coord"
	"repro/internal/dynlist"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/policy"
	"repro/internal/resultstore"
	"repro/internal/simtime"
	"repro/internal/sweep"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

// Workload sizes. fig9Apps scales the paper's 500-application sequence
// until clairvoyant LFD's whole-future lookahead is the largest cost (it
// is quadratic in the sequence length), while an iteration stays short
// enough (about 1.3 s on 2 vCPUs) for a run to take its medians over
// some 25 of them; the synthetic pool overflows every RU count with
// ~4k configurations so design time and the miss path dominate instead.
const (
	fig9Apps       = 3000
	synthTemplates = 128
	synthMinTasks  = 16
	synthMaxTasks  = 48
	synthApps      = 1000
	campaignApps   = 500

	synthLibrarySeed = 2011
)

var paperRUs = []int{4, 5, 6, 7, 8, 9, 10}

// nproc bounds every pool the benchmark starts: no more goroutines
// simulate at once than the machine has CPUs.
var nproc = runtime.NumCPU()

// campaignIDs are the experiments the campaign workload populates and
// merges: every summary grid of the suite except the benchmark-timed
// ablation.
var campaignIDs = []string{"fig9a", "fig9b", "fig9c", "variance", "sensitivity", "prefetch"}

// bench is one workload: setup builds a fresh instance (the untimed
// part), whose run is the timed part.
type bench struct {
	name  string
	setup func(seed int64, t *tracer) (*instance, error)
	// reference, when set, renders once per run, untimed, the report
	// every iteration must reproduce byte for byte.
	reference func(seed int64) (*reference, error)
	// paperScale: the workload runs the paper's 500-application
	// sequence, so the paper-reported averages its report prints compare.
	paperScale bool
}

// reference is a report rendered outside the timed part, with the
// outcome of rendering it. Iterations that render through the program's
// own report functions cannot observe their sweeps; they take their
// counts and summaries from the reference, whose report they match.
type reference struct {
	report []byte
	o      *outcome
}

// instance is one set-up iteration of a workload.
type instance struct {
	// run renders the report into w and returns what the checks and the
	// metrics need, or nil when the workload's reference supplies it.
	// It is the only timed part of an iteration.
	run func(w io.Writer) (*outcome, error)
	// cleanup, when set, releases what setup acquired; it runs after the
	// checks.
	cleanup func()
	// check, when set, verifies what the run left behind and fills the
	// outcome fields only that evidence gives; it runs untimed.
	check   func(o *outcome) error
	genTime time.Duration // input generation inside setup
}

// outcome is what one timed iteration produced besides its report.
type outcome struct {
	scenarios int // scenarios the report depends on
	failed    int // scenarios whose counters break an invariant
	events    uint64
	summaries []*metrics.Summary
	elapsed   []time.Duration // live scenario simulation times
	live      int
	served    int
	simWall   time.Duration // wall time of the simulating phase
	mobility  mobilityStats
	// campaign-fs phases, traced runs only
	populate, merge time.Duration
	ends            []time.Duration // campaign: when each shard finished, from populate start
	store           storeStats
}

type storeStats struct{ hits, misses int64 }

type mobilityStats struct {
	tables, schedules int
	busy              time.Duration
}

func benches() []bench {
	return []bench{
		{name: "fig9-scaled", setup: setupFig9, reference: fig9Reference},
		{name: "designtime-synthetic", setup: setupSynthetic},
		{name: "campaign-fs", setup: setupCampaign, reference: plainSuite, paperScale: true},
	}
}

// observe folds one collected sweep result into the outcome and checks
// its counter invariants.
func (o *outcome) observe(r *sweep.Result) {
	o.scenarios++
	if r.Elapsed > 0 {
		o.live++
		o.elapsed = append(o.elapsed, r.Elapsed)
		o.events += r.Run.Events
	} else {
		o.served++
	}
	if !countersOK(r.Run.Graphs, len(r.Scenario.Workload.Seq), r.Run.Reused, r.Run.Executed, r.Summary != nil) {
		o.failed++
	}
	if r.Summary != nil {
		o.summaries = append(o.summaries, r.Summary)
	}
}

// countersOK is the per-scenario invariant every workload checks: every
// application completed, no more reuses than executions, and a summary.
func countersOK(graphs, apps, reused, executed int, hasSummary bool) bool {
	return graphs == apps && reused <= executed && hasSummary
}

// designTime runs the design-time phase of every skip scenario in specs
// (every grid here names its template pool) as explicit per-template
// mobility.CachedAll calls fanned over nproc goroutines, so a traced run
// times mobility on its own; the sweeps that follow find every table
// cached.
func designTime(t *tracer, specs []sweep.Spec) (mobilityStats, error) {
	type job struct {
		g   *taskgraph.Graph
		rus int
		lat simtime.Time
	}
	var jobs []job
	queued := map[job]bool{}
	for _, sp := range specs {
		skip := false
		for _, p := range sp.Policies {
			skip = skip || p.Skip
		}
		if !skip {
			continue
		}
		for _, wl := range sp.Workloads {
			for _, g := range wl.Pool {
				for _, r := range sp.RUs {
					for _, l := range sp.Latencies {
						if j := (job{g, r, l}); !queued[j] {
							queued[j] = true
							jobs = append(jobs, j)
						}
					}
				}
			}
		}
	}
	end := t.begin("mobility")
	defer end()
	parent := int(t.phase.Load())
	var (
		mu    sync.Mutex
		st    mobilityStats
		seen  = map[*mobility.Table]bool{}
		first error
		next  = make(chan job)
		wg    sync.WaitGroup
	)
	for w := 0; w < min(nproc, len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				start := time.Now()
				_, tabs, err := mobility.CachedAll([]*taskgraph.Graph{j.g}, j.rus, j.lat)
				done := time.Now()
				t.rec.Record("mobility.cachedall", parent, start, done)
				mu.Lock()
				st.busy += done.Sub(start)
				if err != nil && first == nil {
					first = err
				}
				for _, tab := range tabs {
					if !seen[tab] {
						seen[tab] = true
						st.tables++
						st.schedules += tab.Schedules
					}
				}
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	if first != nil {
		return st, fmt.Errorf("design-time phase: %w", first)
	}
	return st, nil
}

// gridRun renders tables in order through one executor, the shared run
// of the two in-memory workloads. A traced run decorates the policies
// and times the design-time phase on its own first.
func gridRun(t *tracer, header string, tables []gridTable) func(w io.Writer) (*outcome, error) {
	return func(w io.Writer) (*outcome, error) {
		o := &outcome{}
		if t != nil {
			specs := make([]sweep.Spec, len(tables))
			for i, g := range tables {
				specs[i] = g.spec
			}
			ms, err := designTime(t, specs)
			if err != nil {
				return nil, err
			}
			o.mobility = ms
			for i := range tables {
				tables[i].spec = t.wrapSpec(tables[i].spec)
			}
		}
		fmt.Fprint(w, header)
		sweepStart := time.Now()
		ex := sweep.Executor{Workers: nproc}
		for _, g := range tables {
			var end func() time.Duration
			if t != nil {
				end = t.begin("sweep.grid")
			}
			if err := g.render(w, ex, o.observe); err != nil {
				return nil, err
			}
			if end != nil {
				end()
			}
		}
		o.simWall = time.Since(sweepStart)
		return o, nil
	}
}

// fig9IDs are the experiments of the fig9-scaled report.
var fig9IDs = []string{"fig9a", "fig9b", "fig9c"}

func fig9Options(seed int64) experiments.Options {
	return experiments.Options{Seed: seed, Apps: fig9Apps, RUs: paperRUs, Latency: workload.PaperLatency(), Parallel: nproc}
}

// setupFig9 is rtrrepro -only fig9a,fig9b,fig9c on a scaled sequence:
// the Fig. 9 grids, no store, nproc executor workers. An untraced
// iteration renders through campaign.RenderSuite, the program's own
// path, which draws the sequences inside the timed run. A traced one
// needs decorated policies, which the experiments' renderers cannot
// take, so it sweeps the experiments' Fig. 9 grids through its own copy
// of the layout; every traced report must match the untraced one.
func setupFig9(seed int64, t *tracer) (*instance, error) {
	opt := fig9Options(seed)
	if t == nil {
		selected, err := campaign.SelectExperiments(fig9IDs)
		if err != nil {
			return nil, err
		}
		// Each iteration is a fresh process: an empty design-time cache.
		mobility.FlushCache()
		run := func(w io.Writer) (*outcome, error) { return nil, campaign.RenderSuite(opt, selected, w) }
		return &instance{run: run}, nil
	}
	start := time.Now()
	header, tables, err := fig9Tables(opt)
	if err != nil {
		return nil, err
	}
	gen := time.Since(start)
	mobility.FlushCache()
	return &instance{run: gridRun(t, header, tables), genTime: gen}, nil
}

// fig9Reference renders the fig9-scaled report through the benchmark's
// copy of the layout, observing every sweep result.
func fig9Reference(seed int64) (*reference, error) {
	header, tables, err := fig9Tables(fig9Options(seed))
	if err != nil {
		return nil, err
	}
	mobility.FlushCache()
	var buf bytes.Buffer
	o, err := gridRun(nil, header, tables)(&buf)
	if err != nil {
		return nil, err
	}
	return &reference{report: buf.Bytes(), o: o}, nil
}

// fig9Tables lays out the report of rtrrepro -only fig9a,fig9b,fig9c
// over the experiments' own Fig. 9 grids. Titles and paper averages are
// as experiments/fig9.go prints them; every run checks the match against
// campaign.RenderSuite's report.
func fig9Tables(opt experiments.Options) (string, []gridTable, error) {
	type fig struct {
		grids    experiments.GridsFunc
		title    string
		metric   func(*metrics.Summary) float64
		paperAvg map[string]float64
		trailer  string
	}
	figs := []fig{
		{experiments.Fig9AGrids, "Fig. 9a — reuse rate (%) vs number of RUs (ASAP)", (*metrics.Summary).ReuseRate,
			map[string]float64{"LRU": 30.06, "Local LFD (4)": 45.93, "LFD": 45.97}, ""},
		{experiments.Fig9BGrids, "Fig. 9b — reuse rate (%) with Skip Events", (*metrics.Summary).ReuseRate,
			map[string]float64{"Local LFD (1) + Skip Events": 48.19, "LFD": 44.38}, ""},
		{experiments.Fig9CGrids, "Fig. 9c — remaining reconfiguration overhead (%)", (*metrics.Summary).RemainingOverheadPct,
			map[string]float64{"Local LFD (4) + Skip Events": 8.9, "LFD": 7.22}, "  (the paper additionally reports 19.19 % for LRU at R=4)"},
	}
	var tables []gridTable
	for _, f := range figs {
		specs, err := f.grids(opt)
		if err != nil {
			return "", nil, err
		}
		title := fmt.Sprintf("%s — %d apps from {JPEG, MPEG-1, Hough}, seed %d, latency %v",
			f.title, len(specs[0].Workloads[0].Seq), opt.Seed, opt.Latency)
		tables = append(tables, gridTable{title: title, spec: specs[0], metric: f.metric, paperAvg: f.paperAvg, trailer: f.trailer})
	}
	header := fmt.Sprintf("reproduction suite: seed %d, %d apps, RUs %v, latency %v\n", opt.Seed, opt.Apps, opt.RUs, opt.Latency)
	return header, tables, nil
}

// synthPool draws the synthetic template pool, random layered DAGs of
// 16–48 tasks with disjoint task IDs, and a sequence over it.
func synthPool(seed int64) (pool, seq []*taskgraph.Graph, err error) {
	// The pool is the system's application library, fixed like the
	// multimedia pool of Fig. 9; the seed draws the arrival sequence.
	rng := rand.New(rand.NewSource(synthLibrarySeed))
	next := taskgraph.TaskID(1)
	for i := 0; i < synthTemplates; i++ {
		g, err := taskgraph.RandomLayered(fmt.Sprintf("synth%03d", i), taskgraph.RandomConfig{
			Tasks:       synthMinTasks + rng.Intn(synthMaxTasks-synthMinTasks+1),
			MaxWidth:    4,
			EdgeProb:    0.3,
			MinExec:     simtime.FromMs(2),
			MaxExec:     simtime.FromMs(20),
			FirstTaskID: next,
		}, rng)
		if err != nil {
			return nil, nil, err
		}
		next = g.MaxTaskID() + 1
		pool = append(pool, g)
	}
	if err := workload.ValidateUniverse(pool); err != nil {
		return nil, nil, err
	}
	// Arrivals are uniform draws from the library, as in Fig. 9.
	feed, err := dynlist.RandomSequence(pool, synthApps, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, nil, err
	}
	for _, it := range feed.Remaining() {
		seq = append(seq, it.Graph)
	}
	return pool, seq, nil
}

// setupSynthetic is the design-time-heavy workload: a cold mobility
// cache, no store, no clairvoyant LFD.
func setupSynthetic(seed int64, t *tracer) (*instance, error) {
	start := time.Now()
	pool, seq, err := synthPool(seed)
	if err != nil {
		return nil, err
	}
	gen := time.Since(start)
	lat := workload.PaperLatency()
	spec := sweep.Spec{
		Workloads: []sweep.Workload{{Pool: pool, Seq: seq}},
		RUs:       paperRUs,
		Latencies: []simtime.Time{lat},
		Policies: []sweep.PolicySpec{
			sweep.Fixed("LRU", policy.NewLRU()),
			sweep.LocalLFD(1, false),
			sweep.LocalLFD(1, true),
		},
	}
	// A fresh process starts with an empty design-time cache.
	mobility.FlushCache()
	header := fmt.Sprintf("designtime-synthetic: seed %d, %d templates, %d configurations, %d apps, RUs %v, latency %v\n",
		seed, len(pool), workload.UniverseSize(pool), len(seq), paperRUs, lat)
	table := gridTable{title: "reuse rate (%) vs number of RUs", spec: spec, metric: (*metrics.Summary).ReuseRate}
	return &instance{run: gridRun(t, header, []gridTable{table}), genTime: gen}, nil
}

// campaignSelected returns the campaign's experiments; a traced run
// decorates the policies of every grid they declare.
func campaignSelected(t *tracer) ([]experiments.Experiment, error) {
	selected, err := campaign.SelectExperiments(campaignIDs)
	if err != nil || t == nil {
		return selected, err
	}
	for i := range selected {
		grids := selected[i].Grids
		selected[i].Grids = func(opt experiments.Options) ([]sweep.Spec, error) {
			specs, err := grids(opt)
			for j := range specs {
				specs[j] = t.wrapSpec(specs[j])
			}
			return specs, err
		}
	}
	return selected, nil
}

func campaignOptions(seed int64) experiments.Options {
	return experiments.Options{Seed: seed, Apps: campaignApps, RUs: paperRUs, Latency: workload.PaperLatency()}
}

// campaignFingerprint identifies the campaign to the coordinator, as
// rtrrepro's -coord mode does from its flags.
func campaignFingerprint(opt experiments.Options) string {
	h := resultstore.NewHash()
	h.String("cli", "perfbench")
	h.Int("seed", opt.Seed)
	h.Int("apps", int64(opt.Apps))
	for _, r := range opt.RUs {
		h.Int("ru", int64(r))
	}
	h.Int("latency", int64(opt.Latency))
	for _, id := range campaignIDs {
		h.String("experiment", id)
	}
	return h.Sum()
}

// wantEntry is what the store must hold for one campaign scenario.
type wantEntry struct {
	apps     int
	baseline bool
}

// campaignKeys lists every scenario the campaign's grids store, by key.
func campaignKeys(opt experiments.Options, selected []experiments.Experiment) (map[string]wantEntry, error) {
	want := map[string]wantEntry{}
	for _, e := range selected {
		if e.Grids == nil {
			continue
		}
		specs, err := e.Grids(opt)
		if err != nil {
			return nil, err
		}
		for _, sp := range specs {
			keys, err := sp.ScenarioKeys()
			if err != nil {
				return nil, err
			}
			scs, err := sp.Expand()
			if err != nil {
				return nil, err
			}
			for i, k := range keys {
				want[k] = wantEntry{apps: len(scs[i].Workload.Seq), baseline: !sp.NoBaseline}
			}
		}
	}
	return want, nil
}

// setupCampaign is the multi-host workflow in one process: an fs store
// and fs coordinator in a scratch directory, nproc claim loops over
// nproc+1 shards populating with checkpoints, then a store-only merge.
// Lease TTL and heartbeat stay at the CLI defaults.
func setupCampaign(seed int64, t *tracer) (*instance, error) {
	dir, err := os.MkdirTemp(tmpRoot, "campaign-*")
	if err != nil {
		return nil, err
	}
	cleanup := func() { os.RemoveAll(dir) }
	sb, err := resultstore.NewFS(filepath.Join(dir, "store"))
	if err != nil {
		cleanup()
		return nil, err
	}
	var cb coord.Backend = coord.NewFS(filepath.Join(dir, "coord"))
	if t != nil {
		sb = tracedStore{sb, t}
		cb = tracedCoord{cb, t}
	}
	start := time.Now()
	opt := campaignOptions(seed)
	selected, err := campaignSelected(t)
	if err != nil {
		cleanup()
		return nil, err
	}
	want, err := campaignKeys(opt, selected)
	if err != nil {
		cleanup()
		return nil, err
	}
	gen := time.Since(start)
	fp := campaignFingerprint(opt)
	cfg := coord.Config{Backend: cb, Shards: nproc + 1, Fingerprint: fp}
	// A fresh worker process starts with an empty design-time cache.
	mobility.FlushCache()

	run := func(w io.Writer) (*outcome, error) {
		o := &outcome{}
		popStore := resultstore.FromBackend(sb)
		restore := artifact.Install(popStore)
		defer restore()
		popStart := time.Now()
		var endPop func() time.Duration
		if t != nil {
			ms, err := designTimeForCampaign(t, opt, selected)
			if err != nil {
				return nil, err
			}
			o.mobility = ms
			endPop = t.begin("campaign.populate")
		}
		c, err := coord.Open(cfg)
		if err != nil {
			return nil, err
		}
		popOpt := opt
		popOpt.Parallel = 1
		popOpt.Store = popStore
		popOpt.Checkpoints, popOpt.Fingerprint = coord.NewCheckpointStore(cb), fp
		var mu sync.Mutex
		if _, err := c.RunWorkers(nproc, func(r coord.ShardRun) error {
			_, err := experiments.Populate(popOpt, selected, sweep.Shard{Index: r.Shard, Count: r.Count})
			mu.Lock()
			o.ends = append(o.ends, time.Since(popStart))
			mu.Unlock()
			return err
		}); err != nil {
			return nil, err
		}
		o.simWall = time.Since(popStart)
		if endPop != nil {
			o.populate = endPop()
		}
		h, m, _ := popStore.Stats()
		o.store.hits, o.store.misses = h, m

		// The merge is another process: cold design-time cache, its own
		// store handle, the drained pool checked before rendering.
		mobility.FlushCache()
		mergeStore := resultstore.FromBackend(sb)
		artifact.Install(mergeStore)
		var endMerge func() time.Duration
		if t != nil {
			endMerge = t.begin("campaign.merge")
		}
		if _, _, _, err := coord.MergeGate(cfg, false, io.Discard); err != nil {
			return nil, err
		}
		mergeOpt := opt
		mergeOpt.Parallel = nproc
		mergeOpt.Store = mergeStore
		mergeOpt.RequireStored = true
		if err := campaign.RenderSuite(mergeOpt, selected, w); err != nil {
			return nil, err
		}
		if endMerge != nil {
			o.merge = endMerge()
		}
		h, m, _ = mergeStore.Stats()
		o.store.hits += h
		o.store.misses += m
		o.served = int(o.store.hits)
		return o, nil
	}
	inst := &instance{run: run, cleanup: cleanup, genTime: gen}
	inst.check = func(o *outcome) error { return checkCampaignStore(sb, want, o) }
	return inst, nil
}

// designTimeForCampaign times the campaign's design-time phase over
// every grid its experiments declare.
func designTimeForCampaign(t *tracer, opt experiments.Options, selected []experiments.Experiment) (mobilityStats, error) {
	var specs []sweep.Spec
	for _, e := range selected {
		if e.Grids == nil {
			continue
		}
		s, err := e.Grids(opt)
		if err != nil {
			return mobilityStats{}, err
		}
		specs = append(specs, s...)
	}
	return designTime(t, specs)
}

// checkCampaignStore reads every stored scenario back after the run: each
// key the grids declare is present exactly as a live run left it, and
// its counters satisfy the invariants. It fills the outcome's live-run
// counts, which the merge cannot see.
func checkCampaignStore(b resultstore.Backend, want map[string]wantEntry, o *outcome) error {
	found := map[string]bool{}
	_, err := b.Visit(func(key string, data []byte) error {
		w, ok := want[key]
		if !ok {
			return nil // a design-time artifact
		}
		var e resultstore.Entry
		if err := json.Unmarshal(data, &e); err != nil || e.Run == nil {
			o.failed++
			return nil
		}
		found[key] = true
		o.live++
		o.events += e.Run.Events
		o.elapsed = append(o.elapsed, time.Duration(e.ElapsedNS))
		if !countersOK(e.Run.Graphs, w.apps, e.Run.Reused, e.Run.Executed, e.Summary != nil || !w.baseline) {
			o.failed++
		}
		if e.Summary != nil {
			o.summaries = append(o.summaries, e.Summary)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("read store back: %w", err)
	}
	o.scenarios = len(want)
	o.failed += len(want) - len(found)
	return nil
}

// plainSuite renders the campaign's experiments in one process without
// a store: the report the merge must reproduce byte for byte.
func plainSuite(seed int64) (*reference, error) {
	selected, err := campaign.SelectExperiments(campaignIDs)
	if err != nil {
		return nil, err
	}
	opt := campaignOptions(seed)
	opt.Parallel = nproc
	var buf bytes.Buffer
	if err := campaign.RenderSuite(opt, selected, &buf); err != nil {
		return nil, err
	}
	return &reference{report: buf.Bytes()}, nil
}
