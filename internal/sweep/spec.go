// Package sweep turns the repo's scenario grids — policies × unit counts ×
// latencies × workload seeds, the shape of every figure and table in the
// paper's evaluation — into a declarative Spec executed on a bounded
// worker pool.
//
// A Spec is the cross product of four axes (Workloads, RUs, Latencies,
// Policies). Expand flattens it into Scenarios in a fixed spec order;
// Executor.Collect simulates them concurrently and streams the results
// into a Collector in that same order, from one goroutine, so a parallel
// sweep is byte-for-byte interchangeable with a sequential one. Shared
// inputs are computed once per sweep, not once per scenario: the
// zero-latency ideal baseline per (workload, RUs), and the design-time
// mobility tables per (template, RUs, latency) via the process-wide
// cache in internal/mobility.
//
// The Collector is the report path's unit of composition:
//
//   - Run gathers everything into a ResultSet (O(grid) raw results —
//     only for reports that need traces or completion times);
//   - RunSummaries streams through a SummaryCollector, dropping each raw
//     run as it passes (O(workers) raw results, O(grid) small rows);
//   - RowRenderer groups the stream into report rows and renders each
//     one the moment its last scenario lands — O(1) rows retained, the
//     primitive behind every streaming table (see metrics.StreamTable);
//   - Discard, with a Store attached, is the write-through populate mode
//     of sharded runs: the store entries are the only output.
//
// Spec.Shard splits the grid across cooperating processes: shard i of N
// owns every scenario whose spec index ≡ i (mod N), the shards tile the
// grid exactly, and a shared result store merges them back into one
// report — Executor.RequireStored renders purely from the store, failing
// (never silently re-simulating) on a missing scenario, and
// Executor.StoreWait softens that into the watch-mode merge: a missing
// scenario is awaited and served the moment a remote shard stores it,
// with StoreWait.Done (typically coord.(*Coordinator).Drained) bounding
// the wait so a dead pool errors instead of hanging. See the CLIs'
// -shard/-coord/-merge-report/-watch flags and ARCHITECTURE.md for the
// full pipeline.
//
// Typical use (the Fig. 9 protocol):
//
//	rs, err := sweep.Run(sweep.Spec{
//	    Workloads: []sweep.Workload{{Pool: pool, Seq: seq}},
//	    RUs:       []int{4, 5, 6, 7, 8, 9, 10},
//	    Latencies: []simtime.Time{workload.PaperLatency()},
//	    Policies: []sweep.PolicySpec{
//	        sweep.Fixed("LRU", policy.NewLRU()),
//	        sweep.LocalLFD(1, true), // "+ Skip Events"
//	    },
//	})
//	sum := rs.At(0, ruIdx, 0, polIdx).Summary
package sweep

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/simtime"
	"repro/internal/taskgraph"
)

// Workload is one input sequence drawn over a template pool. Mobility
// tables are keyed by template identity, so Seq must reference the graphs
// of Pool (Pool may be nil when no policy uses skip events).
type Workload struct {
	// Label identifies the workload in scenario names (e.g. "seed 2014");
	// empty is fine for single-workload sweeps.
	Label string
	// Pool is the set of templates the design-time phase runs over.
	Pool []*taskgraph.Graph
	// Seq is the arrival sequence (all applications available at time
	// zero, as in the paper's experiments).
	Seq []*taskgraph.Graph
}

// PolicySpec is one value of the policy axis: how to build the policy and
// which manager features to enable around it.
type PolicySpec struct {
	// Name is the display name used in reports and summaries.
	Name string
	// Key is the canonical policy identity folded into scenario config
	// hashes ("lru", "locallfd:2", "random:7", …). The constructors below
	// set it; hand-built specs that leave it empty make the whole Spec
	// ineligible for the persisted result store (see Spec.ScenarioKeys).
	// It must fully determine the policy's behaviour: two specs may share
	// a Key only if their New constructors build equivalent policies.
	Key string
	// New builds a fresh policy instance. It is called once per scenario,
	// so stateful policies (Random) never cross goroutines.
	New func() (policy.Policy, error)
	// Skip enables skip events; the executor supplies the design-time
	// mobility tables for the scenario's (pool, RUs, latency).
	Skip bool
	// CrossGraphPrefetch / ConservativePrefetch enable the prefetch
	// extension variants.
	CrossGraphPrefetch   bool
	ConservativePrefetch bool
}

// Fixed wraps an existing policy instance under a display name. The
// instance is shared by every scenario of the axis value; use it only for
// stateless policies (LRU, MRU, FIFO, LFD, Local LFD) — which is also why
// the policy's own Name() can serve as the store identity Key (a stateful
// policy's name would not capture its seed).
func Fixed(name string, p policy.Policy) PolicySpec {
	return PolicySpec{
		Name: name,
		Key:  "fixed:" + p.Name(),
		New:  func() (policy.Policy, error) { return p, nil },
	}
}

// FromSpec builds the policy axis value from a CLI-style specifier
// ("lru", "locallfd:2", "random:7", …). The display name defaults to the
// parsed policy's Name (plus " + Skip Events" when skip is set).
func FromSpec(spec string, skip bool) (PolicySpec, error) {
	p, err := policy.Parse(spec) // fail fast on bad specifiers
	if err != nil {
		return PolicySpec{}, err
	}
	name := p.Name()
	if skip {
		name += " + Skip Events"
	}
	return PolicySpec{
		Name: name,
		Key:  strings.ToLower(strings.TrimSpace(spec)),
		New:  func() (policy.Policy, error) { return policy.Parse(spec) },
		Skip: skip,
	}, nil
}

// LocalLFD is the paper's policy axis value: Local LFD with a Dynamic
// List window of w graphs, optionally with skip events, named the way the
// paper's figures name it ("Local LFD (w) + Skip Events").
func LocalLFD(w int, skip bool) PolicySpec {
	name := fmt.Sprintf("Local LFD (%d)", w)
	if skip {
		name += " + Skip Events"
	}
	return PolicySpec{
		Name: name,
		Key:  fmt.Sprintf("locallfd:%d", w),
		New:  func() (policy.Policy, error) { return policy.NewLocalLFD(w) },
		Skip: skip,
	}
}

// Spec declares a scenario grid: the cross product of its four axes.
type Spec struct {
	Workloads []Workload
	RUs       []int
	Latencies []simtime.Time
	Policies  []PolicySpec

	// LatencyFor, when non-nil, supplies per-task latencies (heterogeneous
	// configurations), overriding the Latencies axis values in the
	// manager; the axis still names the scenarios.
	LatencyFor func(taskgraph.TaskID) simtime.Time
	// NoBaseline skips the zero-latency ideal run and the derived
	// Summary; Result.Run alone is populated. Use when the report only
	// needs raw counters.
	NoBaseline bool
	// RecordTrace retains full execution traces on results.
	RecordTrace bool
	// Shard restricts execution to one deterministic slice of the grid
	// (see Shard); the zero value runs everything. Expansion, spec
	// indices and config hashes are shard-independent.
	Shard Shard
}

// Size returns the number of scenarios the Spec expands to.
func (s Spec) Size() int {
	return len(s.Workloads) * len(s.RUs) * len(s.Latencies) * len(s.Policies)
}

// validate checks the axes are usable and free of duplicates. A repeated
// axis value would expand to two scenarios with the same config hash —
// the same simulation run twice and, with a result store attached, two
// writers racing on one key — so it is rejected with a pointed error
// instead of silently doubling the work.
func (s Spec) validate() error {
	if err := s.Shard.validate(); err != nil {
		return err
	}
	if len(s.Workloads) == 0 {
		return fmt.Errorf("sweep: no workloads")
	}
	for i, w := range s.Workloads {
		if len(w.Seq) == 0 {
			return fmt.Errorf("sweep: workload %d (%q) has an empty sequence", i, w.Label)
		}
		for j := range s.Workloads[:i] {
			if sameWorkload(&s.Workloads[j], &s.Workloads[i]) {
				return fmt.Errorf("sweep: workloads %d and %d are duplicates (label %q) — every scenario of one would rerun the other's", j, i, w.Label)
			}
		}
	}
	if len(s.RUs) == 0 {
		return fmt.Errorf("sweep: no RU counts")
	}
	seenRU := make(map[int]int, len(s.RUs))
	for i, r := range s.RUs {
		if r < 1 {
			return fmt.Errorf("sweep: bad RU count %d", r)
		}
		if j, dup := seenRU[r]; dup {
			return fmt.Errorf("sweep: duplicate RU count %d at axis positions %d and %d", r, j, i)
		}
		seenRU[r] = i
	}
	if len(s.Latencies) == 0 {
		return fmt.Errorf("sweep: no latencies")
	}
	seenLat := make(map[simtime.Time]int, len(s.Latencies))
	for i, l := range s.Latencies {
		if j, dup := seenLat[l]; dup {
			return fmt.Errorf("sweep: duplicate latency %v at axis positions %d and %d", l, j, i)
		}
		seenLat[l] = i
	}
	if len(s.Policies) == 0 {
		return fmt.Errorf("sweep: no policies")
	}
	seenPol := make(map[policyIdentity]int, len(s.Policies))
	for i, p := range s.Policies {
		if p.New == nil {
			return fmt.Errorf("sweep: policy %d (%q) has no constructor", i, p.Name)
		}
		id := p.identity()
		if j, dup := seenPol[id]; dup {
			return fmt.Errorf("sweep: policies %d and %d (%q) are duplicates — same policy and feature flags", j, i, p.Name)
		}
		seenPol[id] = i
	}
	return nil
}

// policyIdentity is the comparable tuple that makes two policy axis
// values the same scenario: the canonical key (falling back to the
// display name for hand-built specs) plus every feature flag.
type policyIdentity struct {
	key, name                string
	skip, prefetch, conserve bool
}

func (p PolicySpec) identity() policyIdentity {
	key := p.Key
	if key == "" {
		key = "name:" + p.Name
	}
	return policyIdentity{
		key: key, name: p.Name,
		skip: p.Skip, prefetch: p.CrossGraphPrefetch, conserve: p.ConservativePrefetch,
	}
}

// sameWorkload reports whether two workloads would simulate identically:
// same label, same pool templates and same arrival sequence (by template
// identity, which is what mobility tables and the manager key on).
func sameWorkload(a, b *Workload) bool {
	if a.Label != b.Label || len(a.Pool) != len(b.Pool) || len(a.Seq) != len(b.Seq) {
		return false
	}
	for i := range a.Pool {
		if a.Pool[i] != b.Pool[i] {
			return false
		}
	}
	for i := range a.Seq {
		if a.Seq[i] != b.Seq[i] {
			return false
		}
	}
	return true
}

// Scenario is one fully-specified simulation drawn from a Spec. The
// index fields locate it on each axis; Index is its position in spec
// order (workloads outermost, policies innermost).
type Scenario struct {
	Index                                     int
	WorkloadIdx, RUIdx, LatencyIdx, PolicyIdx int

	Workload *Workload
	RUs      int
	Latency  simtime.Time
	Policy   PolicySpec
}

// Name renders a stable human-readable scenario identifier.
func (sc Scenario) Name() string {
	s := sc.Policy.Name
	if sc.Workload.Label != "" {
		s = sc.Workload.Label + " " + s
	}
	return fmt.Sprintf("%s R=%d latency=%v", s, sc.RUs, sc.Latency)
}

// Expand flattens the grid into scenarios in spec order.
func (s *Spec) Expand() ([]Scenario, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	out := make([]Scenario, 0, s.Size())
	for wi := range s.Workloads {
		for ri, r := range s.RUs {
			for li, lat := range s.Latencies {
				for pi, p := range s.Policies {
					out = append(out, Scenario{
						Index:       len(out),
						WorkloadIdx: wi, RUIdx: ri, LatencyIdx: li, PolicyIdx: pi,
						Workload: &s.Workloads[wi],
						RUs:      r,
						Latency:  lat,
						Policy:   p,
					})
				}
			}
		}
	}
	return out, nil
}

// Result is one executed scenario.
type Result struct {
	Scenario Scenario
	// Elapsed is the measured wall time of simulating this scenario's own
	// run (excluding the shared ideal baseline and design-time phase, and
	// zero when the result was served from a store). The executor records
	// it on store entries as operational metadata (Entry.ElapsedNS); it
	// never reaches a report and never steers dispatch.
	Elapsed time.Duration
	// Run is the raw simulation outcome.
	Run *manager.Result
	// Ideal is the shared zero-latency baseline for the scenario's
	// (workload, RUs); nil when Spec.NoBaseline is set.
	Ideal *manager.Result
	// Summary carries the paper's metrics; nil when Spec.NoBaseline is
	// set.
	Summary *metrics.Summary

	// stored records that the result store acknowledged this result — a
	// store serve, or a live run whose write-back Put succeeded. The
	// Checkpointer advances its resume position only over stored results:
	// a checkpoint may never skip past a scenario the store cannot serve
	// to the next attempt.
	stored bool
}

// ResultSet is a completed sweep: results in spec order plus axis-indexed
// access. Sharded sweeps produce partial sets (only the shard's results,
// still in spec order) on which At is invalid.
type ResultSet struct {
	Spec    *Spec
	Results []*Result
}

// At returns the result at the given axis indices.
func (rs *ResultSet) At(workload, ru, latency, policy int) *Result {
	nr, nl, np := len(rs.Spec.RUs), len(rs.Spec.Latencies), len(rs.Spec.Policies)
	return rs.Results[((workload*nr+ru)*nl+latency)*np+policy]
}

// Summaries collects the metric summaries in spec order (nil entries when
// the sweep ran without baselines).
func (rs *ResultSet) Summaries() []*metrics.Summary {
	out := make([]*metrics.Summary, len(rs.Results))
	for i, r := range rs.Results {
		out[i] = r.Summary
	}
	return out
}
