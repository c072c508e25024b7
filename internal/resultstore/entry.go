package resultstore

import (
	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/simtime"
)

// Entry is one stored scenario outcome: the raw run, its zero-latency
// ideal baseline and the derived summary (the latter two absent for
// sweeps run without baselines). Schema and Key are stamped by Put.
type Entry struct {
	Schema int    `json:"schema"`
	Key    string `json:"key"`
	// Scenario is a human-readable label for store inspection only; it is
	// not part of the identity (the key is).
	Scenario string `json:"scenario,omitempty"`

	// ElapsedNS is the measured wall time, in nanoseconds, of simulating
	// this scenario (its own run — not the shared ideal baseline or the
	// design-time phase, which are amortized across a sweep). Like
	// Attempts it is operational metadata, never part of the result:
	// reports ignore it, and it does not steer dispatch.
	ElapsedNS int64 `json:"elapsed_ns,omitempty"`

	// Attempts is how many executions the scenario took before this
	// result landed (1 = first try). LastError and RetriedAtNS record the
	// final retried failure and when the winning attempt started, set
	// only when Attempts > 1. Like ElapsedNS these are operational
	// metadata, never part of the result: reports ignore them, so adding
	// them did not bump SchemaVersion (strictly-additive optional fields
	// never do — old entries simply decode with Attempts 0, meaning
	// "recorded before retry bookkeeping existed").
	Attempts    int    `json:"attempts,omitempty"`
	LastError   string `json:"last_error,omitempty"`
	RetriedAtNS int64  `json:"retried_at_ns,omitempty"`

	Run     *Run             `json:"run"`
	Ideal   *Run             `json:"ideal,omitempty"`
	Summary *metrics.Summary `json:"summary,omitempty"`
}

// Run is the serializable subset of a manager.Result: every counter and
// timing a report can consume, minus the in-memory-only execution trace
// and template map (trace-recording sweeps bypass the store entirely).
type Run struct {
	Makespan    simtime.Time   `json:"makespan"`
	Executed    int            `json:"executed"`
	Reused      int            `json:"reused"`
	Loads       int            `json:"loads"`
	Evictions   int            `json:"evictions"`
	Skips       int            `json:"skips,omitempty"`
	ForcedSkips int            `json:"forced_skips,omitempty"`
	Preloads    int            `json:"preloads,omitempty"`
	Graphs      int            `json:"graphs"`
	Completions []simtime.Time `json:"completions,omitempty"`
	Events      uint64         `json:"events"`
}

// RecordRun captures the serializable fields of a completed run. The
// trace and the template map are dropped — callers that need them must
// not serve the scenario from the store.
func RecordRun(r *manager.Result) *Run {
	if r == nil {
		return nil
	}
	rec := &Run{
		Makespan:    r.Makespan,
		Executed:    r.Executed,
		Reused:      r.Reused,
		Loads:       r.Loads,
		Evictions:   r.Evictions,
		Skips:       r.Skips,
		ForcedSkips: r.ForcedSkips,
		Preloads:    r.Preloads,
		Graphs:      r.Graphs,
		Events:      r.Events,
	}
	if len(r.Completions) > 0 {
		rec.Completions = append([]simtime.Time(nil), r.Completions...)
	}
	return rec
}

// Result reconstructs a manager.Result from the record. Trace and
// Templates are nil — by construction no stored scenario was recorded
// with tracing enabled.
func (r *Run) Result() *manager.Result {
	if r == nil {
		return nil
	}
	res := &manager.Result{
		Makespan:    r.Makespan,
		Executed:    r.Executed,
		Reused:      r.Reused,
		Loads:       r.Loads,
		Evictions:   r.Evictions,
		Skips:       r.Skips,
		ForcedSkips: r.ForcedSkips,
		Preloads:    r.Preloads,
		Graphs:      r.Graphs,
		Events:      r.Events,
	}
	if len(r.Completions) > 0 {
		res.Completions = append([]simtime.Time(nil), r.Completions...)
	}
	return res
}
