package experiments

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/policy"
	"repro/internal/simtime"
	"repro/internal/sweep"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

// WorstCase builds the paper's Table I measurement scenario for a given
// lookahead length: four replacement candidates whose configurations
// never occur in the lookahead, so every selection scans the entire
// future list once per candidate ("this search has to be carried out 4
// times").
type WorstCase struct {
	Request    policy.Request
	Candidates []policy.Candidate
}

// NewWorstCase constructs the scenario. lookahead is the visible future:
// for LFD the complete remaining 500-application request sequence, for
// Local LFD (w) the running graph's remainder plus w enqueued graphs.
func NewWorstCase(lookahead []taskgraph.TaskID) WorstCase {
	cands := make([]policy.Candidate, 4)
	for i := range cands {
		// Candidate IDs outside every benchmark's range: never found.
		cands[i] = policy.Candidate{
			RU:       i,
			Task:     taskgraph.TaskID(9000 + i),
			LastUse:  simtime.Time(i),
			LoadedAt: simtime.Time(i),
		}
	}
	return WorstCase{
		Request:    policy.Request{Task: 8999, Lookahead: lookahead},
		Candidates: cands,
	}
}

// NewLateHitCase is the cost-equivalent variant of the worst case for an
// implementation that (like ours) stops scanning once it finds a
// never-reused candidate: every candidate's configuration occurs, but only
// in the last four positions of the lookahead, so all four scans run the
// full list. The paper's implementation pays this cost in the absent-
// victim case; ours pays it here. The request carries no next-use index,
// so selection runs the paper's linear scan, not the simulator's O(1)
// lookup.
func NewLateHitCase(lookahead []taskgraph.TaskID) WorstCase {
	look := append([]taskgraph.TaskID(nil), lookahead...)
	wc := NewWorstCase(look)
	if n := len(look); n >= len(wc.Candidates) {
		for i, c := range wc.Candidates {
			look[n-len(wc.Candidates)+i] = c.Task
		}
	}
	wc.Request.Lookahead = look
	return wc
}

// FullFutureLookahead flattens a graph sequence into the request stream an
// LFD oracle would scan.
func FullFutureLookahead(seq []*taskgraph.Graph) []taskgraph.TaskID {
	var out []taskgraph.TaskID
	for _, g := range seq {
		out = append(out, g.RecSequenceIDs()...)
	}
	return out
}

// WindowLookahead builds the Local LFD (w) worst-case lookahead: the
// largest benchmark's remainder plus w full graphs.
func WindowLookahead(w int) []taskgraph.TaskID {
	hough := workload.Hough()
	out := append([]taskgraph.TaskID(nil), hough.RecSequenceIDs()[1:]...)
	for i := 0; i < w; i++ {
		out = append(out, hough.RecSequenceIDs()...)
	}
	return out
}

// TableIRow is one measured policy.
type TableIRow struct {
	Name       string
	NsPerOp    float64
	PaperMs    float64 // the paper's PowerPC@100MHz measurement
	RatioToLRU float64
}

// tableICase declares one measured policy: the sweep PolicySpec names it
// and constructs it, the lookahead shapes its worst case, and PaperMs is
// the paper's PowerPC measurement next to which it is reported.
type tableICase struct {
	spec    sweep.PolicySpec
	look    []taskgraph.TaskID
	paperMs float64
}

// tableICases builds the paper's five measured configurations.
func tableICases(full []taskgraph.TaskID) []tableICase {
	return []tableICase{
		{sweep.Fixed("LRU", policy.NewLRU()), nil, 0.00720},
		{sweep.Fixed("LFD", policy.NewLFD()), full, 11.34983},
		{sweep.LocalLFD(1, true), WindowLookahead(1), 0.06028},
		{sweep.LocalLFD(2, true), WindowLookahead(2), 0.07412},
		{sweep.LocalLFD(4, true), WindowLookahead(4), 0.11020},
	}
}

// MeasureTableI times each policy's victim selection in the worst case.
// It returns rows in the paper's order. Timing uses testing.Benchmark —
// necessarily sequential, unlike the simulation sweeps: concurrent
// scenarios would perturb each other's clocks. The results are
// machine-dependent; the meaningful comparison is the ratio column (see
// EXPERIMENTS.md §"Benchmarks" on the PowerPC substitution).
func MeasureTableI(opt Options) ([]TableIRow, error) {
	opt = opt.normalized()
	seq, err := opt.sequence()
	if err != nil {
		return nil, err
	}
	cases := tableICases(FullFutureLookahead(seq))
	rows := make([]TableIRow, 0, len(cases))
	var lruNs float64
	for _, c := range cases {
		pol, err := c.spec.New()
		if err != nil {
			return nil, err
		}
		// Use the late-hit variant so the measured cost includes one full
		// scan per candidate, matching the paper's implementation (which
		// cannot short-circuit); see NewLateHitCase.
		wc := NewLateHitCase(c.look)
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pol.SelectVictim(wc.Request, wc.Candidates)
			}
		})
		ns := float64(res.NsPerOp())
		if c.spec.Name == "LRU" {
			lruNs = ns
		}
		rows = append(rows, TableIRow{Name: c.spec.Name, NsPerOp: ns, PaperMs: c.paperMs})
	}
	for i := range rows {
		if lruNs > 0 {
			rows[i].RatioToLRU = rows[i].NsPerOp / lruNs
		}
	}
	return rows, nil
}

// TableI writes the Table I report: worst-case run-time delay per
// replacement decision, measured on the host, next to the paper's
// PowerPC numbers and the policy-to-LRU ratios on both platforms.
func TableI(opt Options, w io.Writer) error {
	rows, err := MeasureTableI(opt)
	if err != nil {
		return err
	}
	section(w, "Table I — worst-case run-time delay of the replacement decision")
	fmt.Fprintf(w, "%-30s %14s %14s %12s %12s\n",
		"policy", "host ns/op", "paper ms", "host ratio", "paper ratio")
	var paperLRU float64
	for _, r := range rows {
		if r.Name == "LRU" {
			paperLRU = r.PaperMs
		}
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-30s %14.1f %14.5f %12.1f %12.1f\n",
			r.Name, r.NsPerOp, r.PaperMs, r.RatioToLRU, r.PaperMs/paperLRU)
	}
	fmt.Fprintln(w, "\nexpected shape: LRU ≪ Local LFD (1) < (2) < (4) ≪ LFD; the paper's")
	fmt.Fprintln(w, "LFD/LRU ratio is ~1576×, its Local LFD(1)/LRU ratio ~8.4×.")
	return nil
}
