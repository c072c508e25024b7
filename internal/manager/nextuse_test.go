package manager

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dynlist"
	"repro/internal/policy"
	"repro/internal/simtime"
	"repro/internal/taskgraph"
)

// scanOracle wraps a policy and checks each of its decisions against the
// lookahead the manager materialised before it had a next-use index: the
// running graph's reconfiguration sequence beyond the entry being
// decided, then the Dynamic List window, then — for WindowAll — every
// arrival still to come. For every candidate the index's distance must
// equal the linear scan's, and the wrapped policy must decide identically
// from the index and from the materialised sequence.
type scanOracle struct {
	policy.Policy
	t   *testing.T
	r   *Runner
	buf []taskgraph.TaskID

	decisions, reusable int
}

// lookahead rebuilds the materialised lookahead from the Runner's state.
func (o *scanOracle) lookahead() []taskgraph.TaskID {
	buf := o.buf[:0]
	w := o.Window()
	if w == policy.WindowNone {
		return buf
	}
	c := o.r.cur
	for _, li := range c.rec[min(c.recPos+1, len(c.rec)):] {
		buf = append(buf, c.g.Task(li).ID)
	}
	n := o.r.dl.Len()
	if w != policy.WindowAll {
		n = min(n, w)
	}
	for i := 0; i < n; i++ {
		buf = append(buf, o.r.dl.At(i).Graph.RecSequenceIDs()...)
	}
	if w == policy.WindowAll {
		for _, it := range o.r.arrivals[o.r.arrived:] {
			buf = append(buf, it.Graph.RecSequenceIDs()...)
		}
	}
	o.buf = buf
	return buf
}

// scanDistance is the paper's linear search, as the policies run it when
// a request carries no index.
func scanDistance(task taskgraph.TaskID, look []taskgraph.TaskID) int {
	for i, id := range look {
		if id == task {
			return i
		}
	}
	return -1
}

func (o *scanOracle) SelectVictim(req policy.Request, cands []policy.Candidate) policy.Decision {
	look := o.lookahead()
	if len(req.Lookahead) != 0 {
		o.t.Fatalf("%s: manager materialised a %d-entry lookahead", o.Name(), len(req.Lookahead))
	}
	if (req.Next == nil) != (o.Window() == policy.WindowNone) {
		o.t.Fatalf("%s (window %d): request index set = %v", o.Name(), o.Window(), req.Next != nil)
	}
	for _, c := range cands {
		want := scanDistance(c.Task, look)
		got := -1
		if req.Next != nil {
			got = req.Next.Distance(c.Task)
		}
		if got != want {
			o.t.Fatalf("%s decision %d: Next.Distance(%d) = %d, scan over the %d-entry lookahead = %d",
				o.Name(), o.decisions, c.Task, got, len(look), want)
		}
	}
	got := o.Policy.SelectVictim(req, cands)
	want := o.Policy.SelectVictim(policy.Request{Task: req.Task, Now: req.Now, Lookahead: look}, cands)
	if got != want {
		o.t.Fatalf("%s decision %d: indexed decision %+v, scanned decision %+v",
			o.Name(), o.decisions, got, want)
	}
	o.decisions++
	if got.Reusable {
		o.reusable++
	}
	return got
}

// TestNextUseMatchesLookaheadScan runs the property-test corpus under
// every lookahead shape the manager builds — LRU, Local LFD 1/2/4 and
// LFD; with and without skip events; without, greedy and conservative
// cross-graph prefetch; uniform and heterogeneous latency; batch and
// timed arrivals — and checks every decision against the materialised
// scan. Templates share task IDs in half the trials, so a configuration
// recurs across different graphs. One pooled Runner serves every run.
func TestNextUseMatchesLookaheadScan(t *testing.T) {
	rng := rand.New(rand.NewSource(20110516))
	pols := []func() policy.Policy{policy.NewLRU, policy.NewLFD}
	for _, w := range []int{1, 2, 4} {
		pols = append(pols, func() policy.Policy { p, _ := policy.NewLocalLFD(w); return p })
	}
	r := NewRunner()
	var decisions, reusable, skips, preloads int
	for trial := 0; trial < 40; trial++ {
		var seq []*taskgraph.Graph
		if trial%2 == 0 {
			seq = randomWorkload(t, rng, 1+rng.Intn(4), 1+rng.Intn(12))
		} else {
			seq = sharedIDWorkload(t, rng, 2+rng.Intn(4), 1+rng.Intn(12))
		}
		rus := 1 + rng.Intn(5)
		mob := make(map[*taskgraph.Graph][]int)
		for _, g := range seq {
			if mob[g] == nil {
				m := make([]int, g.NumTasks())
				for i := range m {
					m[i] = rng.Intn(4)
				}
				mob[g] = m
			}
		}
		timed := make([]dynlist.Item, len(seq))
		var at simtime.Time
		for i, g := range seq {
			at = at.Add(simtime.Time(rng.Int63n(int64(simtime.FromMs(15)))))
			timed[i] = dynlist.Item{Graph: g, Arrival: at}
		}
		for _, newPol := range pols {
			for variant := 0; variant < 2*3*2*2; variant++ {
				skip, prefetch, hetero, timedArr := variant&1 == 1, variant/2%3, variant/6%2 == 1, variant/12 == 1
				o := &scanOracle{Policy: newPol(), t: t, r: r}
				cfg := Config{
					RUs: rus, Latency: simtime.FromMs(4), Policy: o,
					SkipEvents:           skip,
					Mobility:             func(g *taskgraph.Graph) []int { return mob[g] },
					CrossGraphPrefetch:   prefetch > 0,
					ConservativePrefetch: prefetch == 2,
				}
				if hetero {
					cfg.LatencyFor = func(id taskgraph.TaskID) simtime.Time {
						return simtime.FromMs(float64(1 + int(id)%6))
					}
				}
				var feed dynlist.Feed = dynlist.NewSequence(seq...)
				if timedArr {
					f, err := dynlist.NewTimed(timed)
					if err != nil {
						t.Fatal(err)
					}
					feed = f
				}
				res, err := r.Run(cfg, feed)
				if err != nil {
					t.Fatalf("trial %d, %s, variant %d: %v", trial, o.Name(), variant, err)
				}
				decisions += o.decisions
				reusable += o.reusable
				skips += res.Skips
				preloads += res.Preloads
			}
		}
	}
	// The corpus must actually exercise what it claims to.
	t.Logf("%d decisions (%d reusable victims), %d skips, %d preloads", decisions, reusable, skips, preloads)
	if decisions < 1000 || reusable == 0 || skips == 0 || preloads == 0 {
		t.Errorf("weak corpus: %d decisions, %d reusable, %d skips, %d preloads",
			decisions, reusable, skips, preloads)
	}
}

// sharedIDWorkload is randomWorkload with overlapping task-ID ranges:
// template i numbers its tasks from 1+2i, so most configurations belong
// to several templates.
func sharedIDWorkload(t *testing.T, rng *rand.Rand, pools, apps int) []*taskgraph.Graph {
	t.Helper()
	pool := make([]*taskgraph.Graph, pools)
	for i := range pool {
		g, err := taskgraph.RandomLayered(fmt.Sprintf("shared%d", i), taskgraph.RandomConfig{
			Tasks:       1 + rng.Intn(7),
			MaxWidth:    1 + rng.Intn(3),
			EdgeProb:    0.4,
			MinExec:     simtime.FromMs(1),
			MaxExec:     simtime.FromMs(12),
			FirstTaskID: taskgraph.TaskID(1 + 2*i),
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		pool[i] = g
	}
	seq := make([]*taskgraph.Graph, apps)
	for i := range seq {
		seq[i] = pool[rng.Intn(len(pool))]
	}
	return seq
}
