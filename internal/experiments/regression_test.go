package experiments

import (
	"testing"

	"repro/internal/dynlist"
	"repro/internal/manager"
	"repro/internal/mobility"
	"repro/internal/policy"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// TestFig9RegressionPin freezes the exact outcome of the paper-parameter
// run (500 apps, seed 2011, R=4, 4 ms) for the four key configurations.
// Any change to the scheduler's semantics — tie-breaking, event ordering,
// candidate rules — will move these integers; if that happens on purpose,
// re-check the fig2/fig3 worked examples against the paper's figures
// (EXPERIMENTS.md §"Experiment IDs") before updating.
func TestFig9RegressionPin(t *testing.T) {
	opt := DefaultOptions()
	pool, seq, err := opt.Workload()
	if err != nil {
		t.Fatal(err)
	}
	lookup, _, err := mobility.ComputeAll(pool, 4, workload.PaperLatency())
	if err != nil {
		t.Fatal(err)
	}
	mkL1 := func() policy.Policy {
		p, err := policy.NewLocalLFD(1)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name     string
		pol      policy.Policy
		skip     bool
		reused   int
		loads    int
		makespan simtime.Time
		skips    int
	}{
		{"LRU", policy.NewLRU(), false, 208, 2285, simtime.FromMs(36030), 0},
		{"Local LFD (1)", mkL1(), false, 492, 2001, simtime.FromMs(36030), 0},
		{"Local LFD (1) + Skip Events", mkL1(), true, 673, 1820, simtime.FromMs(35586), 430},
		{"LFD", policy.NewLFD(), false, 492, 2001, simtime.FromMs(36030), 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := manager.Config{
				RUs: 4, Latency: workload.PaperLatency(), Policy: c.pol, SkipEvents: c.skip,
			}
			if c.skip {
				cfg.Mobility = lookup
			}
			res, err := manager.Run(cfg, dynlist.NewSequence(seq...))
			if err != nil {
				t.Fatal(err)
			}
			if res.Executed != 2493 {
				t.Errorf("executed = %d, want 2493", res.Executed)
			}
			if res.Reused != c.reused {
				t.Errorf("reused = %d, want %d", res.Reused, c.reused)
			}
			if res.Loads != c.loads {
				t.Errorf("loads = %d, want %d", res.Loads, c.loads)
			}
			if res.Makespan != c.makespan {
				t.Errorf("makespan = %v, want %v", res.Makespan, c.makespan)
			}
			if res.Skips != c.skips {
				t.Errorf("skips = %d, want %d", res.Skips, c.skips)
			}
		})
	}
}
