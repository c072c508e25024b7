package main

import (
	"bytes"
	"io"
	"math"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/policy"
	"repro/internal/workload"
)

func smallFig9(seed int64) experiments.Options {
	return experiments.Options{Seed: seed, Apps: 80, RUs: []int{4, 5, 6}, Latency: workload.PaperLatency(), Parallel: 2}
}

func render(t *testing.T, tr *tracer, header string, tables []gridTable) ([]byte, *outcome) {
	t.Helper()
	w := newReportWriter(time.Now(), tr)
	o, err := gridRun(tr, header, tables)(w)
	if err != nil {
		t.Fatal(err)
	}
	return w.buf.Bytes(), o
}

// TestFig9MatchesRtrrepro checks that the benchmark's Fig. 9 rendering,
// untraced and traced, is byte-identical to the report rtrrepro prints
// for the same experiments.
func TestFig9MatchesRtrrepro(t *testing.T) {
	for _, seed := range []int64{1, 2011} {
		opt := smallFig9(seed)
		selected, err := campaign.SelectExperiments([]string{"fig9a", "fig9b", "fig9c"})
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := campaign.RenderSuite(opt, selected, &want); err != nil {
			t.Fatal(err)
		}
		header, tables, err := fig9Tables(opt)
		if err != nil {
			t.Fatal(err)
		}
		plain, o := render(t, nil, header, tables)
		if !bytes.Equal(plain, want.Bytes()) {
			t.Fatalf("seed %d: benchmark report differs from rtrrepro's:\n%s\n--- want\n%s", seed, plain, want.Bytes())
		}
		if o.failed != 0 || o.scenarios != 3*(5+4+5) {
			t.Fatalf("seed %d: %d of %d scenarios failed their invariants", seed, o.failed, o.scenarios)
		}
		header, tables, _ = fig9Tables(opt)
		tr := newTracer(NewRecorder(io.Discard), "test")
		traced, _ := render(t, tr, header, tables)
		if !bytes.Equal(traced, plain) {
			t.Fatalf("seed %d: traced report differs from the untraced one", seed)
		}
		if len(tr.policies) != o.live {
			t.Fatalf("seed %d: %d decorated policies for %d live runs", seed, len(tr.policies), o.live)
		}
	}
}

type fakePolicy struct{ policy.Policy }

type resetOnly struct {
	fakePolicy
	resets *int
}

func (p resetOnly) Reset() { *p.resets++ }

type forkOnly struct{ fakePolicy }

func (p forkOnly) Fork() policy.Policy { return p }

// TestTracedPolicyForwardsInterfaces checks that the policy decorator has
// exactly the optional interfaces of the policy it wraps, and forwards
// them.
func TestTracedPolicyForwardsInterfaces(t *testing.T) {
	lfd, err := policy.NewLocalLFD(3)
	if err != nil {
		t.Fatal(err)
	}
	resets := 0
	cases := []struct {
		name string
		p    policy.Policy
	}{
		{"lru", policy.NewLRU()},
		{"locallfd", lfd},
		{"random", policy.NewRandom(7)},
		{"reset-only", resetOnly{fakePolicy{policy.NewLRU()}, &resets}},
		{"fork-only", forkOnly{fakePolicy{policy.NewFIFO()}}},
	}
	tr := newTracer(NewRecorder(io.Discard), "test")
	for _, c := range cases {
		d := tr.wrapPolicy(c.p)
		if d.Name() != c.p.Name() || d.Window() != c.p.Window() {
			t.Errorf("%s: decorator reports %q window %d, want %q window %d", c.name, d.Name(), d.Window(), c.p.Name(), c.p.Window())
		}
		_, innerR := c.p.(policy.Resetter)
		_, outerR := d.(policy.Resetter)
		_, innerF := c.p.(policy.Forker)
		_, outerF := d.(policy.Forker)
		if innerR != outerR || innerF != outerF {
			t.Errorf("%s: decorator Resetter=%v Forker=%v, wrapped Resetter=%v Forker=%v", c.name, outerR, outerF, innerR, innerF)
		}
		if outerF {
			if _, ok := policy.Fork(d).(policy.Forker); !ok {
				t.Errorf("%s: fork of the decorator lost its decoration", c.name)
			}
		}
	}
	policy.Reset(tr.wrapPolicy(cases[3].p))
	if resets != 1 {
		t.Fatalf("Reset reached the wrapped policy %d times, want 1", resets)
	}
}

func TestPaperGap(t *testing.T) {
	report := []byte(`
=== Fig. x ===
RUs \ policy  LRU     Local LFD (4) + Skip Events  LFD
------------  ------  ---------------------------  ------
4             10.00   20.00                        30.00
Avg.          11.00   21.50                        29.00

paper-reported averages for comparison:
  Local LFD (4) + Skip Events  20.00
  LFD                          30.00
  (the paper additionally reports 19.19 % for LRU at R=4)
`)
	gap, n, err := paperGap(report)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || math.Abs(gap-1.25) > 1e-9 {
		t.Fatalf("gap %v over %d series, want 1.25 over 2", gap, n)
	}
}

func TestReportWriterFirstRow(t *testing.T) {
	w := newReportWriter(time.Now(), nil)
	io.WriteString(w, "header\n\n=== t ===\nRUs  a\n---  -")
	if w.firstRow >= 0 {
		t.Fatal("first row seen before any row was written")
	}
	io.WriteString(w, "\n4    1.00\n")
	if w.firstRow < 0 {
		t.Fatal("first row not seen")
	}
}

// TestSynthPool pins the synthetic workload's shape: a fixed library of
// 128 applications of 16–48 tasks with disjoint task IDs, and a sequence
// of 1000 arrivals drawn from it.
func TestSynthPool(t *testing.T) {
	pool, seq, err := synthPool(7)
	if err != nil {
		t.Fatal(err)
	}
	again, _, _ := synthPool(8)
	configs := workload.UniverseSize(pool)
	t.Logf("%d applications, %d configurations, %d arrivals", len(pool), configs, len(seq))
	if len(pool) != synthTemplates || configs < 3500 || configs > 4500 || len(seq) != synthApps {
		t.Fatalf("%d applications, %d configurations, %d arrivals", len(pool), configs, len(seq))
	}
	for i, g := range pool {
		if n := g.NumTasks(); n < synthMinTasks || n > synthMaxTasks {
			t.Errorf("application %d has %d tasks", i, n)
		}
		if g.Fingerprint() != again[i].Fingerprint() {
			t.Errorf("application %d depends on the seed", i)
		}
	}
}
