package policy

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/simtime"
	"repro/internal/taskgraph"
)

// genScenario builds a random decision scenario from fuzz inputs.
func genScenario(rng *rand.Rand) (Request, []Candidate) {
	n := 1 + rng.Intn(8)
	cands := make([]Candidate, n)
	for i := range cands {
		cands[i] = Candidate{
			RU:       i,
			Task:     taskgraph.TaskID(1 + rng.Intn(20)),
			LastUse:  simtime.Time(rng.Intn(1000)),
			LoadedAt: simtime.Time(rng.Intn(1000)),
		}
	}
	look := make([]taskgraph.TaskID, rng.Intn(30))
	for i := range look {
		look[i] = taskgraph.TaskID(1 + rng.Intn(20))
	}
	return Request{Task: taskgraph.TaskID(1 + rng.Intn(20)), Lookahead: look}, cands
}

// TestDecisionAlwaysAmongCandidates: every policy returns one of the
// offered candidates with a consistent victim/unit pair.
func TestDecisionAlwaysAmongCandidates(t *testing.T) {
	pols := []Policy{NewLRU(), NewMRU(), NewFIFO(), NewRandom(3), NewLFD()}
	if p, err := NewLocalLFD(2); err == nil {
		pols = append(pols, p)
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		req, cands := genScenario(rng)
		for _, p := range pols {
			d := p.SelectVictim(req, cands)
			found := false
			for _, c := range cands {
				if c.RU == d.RU && c.Task == d.Victim {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("%s invented a victim: %+v not among %+v", p.Name(), d, cands)
			}
		}
	}
}

// TestLFDPicksMaximalDistance: whatever LFD returns, no candidate has a
// strictly greater forward distance (with absence counting as infinite).
func TestLFDPicksMaximalDistance(t *testing.T) {
	p := NewLFD()
	rng := rand.New(rand.NewSource(12))
	dist := func(task taskgraph.TaskID, look []taskgraph.TaskID) int {
		for i, id := range look {
			if id == task {
				return i
			}
		}
		return 1 << 30 // infinite
	}
	for trial := 0; trial < 500; trial++ {
		req, cands := genScenario(rng)
		d := p.SelectVictim(req, cands)
		chosen := dist(d.Victim, req.Lookahead)
		for _, c := range cands {
			if dist(c.Task, req.Lookahead) > chosen {
				t.Fatalf("trial %d: candidate %d farther than chosen %d", trial, c.Task, d.Victim)
			}
		}
		// Decision metadata must agree with a fresh scan.
		wantReusable := chosen < 1<<30
		if d.Reusable != wantReusable {
			t.Fatalf("trial %d: Reusable=%v, want %v", trial, d.Reusable, wantReusable)
		}
	}
}

// TestDistanceReportedCorrectly via testing/quick: the reported distance
// is the index of the victim's first occurrence.
func TestDistanceReportedCorrectly(t *testing.T) {
	p := NewLFD()
	f := func(seedRaw int64) bool {
		rng := rand.New(rand.NewSource(seedRaw))
		req, cands := genScenario(rng)
		d := p.SelectVictim(req, cands)
		if !d.Reusable {
			for _, id := range req.Lookahead {
				if id == d.Victim {
					return false
				}
			}
			return d.Distance == -1
		}
		return d.Distance >= 0 && d.Distance < len(req.Lookahead) &&
			req.Lookahead[d.Distance] == d.Victim
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestDeterministicPolicies: identical inputs give identical outputs
// (Random is deterministic per seeded instance stream, tested elsewhere).
func TestDeterministicPolicies(t *testing.T) {
	pols := []Policy{NewLRU(), NewMRU(), NewFIFO(), NewLFD()}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		req, cands := genScenario(rng)
		for _, p := range pols {
			a := p.SelectVictim(req, cands)
			b := p.SelectVictim(req, cands)
			if a != b {
				t.Fatalf("%s nondeterministic: %+v vs %+v", p.Name(), a, b)
			}
		}
	}
}

// firstUse is a NextUse over a materialised sequence: each task's first
// position, as a next-use index would report it.
type firstUse map[taskgraph.TaskID]int

func indexOf(look []taskgraph.TaskID) firstUse {
	f := make(firstUse)
	for i, id := range look {
		if _, ok := f[id]; !ok {
			f[id] = i
		}
	}
	return f
}

func (f firstUse) Distance(id taskgraph.TaskID) int {
	if d, ok := f[id]; ok {
		return d
	}
	return -1
}

// TestNextMatchesLookahead: every policy decides identically whether it
// scans Request.Lookahead or queries an equivalent Request.Next.
func TestNextMatchesLookahead(t *testing.T) {
	local, err := NewLocalLFD(2)
	if err != nil {
		t.Fatal(err)
	}
	pols := []Policy{NewLRU(), NewMRU(), NewFIFO(), NewLFD(), local}
	rng := rand.New(rand.NewSource(13))
	scanRand, nextRand := NewRandom(5), NewRandom(5)
	for trial := 0; trial < 500; trial++ {
		req, cands := genScenario(rng)
		indexed := Request{Task: req.Task, Now: req.Now, Next: indexOf(req.Lookahead)}
		for _, p := range pols {
			if got, want := p.SelectVictim(indexed, cands), p.SelectVictim(req, cands); got != want {
				t.Fatalf("trial %d, %s: indexed %+v, scanned %+v", trial, p.Name(), got, want)
			}
		}
		if got, want := nextRand.SelectVictim(indexed, cands), scanRand.SelectVictim(req, cands); got != want {
			t.Fatalf("trial %d, Random: indexed %+v, scanned %+v", trial, got, want)
		}
	}
}
