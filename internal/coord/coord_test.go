package coord

import (
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is an adjustable test clock shared by every coordinator
// handle of a test, so lease expiry is driven deterministically instead
// of by sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 7, 30, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// sortedAttempts lists every claimed generation of a shard in ascending
// order, from the claim markers alone.
func (c *Coordinator) sortedAttempts(shard int) ([]int, error) {
	names, err := c.b.List(shardKey(shard))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var gens []int
	for _, name := range names {
		if !strings.HasPrefix(name, "gen-") || !strings.HasSuffix(name, ".claim") {
			continue
		}
		if g, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "gen-"), ".claim")); err == nil {
			gens = append(gens, g)
		}
	}
	sort.Ints(gens)
	return gens, nil
}

// fsOn builds a filesystem backend over dir on the given test clock —
// a fresh handle per worker, the way separate processes would open the
// same state directory.
func fsOn(dir string, clk *fakeClock) *FSBackend {
	b := NewFS(dir)
	b.Clock = clk.Now
	return b
}

func openTest(t *testing.T, dir string, shards int, owner string, clk *fakeClock) *Coordinator {
	t.Helper()
	c, err := Open(Config{
		Backend: fsOn(dir, clk),
		Shards:  shards, Owner: owner,
		LeaseTTL: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClaimLifecycle(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	c := openTest(t, dir, 3, "w1", clk)

	var leases []*Lease
	for i := 0; i < 3; i++ {
		l, err := c.Claim()
		if err != nil {
			t.Fatal(err)
		}
		if l == nil {
			t.Fatalf("claim %d returned nothing with open shards", i)
		}
		if l.Shard != i || l.Gen != 1 {
			t.Fatalf("claim %d = shard %d gen %d, want shard %d gen 1", i, l.Shard, l.Gen, i)
		}
		leases = append(leases, l)
	}
	if l, err := c.Claim(); err != nil || l != nil {
		t.Fatalf("claim on a fully leased pool = %v, %v; want nil, nil", l, err)
	}

	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if done, leased, pending := st.Counts(); done != 0 || leased != 3 || pending != 0 {
		t.Fatalf("status %d/%d/%d, want 0 done, 3 leased, 0 pending", done, leased, pending)
	}

	for _, l := range leases {
		if err := l.Done(); err != nil {
			t.Fatal(err)
		}
	}
	st, err = c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !st.AllDone() {
		t.Fatalf("not all done after completing every shard: %+v", st.Shards)
	}
	if st.MaxAttempts() != 1 {
		t.Fatalf("max attempts %d on an uncontested run, want 1", st.MaxAttempts())
	}
	if l, err := c.Claim(); err != nil || l != nil {
		t.Fatalf("claim on a finished pool = %v, %v; want nil, nil", l, err)
	}
}

func TestExpiredLeaseReclaimed(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	dead := openTest(t, dir, 2, "dead", clk)
	alive := openTest(t, dir, 0, "alive", clk)

	l, err := dead.Claim()
	if err != nil || l == nil || l.Shard != 0 {
		t.Fatalf("dead worker claim = %v, %v", l, err)
	}
	// While the heartbeat is fresh the live worker gets the other shard,
	// then nothing.
	l2, err := alive.Claim()
	if err != nil || l2 == nil || l2.Shard != 1 {
		t.Fatalf("alive claim = %v, %v, want shard 1", l2, err)
	}
	if l3, _ := alive.Claim(); l3 != nil {
		t.Fatalf("claimed %d while both shards are live", l3.Shard)
	}

	// The dead worker stops heartbeating; past the TTL its shard is
	// re-leased under the next generation.
	clk.Advance(11 * time.Second)
	if err := l2.Heartbeat(); err != nil {
		t.Fatalf("heartbeat of the live lease: %v", err)
	}
	stolen, err := alive.Claim()
	if err != nil || stolen == nil {
		t.Fatalf("reclaim = %v, %v", stolen, err)
	}
	if stolen.Shard != 0 || stolen.Gen != 2 {
		t.Fatalf("reclaimed shard %d gen %d, want shard 0 gen 2", stolen.Shard, stolen.Gen)
	}

	// The original holder's heartbeat now reports the loss.
	if err := l.Heartbeat(); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale holder heartbeat = %v, want ErrLeaseLost", err)
	}

	if err := stolen.Done(); err != nil {
		t.Fatal(err)
	}
	st, err := alive.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards[0].State != StateDone || st.Shards[0].Attempts != 2 || st.Shards[0].Owner != "alive" {
		t.Fatalf("recovered shard status %+v, want done/attempts 2/alive", st.Shards[0])
	}
}

func TestHeartbeatKeepsLeaseAlive(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	a := openTest(t, dir, 1, "a", clk)
	b := openTest(t, dir, 0, "b", clk)

	l, err := a.Claim()
	if err != nil || l == nil {
		t.Fatal(l, err)
	}
	// Heartbeats every 6 s against a 10 s TTL: the shard must never be
	// claimable from the other worker.
	for i := 0; i < 5; i++ {
		clk.Advance(6 * time.Second)
		if err := l.Heartbeat(); err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
		if thief, _ := b.Claim(); thief != nil {
			t.Fatalf("shard stolen at heartbeat %d", i)
		}
	}
}

// TestDeadBeforeLeaseWrite covers the crash window between winning the
// claim marker and writing the lease file: the claim timestamp starts
// the same TTL clock, so the shard is not stuck forever.
func TestDeadBeforeLeaseWrite(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	c := openTest(t, dir, 1, "w", clk)

	// Simulate the half-dead claimer by writing the claim marker alone.
	if err := createJSON(c.b, claimKey(0, 1), &claimFile{Owner: "ghost", ClaimedNS: clk.Now().UnixNano()}); err != nil {
		t.Fatal(err)
	}
	if l, _ := c.Claim(); l != nil {
		t.Fatalf("claimed shard %d while the ghost's claim is fresh", l.Shard)
	}
	clk.Advance(11 * time.Second)
	l, err := c.Claim()
	if err != nil || l == nil || l.Gen != 2 {
		t.Fatalf("post-expiry claim = %+v, %v, want gen 2", l, err)
	}
}

func TestOpenValidation(t *testing.T) {
	clk := newFakeClock()
	if _, err := Open(Config{Dir: "", Shards: 1}); err == nil {
		t.Error("empty dir accepted")
	}
	dir := t.TempDir()
	if _, err := Open(Config{Backend: fsOn(dir, clk)}); err == nil || !strings.Contains(err.Error(), "not initialised") {
		t.Errorf("adopting an uninitialised dir = %v, want a pointed error", err)
	}
	if _, err := Open(Config{Backend: fsOn(dir, clk), Shards: 4, Fingerprint: "sweep-a"}); err != nil {
		t.Fatal(err)
	}
	// Adoption with 0 shards, and agreement with the recorded count.
	c, err := Open(Config{Backend: fsOn(dir, clk)})
	if err != nil || c.Shards() != 4 {
		t.Fatalf("adopt = %v shards %d, want 4", err, c.Shards())
	}
	if _, err := Open(Config{Backend: fsOn(dir, clk), Shards: 6}); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Errorf("shard-count mismatch = %v, want refusal", err)
	}
	if _, err := Open(Config{Backend: fsOn(dir, clk), Fingerprint: "sweep-b"}); err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Errorf("fingerprint mismatch = %v, want refusal", err)
	}
	if _, err := Open(Config{Backend: fsOn(dir, clk), Fingerprint: "sweep-a"}); err != nil {
		t.Errorf("matching fingerprint refused: %v", err)
	}
}

// TestLeaseTTLIsPoolState: the TTL is persisted like the shard count —
// adopted when omitted, refused on mismatch — because expiry decisions
// made with different TTLs on different hosts would steal live leases.
func TestLeaseTTLIsPoolState(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	first, err := Open(Config{Backend: fsOn(dir, clk), Shards: 2, Owner: "a", LeaseTTL: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if first.LeaseTTL() != 5*time.Second {
		t.Fatalf("initialiser TTL %v, want 5s", first.LeaseTTL())
	}
	adopted, err := Open(Config{Backend: fsOn(dir, clk), Owner: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if adopted.LeaseTTL() != 5*time.Second {
		t.Fatalf("adopted TTL %v, want the pool's 5s", adopted.LeaseTTL())
	}
	if _, err := Open(Config{Backend: fsOn(dir, clk), Owner: "c", LeaseTTL: 7 * time.Second}); err == nil || !strings.Contains(err.Error(), "lease TTL") {
		t.Errorf("TTL mismatch = %v, want refusal", err)
	}
	if _, err := Open(Config{Backend: fsOn(dir, clk), Owner: "d", LeaseTTL: 5 * time.Second}); err != nil {
		t.Errorf("matching TTL refused: %v", err)
	}
}

// TestDoneRepairsCorruptRecord: an undecodable done.json (disk damage —
// our own writes are atomic) must not livelock the pool; the next
// completion repairs it in place.
func TestDoneRepairsCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	c := openTest(t, dir, 1, "w", clk)
	l, err := c.Claim()
	if err != nil || l == nil {
		t.Fatal(l, err)
	}
	// The torn/garbage record a crashed disk could leave behind.
	if err := c.b.Put(doneKey(0), nil); err != nil {
		t.Fatal(err)
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.AllDone() {
		t.Fatal("corrupt done record counted as completion")
	}
	if err := l.Done(); err != nil {
		t.Fatal(err)
	}
	st, err = c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !st.AllDone() {
		t.Fatalf("Done did not repair the corrupt record: %+v", st.Shards)
	}
}

// TestClaimSurvivesFutureTimestamps: a dead worker whose clock ran ahead
// must not block recovery for the skew. Beyond one TTL of future skew
// the timestamp can only be a broken clock and reads as expired at
// once; within one TTL, expiry shifts by the skew (stall ≤ 2×TTL).
func TestClaimSurvivesFutureTimestamps(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	broken := &fakeClock{t: clk.Now().Add(time.Hour)} // 1h ahead, dead
	dead, err := Open(Config{Backend: fsOn(dir, broken), Shards: 2, Owner: "dead", LeaseTTL: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if l, err := dead.Claim(); err != nil || l == nil || l.Shard != 0 {
		t.Fatal(l, err)
	}
	alive := openTest(t, dir, 0, "alive", clk)
	l, err := alive.Claim()
	if err != nil || l == nil || l.Shard != 0 || l.Gen != 2 {
		t.Fatalf("hour-future lease claim = %+v, %v; want immediate gen-2 reclaim of shard 0", l, err)
	}
	if err := l.Done(); err != nil {
		t.Fatal(err) // finish shard 0 so the clock advance below can't expire our own lease
	}

	// Modest skew (3s ahead of a 10s TTL): live until (skew + TTL) on
	// the local clock, never a theft of a possibly-live lease.
	slight := &fakeClock{t: clk.Now().Add(3 * time.Second)}
	dead2, err := Open(Config{Backend: fsOn(dir, slight), Owner: "dead2", LeaseTTL: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if l, err := dead2.Claim(); err != nil || l == nil || l.Shard != 1 {
		t.Fatal(l, err)
	}
	if l, _ := alive.Claim(); l != nil {
		t.Fatalf("slightly-future lease stolen immediately (shard %d)", l.Shard)
	}
	clk.Advance(14 * time.Second) // past skew + TTL
	l2, err := alive.Claim()
	if err != nil || l2 == nil || l2.Shard != 1 || l2.Gen != 2 {
		t.Fatalf("reclaim after skew+TTL = %+v, %v, want shard 1 gen 2", l2, err)
	}
}

// TestClaimContentionProperty is the lease-exclusion property test: K
// goroutines race to drain N shards, and every shard must be claimed
// exactly once per lease generation — no lost shards, no double claims.
// A second round races the same workers over the expired (never
// completed) leases to prove per-generation exclusion, not just
// first-claim exclusion.
func TestClaimContentionProperty(t *testing.T) {
	const (
		shards  = 24
		workers = 8
	)
	dir := t.TempDir()
	clk := newFakeClock()

	race := func(wantGen int) {
		t.Helper()
		var (
			wg      sync.WaitGroup
			mu      sync.Mutex
			claimed = make(map[int][]string) // shard -> claiming owners
			total   atomic.Int64
		)
		for w := 0; w < workers; w++ {
			owner := fmt.Sprintf("w%d", w)
			c := openTest(t, dir, shards, owner, clk)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					l, err := c.Claim()
					if err != nil {
						t.Error(err)
						return
					}
					if l == nil {
						return // nothing claimable for this worker
					}
					if l.Gen != wantGen {
						t.Errorf("shard %d claimed at gen %d, want %d", l.Shard, l.Gen, wantGen)
					}
					mu.Lock()
					claimed[l.Shard] = append(claimed[l.Shard], owner)
					mu.Unlock()
					total.Add(1)
				}
			}()
		}
		wg.Wait()
		if total.Load() != shards {
			t.Fatalf("generation %d: %d claims for %d shards", wantGen, total.Load(), shards)
		}
		for s := 0; s < shards; s++ {
			if n := len(claimed[s]); n != 1 {
				t.Errorf("generation %d: shard %d claimed %d times by %v", wantGen, s, n, claimed[s])
			}
		}
	}

	race(1)
	// No shard was completed; expire every generation-1 lease and prove
	// the second generation is handed out exactly once per shard too.
	clk.Advance(11 * time.Second)
	race(2)

	// The claim markers on disk agree: every shard carries exactly the
	// generations 1 and 2.
	c := openTest(t, dir, shards, "inspector", clk)
	for s := 0; s < shards; s++ {
		gens, err := c.sortedAttempts(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(gens) != 2 || gens[0] != 1 || gens[1] != 2 {
			t.Errorf("shard %d claim markers %v, want [1 2]", s, gens)
		}
	}
}

// TestRunWorkersDrainsPool runs the real worker loop (real clock, short
// TTL): every shard executed exactly once, stats consistent.
func TestRunWorkersDrainsPool(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(Config{Dir: dir, Shards: 9, Owner: "pool", LeaseTTL: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu   sync.Mutex
		runs = make(map[int]int)
	)
	stats, err := c.RunWorkers(3, func(r ShardRun) error {
		if r.Count != 9 {
			t.Errorf("shard run count %d, want 9", r.Count)
		}
		mu.Lock()
		runs[r.Shard]++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 9 || stats.Recovered != 0 {
		t.Fatalf("stats %+v, want 9 completed, 0 recovered", stats)
	}
	for s := 0; s < 9; s++ {
		if runs[s] != 1 {
			t.Errorf("shard %d ran %d times", s, runs[s])
		}
	}
	st, err := c.Status()
	if err != nil || !st.AllDone() {
		t.Fatalf("pool not drained: %v %v", st, err)
	}
}

// TestRunWorkersRecoversDeadLease is the in-process self-healing pin: a
// simulated dead worker claims a shard and never heartbeats; a live pool
// with a short TTL must wait it out, re-claim at generation 2 and finish
// everything.
func TestRunWorkersRecoversDeadLease(t *testing.T) {
	dir := t.TempDir()
	dead, err := Open(Config{Dir: dir, Shards: 4, Owner: "dead", LeaseTTL: 750 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	l, err := dead.Claim()
	if err != nil || l == nil {
		t.Fatal(l, err)
	}
	// The dead worker is never heard from again.

	alive, err := Open(Config{Dir: dir, Shards: 0, Owner: "alive", LeaseTTL: 750 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := alive.RunWorkers(2, func(ShardRun) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 4 {
		t.Fatalf("completed %d shards, want all 4", stats.Completed)
	}
	if stats.Recovered != 1 {
		t.Fatalf("recovered %d shards, want exactly the dead worker's 1", stats.Recovered)
	}
	st, err := alive.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !st.AllDone() {
		t.Fatalf("pool not drained: %+v", st.Shards)
	}
	if st.Shards[l.Shard].Attempts != 2 {
		t.Fatalf("dead worker's shard finished with attempts %d, want 2", st.Shards[l.Shard].Attempts)
	}
	if st.MaxAttempts() != 2 {
		t.Fatalf("max attempts %d, want 2", st.MaxAttempts())
	}
}

// TestRunWorkersReturnsAtDrain: with a minute-long TTL (15 s heartbeat)
// the loop that finds the last shard leased to its sibling must be woken
// by that sibling's completion, not sleep out a heartbeat.
func TestRunWorkersReturnsAtDrain(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(Config{Dir: dir, Shards: 3, Owner: "pool", LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	stats, err := c.RunWorkers(2, func(ShardRun) error {
		time.Sleep(20 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("pool returned after %v, want well under the %v heartbeat", elapsed, c.HeartbeatInterval())
	}
	if stats.Completed != 3 {
		t.Fatalf("completed %d shards, want 3", stats.Completed)
	}
}

// TestRunWorkersWaitsForForeignLease: a live lease held by another
// process keeps the pool running even though its loops wake each other
// on completion; once that lease is done the pool returns within about
// one heartbeat.
func TestRunWorkersWaitsForForeignLease(t *testing.T) {
	dir := t.TempDir()
	const ttl = 2 * time.Second
	other, err := Open(Config{Dir: dir, Shards: 4, Owner: "other", LeaseTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := other.Claim()
	if err != nil || foreign == nil {
		t.Fatal(foreign, err)
	}
	hbStop := make(chan struct{})
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		for {
			select {
			case <-hbStop:
				return
			case <-time.After(100 * time.Millisecond):
				if err := foreign.Heartbeat(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	c, err := Open(Config{Dir: dir, Owner: "pool"})
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int32
	type result struct {
		stats RunStats
		err   error
	}
	res := make(chan result, 1)
	go func() {
		stats, err := c.RunWorkers(2, func(r ShardRun) error {
			if r.Shard == foreign.Shard {
				t.Errorf("pool ran shard %d, which is leased live to another owner", r.Shard)
			}
			time.Sleep(20 * time.Millisecond)
			ran.Add(1)
			return nil
		})
		res <- result{stats, err}
	}()

	// Let the pool finish its own shards and wake its idle loops a few
	// times over; it must still be waiting on the foreign lease.
	deadline := time.Now().Add(ttl)
	for ran.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case r := <-res:
		close(hbStop)
		<-hbDone
		t.Fatalf("pool returned while a foreign lease was live: %+v %v", r.stats, r.err)
	case <-time.After(300 * time.Millisecond):
	}
	close(hbStop)
	<-hbDone
	if err := foreign.Done(); err != nil {
		t.Fatal(err)
	}
	done := time.Now()
	r := <-res
	if r.err != nil {
		t.Fatal(r.err)
	}
	if waited, hb := time.Since(done), c.HeartbeatInterval(); waited > hb+time.Second {
		t.Fatalf("pool returned %v after the foreign shard was done, want about one heartbeat (%v)", waited, hb)
	}
	if r.stats.Completed != 3 || r.stats.Recovered != 0 {
		t.Fatalf("stats %+v, want 3 completed, 0 recovered", r.stats)
	}
}

// TestRunWorkersPropagatesError: the first shard error stops the local
// pool and surfaces with the shard coordinates.
func TestRunWorkersPropagatesError(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(Config{Dir: dir, Shards: 6, Owner: "w", LeaseTTL: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	_, err = c.RunWorkers(2, func(r ShardRun) error {
		if r.Shard == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the shard failure", err)
	}
	if !strings.Contains(err.Error(), "shard 2/6") {
		t.Errorf("error %q does not name the failing shard", err)
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards[2].State == StateDone {
		t.Error("failed shard marked done")
	}
}

func TestStatusRender(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	c := openTest(t, dir, 2, "w1", clk)
	l, err := c.Claim()
	if err != nil || l == nil {
		t.Fatal(l, err)
	}
	if err := l.Done(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Claim(); err != nil {
		t.Fatal(err)
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	out := st.Render(dir)
	for _, frag := range []string{
		"2 shards, 1 done, 1 leased, 0 pending",
		"shard 0: done by w1, attempts 1",
		"shard 1: leased by w1, attempts 1",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("render output missing %q:\n%s", frag, out)
		}
	}
}
