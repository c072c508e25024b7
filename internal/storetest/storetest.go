// Package storetest is the result-store conformance harness: a
// registry of every persistence backend (fs, mem, sqlite, http —
// the last over a live in-process control plane) and one
// shared suite of the behavioral properties the sweeps and CI gates
// pin — serve/miss accounting, schema invalidation in place, GC's
// keep-predicate, reopen persistence. A new backend is correct when it
// passes Conformance, not when it resembles the FS code;
// backend-parameterized tests
// elsewhere (internal/sweep's warm-run byte-identity, the experiments
// cross-backend merge) iterate Backends the same way.
//
// The package also holds the store-state manipulations that production
// code must never perform but several test sites need identically
// (StaleifySchema). It must not import internal/sweep: sweep's own
// tests iterate Backends, and the cycle would be immediate.
package storetest

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/backendurl"
	"repro/internal/faultstore"
	"repro/internal/resultstore"
	"repro/internal/serve"
	"repro/internal/serve/wire"
	"repro/internal/simtime"
)

// EnvFilter is the environment variable the CI backend matrix sets to
// restrict the registry: a comma list of backend names ("fs", "mem",
// "sqlite", "fault", "http"). Empty or unset runs all of them.
const EnvFilter = "RTR_BACKEND"

// Backend is one registered store backend under test.
type Backend struct {
	// Name is the registry (and CI matrix) name: "fs", "mem",
	// "sqlite", "fault", "http".
	Name string
	// Open returns a fresh, empty store plus a reopen function that
	// opens a second handle over the same data with fresh counters —
	// what re-running a CLI against the same -store locator does.
	Open func(tb testing.TB) (s *resultstore.Store, reopen func(tb testing.TB) *resultstore.Store)
}

func registry() []Backend {
	return []Backend{
		{
			Name: "fs",
			Open: func(tb testing.TB) (*resultstore.Store, func(tb testing.TB) *resultstore.Store) {
				dir := tb.TempDir()
				s, err := resultstore.Open(dir)
				if err != nil {
					tb.Fatal(err)
				}
				return s, func(tb testing.TB) *resultstore.Store {
					s, err := resultstore.Open(dir)
					if err != nil {
						tb.Fatal(err)
					}
					return s
				}
			},
		},
		{
			Name: "mem",
			Open: func(tb testing.TB) (*resultstore.Store, func(tb testing.TB) *resultstore.Store) {
				s := resultstore.OpenMem()
				// The map dies with the process; "reopen" is a second
				// handle over the same backend — shared data, fresh
				// counters — exactly FromBackend's contract.
				return s, func(testing.TB) *resultstore.Store {
					return resultstore.FromBackend(s.Backend())
				}
			},
		},
		{
			Name: "sqlite",
			Open: func(tb testing.TB) (*resultstore.Store, func(tb testing.TB) *resultstore.Store) {
				path := filepath.Join(tb.TempDir(), "campaign.db")
				open := func(tb testing.TB) *resultstore.Store {
					s, err := resultstore.OpenSQLite(path)
					if err != nil {
						tb.Fatal(err)
					}
					return s
				}
				return open(tb), open
			},
		},
		{
			// fault runs the suite through the fault-injection decorator
			// (internal/faultstore) over mem, with seeded latency on every
			// backend call — pinning that each store property holds under
			// timing jitter. Latency only: the suite asserts exact counter
			// values, so destructive modes (scripted errors, torn writes)
			// live in the dedicated recovery tests instead.
			Name: "fault",
			Open: func(tb testing.TB) (*resultstore.Store, func(tb testing.TB) *resultstore.Store) {
				plan := faultstore.NewPlan(1).WithLatency(500 * time.Microsecond)
				b := faultstore.WrapStore(resultstore.NewMem(), plan)
				return resultstore.FromBackend(b), func(testing.TB) *resultstore.Store {
					return resultstore.FromBackend(b)
				}
			},
		},
		{
			// http runs the suite against a live control plane: the same
			// mem backend the "mem" entry tests, reached through the wire
			// client — pinning that the HTTP hop (auth, retries, NDJSON
			// enumeration) preserves every store property.
			Name: "http",
			Open: func(tb testing.TB) (*resultstore.Store, func(tb testing.TB) *resultstore.Store) {
				base, opts := HTTPCampaign(tb)
				open := func(tb testing.TB) *resultstore.Store {
					loc, err := backendurl.Parse("-store", base)
					if err != nil {
						tb.Fatal(err)
					}
					b, err := backendurl.NewHTTPStore(loc, opts)
					if err != nil {
						tb.Fatal(err)
					}
					return resultstore.FromBackend(b)
				}
				return open(tb), open
			},
		},
	}
}

// HTTPCampaign starts an in-process control plane (mem state root,
// bearer auth on) hosting one campaign, and returns the campaign's
// base URL plus the wire-client options that authenticate against it.
// Both conformance registries use it to run their suites over a live
// server; the server dies with the test.
func HTTPCampaign(tb testing.TB) (string, backendurl.HTTPOptions) {
	tb.Helper()
	const token = "conformance-token"
	srv, err := serve.New(serve.Config{State: "mem:", Token: token})
	if err != nil {
		tb.Fatal(err)
	}
	c, err := srv.Create(wire.Spec{V: wire.APIVersion, Kind: "suite"})
	if err != nil {
		tb.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	tb.Cleanup(ts.Close)
	return ts.URL + "/c/" + c.ID(), backendurl.HTTPOptions{Token: token}
}

// Backends returns the registered backends, filtered by the EnvFilter
// environment variable when set. An unknown name in the filter is a
// test fatal — a typo in the CI matrix must fail loudly, not silently
// run nothing.
func Backends(tb testing.TB) []Backend {
	all := registry()
	filter := strings.TrimSpace(os.Getenv(EnvFilter))
	if filter == "" {
		return all
	}
	byName := make(map[string]Backend, len(all))
	for _, b := range all {
		byName[b.Name] = b
	}
	var out []Backend
	for _, name := range strings.Split(filter, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		b, ok := byName[name]
		if !ok {
			tb.Fatalf("%s=%q: unknown backend %q (have fs, mem, sqlite, fault, http)", EnvFilter, filter, name)
		}
		out = append(out, b)
	}
	if len(out) == 0 {
		tb.Fatalf("%s=%q selects no backend", EnvFilter, filter)
	}
	return out
}

// StaleifySchema rewrites every entry in the store with an unservable
// schema version, keeping everything else (keys, recorded timings)
// intact — the state a store is in right after a
// resultstore.SchemaVersion bump, where every scenario must
// re-simulate and overwrite its entry in place. Tests of that path
// share this one recipe so it cannot drift between them. It goes
// through the store's raw Backend, so it works on any of them.
func StaleifySchema(tb testing.TB, s *resultstore.Store) {
	tb.Helper()
	b := s.Backend()
	type pair struct {
		key  string
		data []byte
	}
	var entries []pair
	if _, err := b.Visit(func(key string, data []byte) error {
		entries = append(entries, pair{key, append([]byte(nil), data...)})
		return nil
	}); err != nil {
		tb.Fatal(err)
	}
	for _, e := range entries {
		var raw map[string]any
		if err := json.Unmarshal(e.data, &raw); err != nil {
			tb.Fatalf("staleify %s: %v", e.key, err)
		}
		raw["schema"] = resultstore.SchemaVersion + 1000
		out, err := json.Marshal(raw)
		if err != nil {
			tb.Fatal(err)
		}
		if err := b.Store(e.key, out); err != nil {
			tb.Fatal(err)
		}
	}
}

// Key derives a canonical-form 64-hex-char store key from a seed, for
// tests that need distinct well-formed keys without hashing anything.
func Key(seed byte) string {
	b := make([]byte, 0, 64)
	for i := 0; i < 64; i++ {
		b = append(b, "0123456789abcdef"[(int(seed)+i)%16])
	}
	return string(b)
}

// sampleEntry is a minimal servable entry (Put stamps schema and key).
func sampleEntry(scenario string) *resultstore.Entry {
	return &resultstore.Entry{
		Scenario: scenario,
		Run: &resultstore.Run{
			Makespan: simtime.FromMs(70), Executed: 15, Reused: 5, Loads: 10,
			Evictions: 6, Graphs: 3, Events: 42,
		},
	}
}

// Conformance runs every pinned store property against one backend.
// These are the semantics internal/resultstore.Store promises
// identically over any Backend; the suite is what licenses the CLIs to
// treat -store fs:/mem:/sqlite: as interchangeable.
func Conformance(t *testing.T, b Backend) {
	t.Run("RoundTripAndStats", func(t *testing.T) {
		s, _ := b.Open(t)
		key := Key(1)
		if _, ok := s.Get(key); ok {
			t.Fatal("hit on empty store")
		}
		want := sampleEntry("round-trip")
		if err := s.Put(key, want); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Get(key)
		if !ok {
			t.Fatal("miss after Put")
		}
		if got.Schema != resultstore.SchemaVersion || got.Key != key {
			t.Errorf("entry stamped schema=%d key=%q", got.Schema, got.Key)
		}
		if !reflect.DeepEqual(got.Run, want.Run) || got.Scenario != want.Scenario {
			t.Errorf("round trip mutated the entry:\ngot  %+v\nwant %+v", got, want)
		}
		if hits, misses, puts := s.Stats(); hits != 1 || misses != 1 || puts != 1 {
			t.Errorf("stats = %d/%d/%d, want 1/1/1", hits, misses, puts)
		}
		line := s.SummaryLine()
		if !strings.Contains(line, "1 hits, 1 misses, 1 entries written") ||
			!strings.Contains(line, s.Dir()) {
			t.Errorf("summary line %q", line)
		}
	})

	t.Run("ProbeCountsHitsOnly", func(t *testing.T) {
		s, _ := b.Open(t)
		key := Key(2)
		if _, ok := s.Probe(key); ok {
			t.Fatal("Probe served from an empty store")
		}
		if err := s.Put(key, sampleEntry("probe")); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Probe(key); !ok {
			t.Fatal("Probe missed a fresh entry")
		}
		// The failed probe counted nothing; the serve is one hit.
		if hits, misses, _ := s.Stats(); hits != 1 || misses != 0 {
			t.Errorf("stats hits=%d misses=%d, want 1/0 — Probe must count hits only", hits, misses)
		}
	})

	t.Run("SchemaInvalidation", func(t *testing.T) {
		s, _ := b.Open(t)
		key := Key(3)
		e := sampleEntry("stale")
		e.ElapsedNS = 123456789
		if err := s.Put(key, e); err != nil {
			t.Fatal(err)
		}
		StaleifySchema(t, s)
		if _, ok := s.Get(key); ok {
			t.Error("stale-schema entry served as an outcome")
		}
		if _, ok := s.Probe(key); ok {
			t.Error("stale-schema entry served by Probe")
		}
		// The bump invalidates in place: the object stays filed under
		// the same key, timing intact, so re-simulation overwrites it
		// rather than orphaning it.
		data, ok := s.Backend().Load(key)
		if !ok {
			t.Fatal("stale-schema entry moved away from its key")
		}
		var raw resultstore.Entry
		if err := json.Unmarshal(data, &raw); err != nil {
			t.Fatal(err)
		}
		if raw.Key != key || raw.Schema == resultstore.SchemaVersion || raw.ElapsedNS != 123456789 {
			t.Errorf("stale-schema object key=%q schema=%d elapsed=%d; want the same key, a stale schema and the recorded timing",
				raw.Key, raw.Schema, raw.ElapsedNS)
		}
		// GC reclaims it, leaving no object for the key.
		st, err := s.GC()
		if err != nil {
			t.Fatal(err)
		}
		if st.Kept != 0 || st.Removed != 1 {
			t.Errorf("gc kept %d removed %d, want 0/1", st.Kept, st.Removed)
		}
		if _, ok := s.Backend().Load(key); ok {
			t.Error("an object is still filed under the key after GC removed the entry")
		}
	})

	t.Run("WrongKeyUnservable", func(t *testing.T) {
		s, _ := b.Open(t)
		key := Key(4)
		e := sampleEntry("moved")
		e.Schema = resultstore.SchemaVersion
		e.Key = Key(5) // recorded key disagrees with where it is filed
		data, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Backend().Store(key, data); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(key); ok {
			t.Error("entry with mismatched key served")
		}
		if _, ok := s.Probe(key); ok {
			t.Error("entry with mismatched key served by Probe")
		}
		if st, err := s.GC(); err != nil || st.Removed != 1 || st.Kept != 0 {
			t.Errorf("gc = %+v, %v; want the mismatched entry removed", st, err)
		}
		if _, ok := s.Backend().Load(key); ok {
			t.Error("an object is still filed under the key after GC removed the mismatched entry")
		}
	})

	t.Run("UndecodableIsMissAndGCed", func(t *testing.T) {
		s, _ := b.Open(t)
		good, bad := Key(6), Key(7)
		if err := s.Put(good, sampleEntry("good")); err != nil {
			t.Fatal(err)
		}
		if err := s.Backend().Store(bad, []byte("{truncated")); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(bad); ok {
			t.Error("corrupt entry served")
		}
		st, err := s.GC()
		if err != nil {
			t.Fatal(err)
		}
		if st.Kept != 1 || st.Removed != 1 {
			t.Errorf("gc kept %d removed %d, want 1/1", st.Kept, st.Removed)
		}
		if _, ok := s.Get(good); !ok {
			t.Error("gc removed a valid entry")
		}
	})

	t.Run("MalformedKeysRejected", func(t *testing.T) {
		s, _ := b.Open(t)
		traversal := "__/" + Key(1)[3:] // right length, path separator inside
		for _, bad := range []string{"", "ab", "../../../../etc/passwd", traversal, Key(1) + "00"} {
			if err := s.Put(bad, sampleEntry("bad")); err == nil {
				t.Errorf("Put accepted malformed key %q", bad)
			}
			if _, ok := s.Get(bad); ok {
				t.Errorf("Get hit on malformed key %q", bad)
			}
		}
	})

	t.Run("OverwriteLastWins", func(t *testing.T) {
		s, _ := b.Open(t)
		key := Key(8)
		if err := s.Put(key, sampleEntry("first")); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(key, sampleEntry("second")); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Get(key)
		if !ok || got.Scenario != "second" {
			t.Fatalf("after overwrite got %+v, want the second entry", got)
		}
		// One key, one entry: the overwrite must not leave a duplicate.
		if st, err := s.GC(); err != nil || st.Kept != 1 || st.Removed != 0 {
			t.Errorf("gc after overwrite = %+v, %v; want exactly one kept entry", st, err)
		}
	})

	t.Run("ReopenSharesDataNotStats", func(t *testing.T) {
		s, reopen := b.Open(t)
		key := Key(9)
		e := sampleEntry("reopen")
		e.ElapsedNS = 55
		if err := s.Put(key, e); err != nil {
			t.Fatal(err)
		}
		s2 := reopen(t)
		got, ok := s2.Get(key)
		if !ok {
			t.Fatal("reopened handle missed the stored entry")
		}
		if got.ElapsedNS != 55 {
			t.Errorf("reopened entry elapsed = %d, want 55", got.ElapsedNS)
		}
		if hits, misses, puts := s2.Stats(); hits != 1 || misses != 0 || puts != 0 {
			t.Errorf("reopened handle stats = %d/%d/%d, want fresh counters 1/0/0", hits, misses, puts)
		}
	})

	t.Run("ArtifactRoundTrip", func(t *testing.T) {
		s, _ := b.Open(t)
		key := Key(10)
		if _, ok := s.GetArtifact(key, "mobility-table", 1); ok {
			t.Fatal("artifact hit on empty store")
		}
		want := &resultstore.Artifact{
			Kind:        "mobility-table",
			KindVersion: 1,
			Label:       "conformance",
			Payload:     json.RawMessage(`{"graph":"jpeg","rus":4}`),
		}
		if err := s.PutArtifact(key, want); err != nil {
			t.Fatal(err)
		}
		got, ok := s.GetArtifact(key, "mobility-table", 1)
		if !ok {
			t.Fatal("artifact miss after PutArtifact")
		}
		if got.Schema != resultstore.ArtifactSchemaVersion || got.Key != key {
			t.Errorf("artifact stamped schema=%d key=%q", got.Schema, got.Key)
		}
		if got.Kind != want.Kind || got.KindVersion != want.KindVersion ||
			got.Label != want.Label || string(got.Payload) != string(want.Payload) {
			t.Errorf("artifact round trip mutated the entry:\ngot  %+v\nwant %+v", got, want)
		}
		// Wrong kind or version is a miss, never a cross-serve.
		if _, ok := s.GetArtifact(key, "other-kind", 1); ok {
			t.Error("artifact served under the wrong kind")
		}
		if _, ok := s.GetArtifact(key, "mobility-table", 2); ok {
			t.Error("artifact served under the wrong kind version")
		}
		if hits, misses, puts := s.ArtifactStats(); hits != 1 || misses != 3 || puts != 1 {
			t.Errorf("artifact stats = %d/%d/%d, want 1/3/1", hits, misses, puts)
		}
		// Artifact traffic stays off the result counters and vice versa.
		if hits, misses, puts := s.Stats(); hits+misses+puts != 0 {
			t.Errorf("artifact traffic leaked into result stats %d/%d/%d", hits, misses, puts)
		}
		if !strings.Contains(s.SummaryLine(), "artifacts: 1 hits, 3 misses, 1 written") {
			t.Errorf("summary line %q lacks the artifact digest", s.SummaryLine())
		}
	})

	t.Run("ArtifactResultMutualUnservability", func(t *testing.T) {
		s, _ := b.Open(t)
		rKey, aKey := Key(11), Key(12)
		if err := s.Put(rKey, sampleEntry("result")); err != nil {
			t.Fatal(err)
		}
		if err := s.PutArtifact(aKey, &resultstore.Artifact{
			Kind: "k", KindVersion: 1, Payload: json.RawMessage(`{}`),
		}); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(aKey); ok {
			t.Error("artifact served as a result")
		}
		if _, ok := s.GetArtifact(rKey, "k", 1); ok {
			t.Error("result served as an artifact")
		}
		if _, ok := s.Probe(aKey); ok {
			t.Error("artifact served as a result by Probe")
		}
	})

	t.Run("ArtifactSurvivesResultGC", func(t *testing.T) {
		s, _ := b.Open(t)
		rKey, aKey := Key(13), Key(14)
		if err := s.Put(rKey, sampleEntry("doomed")); err != nil {
			t.Fatal(err)
		}
		if err := s.PutArtifact(aKey, &resultstore.Artifact{
			Kind: "k", KindVersion: 1, Payload: json.RawMessage(`{}`),
		}); err != nil {
			t.Fatal(err)
		}
		// A result-schema bump staleifies the result but not the
		// artifact: artifact servability keys off "artifact_schema",
		// which StaleifySchema leaves alone.
		StaleifySchema(t, s)
		st, err := s.GC()
		if err != nil {
			t.Fatal(err)
		}
		if st.Kept != 1 || st.Removed != 1 {
			t.Errorf("gc kept %d removed %d, want the artifact kept and the stale result removed", st.Kept, st.Removed)
		}
		if _, ok := s.GetArtifact(aKey, "k", 1); !ok {
			t.Error("artifact lost across a result-schema GC")
		}
		// A mangled artifact (empty kind) is unservable junk and goes.
		if err := s.Backend().Store(aKey, []byte(`{"artifact_schema":1,"key":"`+aKey+`","kind":"","payload":{}}`)); err != nil {
			t.Fatal(err)
		}
		if st, err := s.GC(); err != nil || st.Removed != 1 {
			t.Errorf("gc = %+v, %v; want the mangled artifact removed", st, err)
		}
	})

	t.Run("ArtifactReopenPersists", func(t *testing.T) {
		s, reopen := b.Open(t)
		key := Key(15)
		if err := s.PutArtifact(key, &resultstore.Artifact{
			Kind: "k", KindVersion: 3, Payload: json.RawMessage(`{"v":1}`),
		}); err != nil {
			t.Fatal(err)
		}
		s2 := reopen(t)
		got, ok := s2.GetArtifact(key, "k", 3)
		if !ok || string(got.Payload) != `{"v":1}` {
			t.Fatalf("reopened handle artifact = %+v, %v", got, ok)
		}
		if hits, misses, puts := s2.ArtifactStats(); hits != 1 || misses != 0 || puts != 0 {
			t.Errorf("reopened artifact stats = %d/%d/%d, want fresh counters 1/0/0", hits, misses, puts)
		}
	})

	t.Run("ConcurrentPutGet", func(t *testing.T) {
		s, _ := b.Open(t)
		const workers = 8
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				key := Key(byte(100 + w))
				if err := s.Put(key, sampleEntry(fmt.Sprintf("worker %d", w))); err != nil {
					errs <- err
					return
				}
				if _, ok := s.Get(key); !ok {
					errs <- fmt.Errorf("worker %d missed its own write", w)
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		if _, _, puts := s.Stats(); puts != workers {
			t.Errorf("puts = %d, want %d", puts, workers)
		}
	})
}
