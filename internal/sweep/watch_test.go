package sweep

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/resultstore"
)

// TestStoreWaitServesAsEntriesLand is the executor half of the watch
// merge: a RequireStored sweep with a StoreWait starts against an empty
// store, a producer populates it concurrently, and every scenario is
// served the moment its entry appears — with results identical to a
// plain live run and the consumer's store handle reporting pure hits
// (the Has polling never counts as misses).
func TestStoreWaitServesAsEntriesLand(t *testing.T) {
	spec := fig9Spec(t, 4)
	plain, err := Executor{Workers: 2}.RunSummaries(spec)
	if err != nil {
		t.Fatal(err)
	}

	store := openStore(t)
	var producerDone atomic.Bool
	prodErr := make(chan error, 1)
	go func() {
		// The consumer below is already polling when this starts.
		time.Sleep(50 * time.Millisecond)
		err := (Executor{Workers: 1, Store: store}).Collect(spec, Discard)
		producerDone.Store(true)
		prodErr <- err
	}()

	// A second handle on the same directory keeps the consumer's hit/miss
	// accounting separate from the producer's.
	consumer, err := resultstore.Open(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	ex := Executor{
		Workers: 2, Store: consumer, RequireStored: true,
		StoreWait: &StoreWait{Poll: 5 * time.Millisecond, Done: func() (bool, error) {
			return producerDone.Load(), nil
		}},
	}
	watched, err := ex.RunSummaries(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-prodErr; err != nil {
		t.Fatal(err)
	}

	if len(watched.Rows) != len(plain.Rows) {
		t.Fatalf("watched %d rows, plain %d", len(watched.Rows), len(plain.Rows))
	}
	for i := range watched.Rows {
		a, b := &watched.Rows[i], &plain.Rows[i]
		if a.Scenario.Name() != b.Scenario.Name() || a.Counters != b.Counters || !reflect.DeepEqual(a.Summary, b.Summary) {
			t.Errorf("row %d (%s): watched serve diverged from the live run", i, b.Scenario.Name())
		}
	}
	hits, misses, puts := consumer.Stats()
	if misses != 0 || puts != 0 {
		t.Errorf("watch consumer stats: %d misses, %d puts — polling must never count misses or write", misses, puts)
	}
	if hits != int64(spec.Size()) {
		t.Errorf("watch consumer served %d hits, want %d", hits, spec.Size())
	}
}

// TestStoreWaitDrainedMissMeansError: once Done reports the pool
// drained, a still-missing scenario is RequireStored's hard error — a
// watch merge against a pool that ran a different grid fails, it does
// not hang.
func TestStoreWaitDrainedMissMeansError(t *testing.T) {
	spec := fig9Spec(t, 4)
	ex := Executor{
		Workers: 2, Store: openStore(t), RequireStored: true,
		StoreWait: &StoreWait{Poll: time.Millisecond, Done: func() (bool, error) { return true, nil }},
	}
	err := ex.Collect(spec, Discard)
	if err == nil {
		t.Fatal("empty store + drained pool succeeded")
	}
	if !strings.Contains(err.Error(), "after the pool drained") {
		t.Errorf("error %q does not name the drained pool", err)
	}
}

// TestStoreWaitDeadPoolFailsSweep: a Done error (the dead-pool verdict)
// fails the sweep promptly instead of polling forever.
func TestStoreWaitDeadPoolFailsSweep(t *testing.T) {
	spec := fig9Spec(t, 4)
	var polls atomic.Int64
	ex := Executor{
		Workers: 2, Store: openStore(t), RequireStored: true,
		StoreWait: &StoreWait{Poll: time.Millisecond, Done: func() (bool, error) {
			if polls.Add(1) < 3 {
				return false, nil // look alive for a couple of polls first
			}
			return false, fmt.Errorf("pool looks dead")
		}},
	}
	done := make(chan error, 1)
	go func() { done <- ex.Collect(spec, Discard) }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "pool looks dead") {
			t.Errorf("error %q does not carry the liveness verdict", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("dead pool hung the sweep")
	}
}

// TestStoreWaitDeadVerdictBeatsCancelledWait: the worker that receives
// the dead-pool verdict cancels the sweep, which cuts the other worker's
// store wait short. That cancelled wait must not be reported in place of
// the verdict, even when it belongs to the lower scenario position.
// Spec-order dispatch makes the held first waiter usually the lowest
// position; which worker gets the verdict is still up to the scheduler,
// so the race runs several times.
func TestStoreWaitDeadVerdictBeatsCancelledWait(t *testing.T) {
	spec := fig9Spec(t, 4)
	for round := 0; round < 8; round++ {
		var (
			calls  atomic.Int64
			second = make(chan struct{})
			once   sync.Once
		)
		ex := Executor{
			Workers: 2, Store: openStore(t), RequireStored: true, SpecOrderDispatch: true,
			StoreWait: &StoreWait{Poll: time.Minute, Done: func() (bool, error) {
				if calls.Add(1) == 1 {
					<-second // hold the first waiter until the verdict is out
					return false, nil
				}
				once.Do(func() { close(second) })
				return false, fmt.Errorf("pool looks dead")
			}},
		}
		done := make(chan error, 1)
		go func() { done <- ex.Collect(spec, Discard) }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "pool looks dead") {
				t.Fatalf("round %d: error %q does not carry the liveness verdict", round, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("dead pool hung the sweep")
		}
	}
}

// TestStoreWaitRequiresRequireStored: waiting is only meaningful for a
// store-only merge; misconfiguration is refused up front.
func TestStoreWaitRequiresRequireStored(t *testing.T) {
	ex := Executor{Store: openStore(t), StoreWait: &StoreWait{Done: func() (bool, error) { return true, nil }}}
	if err := ex.Collect(fig9Spec(t, 4), Discard); err == nil || !strings.Contains(err.Error(), "RequireStored") {
		t.Errorf("StoreWait without RequireStored gave %v, want a pointed refusal", err)
	}
}
