package main

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coord"
	"repro/internal/policy"
	"repro/internal/resultstore"
	"repro/internal/sweep"
)

// tracer collects one traced iteration's spans and counters. Its
// decorators wrap the program's public extension points — policy
// constructors, store and coordinator backends, the report writer — and
// forward every call unchanged, so a traced run renders exactly the
// bytes an untraced one does.
type tracer struct {
	rec   *Recorder
	root  int          // the iteration's span
	phase atomic.Int64 // parent for spans decorators record

	mu       sync.Mutex
	policies []*policyStats

	storeLoads, storeLoadBytes, storeLoadNS    atomic.Int64
	storeWrites, storeWriteBytes, storeWriteNS atomic.Int64
	coordOps, coordNS, coordClaims             atomic.Int64
	ckptSaves, ckptBytes                       atomic.Int64
}

func newTracer(rec *Recorder, name string) *tracer {
	t := &tracer{rec: rec}
	t.root = rec.Begin(name, 0)
	t.phase.Store(int64(t.root))
	return t
}

// begin opens a phase span under the iteration; decorator spans recorded
// until end is called hang under it.
func (t *tracer) begin(name string) (end func() time.Duration) {
	id := t.rec.Begin(name, t.root)
	t.phase.Store(int64(id))
	return func() time.Duration {
		t.phase.Store(int64(t.root))
		return t.rec.Finish(id)
	}
}

func (t *tracer) span(name string, start time.Time) time.Duration {
	end := time.Now()
	t.rec.Record(name, int(t.phase.Load()), start, end)
	return end.Sub(start)
}

// policyStats counts one scenario's replacement decisions. Each policy
// instance serves one simulation at a time, so the fields need no lock;
// they are read only after the sweep that used them has returned.
type policyStats struct {
	lfd       bool // clairvoyant LFD: the policy asks for the whole future
	decisions int64
	busy      time.Duration
	lookahead int64
	reusable  int64
}

type tracedPolicy struct {
	p  policy.Policy
	st *policyStats
	t  *tracer
}

func (d *tracedPolicy) Name() string { return d.p.Name() }
func (d *tracedPolicy) Window() int  { return d.p.Window() }

func (d *tracedPolicy) SelectVictim(req policy.Request, cands []policy.Candidate) policy.Decision {
	start := time.Now()
	dec := d.p.SelectVictim(req, cands)
	d.st.busy += time.Since(start)
	d.st.decisions++
	d.st.lookahead += int64(len(req.Lookahead))
	if dec.Reusable {
		d.st.reusable++
	}
	return dec
}

// The optional policy interfaces are forwarded only when the wrapped
// policy has them: the manager and core look for them by type assertion.
type tracedResetter struct{ *tracedPolicy }

func (d tracedResetter) Reset() { d.p.(policy.Resetter).Reset() }

type tracedForker struct{ *tracedPolicy }

func (d tracedForker) Fork() policy.Policy { return d.t.wrapPolicy(d.p.(policy.Forker).Fork()) }

type tracedResetForker struct{ *tracedPolicy }

func (d tracedResetForker) Reset()              { d.p.(policy.Resetter).Reset() }
func (d tracedResetForker) Fork() policy.Policy { return d.t.wrapPolicy(d.p.(policy.Forker).Fork()) }

func (t *tracer) wrapPolicy(p policy.Policy) policy.Policy {
	st := &policyStats{lfd: p.Window() == policy.WindowAll}
	t.mu.Lock()
	t.policies = append(t.policies, st)
	t.mu.Unlock()
	d := &tracedPolicy{p: p, st: st, t: t}
	_, resets := p.(policy.Resetter)
	_, forks := p.(policy.Forker)
	switch {
	case resets && forks:
		return tracedResetForker{d}
	case resets:
		return tracedResetter{d}
	case forks:
		return tracedForker{d}
	}
	return d
}

// wrapSpec returns spec with every policy constructor decorated. Keys
// are unchanged, so store identities are too.
func (t *tracer) wrapSpec(spec sweep.Spec) sweep.Spec {
	pols := make([]sweep.PolicySpec, len(spec.Policies))
	for i, ps := range spec.Policies {
		inner := ps.New
		ps.New = func() (policy.Policy, error) {
			p, err := inner()
			if err != nil {
				return nil, err
			}
			return t.wrapPolicy(p), nil
		}
		pols[i] = ps
	}
	spec.Policies = pols
	return spec
}

// tracedStore times a result-store backend's byte traffic.
type tracedStore struct {
	resultstore.Backend
	t *tracer
}

func (s tracedStore) Load(key string) ([]byte, bool) {
	start := time.Now()
	data, ok := s.Backend.Load(key)
	d := s.t.span("store.load", start)
	s.t.storeLoads.Add(1)
	s.t.storeLoadBytes.Add(int64(len(data)))
	s.t.storeLoadNS.Add(int64(d))
	return data, ok
}

func (s tracedStore) Store(key string, data []byte) error {
	start := time.Now()
	err := s.Backend.Store(key, data)
	d := s.t.span("store.write", start)
	s.t.storeWrites.Add(1)
	s.t.storeWriteBytes.Add(int64(len(data)))
	s.t.storeWriteNS.Add(int64(d))
	return err
}

// tracedCoord times a coordinator backend's operations and counts lease
// claims and checkpoint saves by the keys the protocol writes.
type tracedCoord struct {
	coord.Backend
	t *tracer
}

func (c tracedCoord) op(name string, start time.Time) {
	d := c.t.span(name, start)
	c.t.coordOps.Add(1)
	c.t.coordNS.Add(int64(d))
}

func (c tracedCoord) Get(key string) ([]byte, error) {
	start := time.Now()
	data, err := c.Backend.Get(key)
	c.op("coord.get", start)
	return data, err
}

func (c tracedCoord) Put(key string, data []byte) error {
	start := time.Now()
	err := c.Backend.Put(key, data)
	c.op("coord.put", start)
	if err == nil && strings.HasPrefix(key, "checkpoint/") {
		c.t.ckptSaves.Add(1)
		c.t.ckptBytes.Add(int64(len(data)))
	}
	return err
}

func (c tracedCoord) Create(key string, data []byte) error {
	start := time.Now()
	err := c.Backend.Create(key, data)
	c.op("coord.create", start)
	if err == nil && strings.HasSuffix(key, ".claim") {
		c.t.coordClaims.Add(1)
	}
	return err
}

func (c tracedCoord) List(dir string) ([]string, error) {
	start := time.Now()
	names, err := c.Backend.List(dir)
	c.op("coord.list", start)
	return names, err
}
