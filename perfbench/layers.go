package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/mobility"
)

// layerUnits lists every per-layer metric with its unit. A layer a
// workload does not exercise reports 0 (no store traffic on the
// in-memory workloads, no coordinator outside campaign-fs).
var layerUnits = map[string]string{
	"workload.gen_s": "s",

	"mobility.tables":          "count",
	"mobility.computes":        "count",
	"mobility.schedules":       "count",
	"mobility.busy_s":          "s",
	"mobility.ms_per_table":    "ms",
	"mobility.hit_ratio":       "ratio",
	"mobility.artifact_hits":   "count",
	"mobility.artifact_writes": "count",

	"manager.runs":             "count",
	"manager.events":           "count",
	"manager.busy_s":           "s",
	"manager.self_s":           "s",
	"manager.ns_per_event":     "ns",
	"manager.allocs_per_event": "count",

	"policy.decisions":         "count",
	"policy.busy_s":            "s",
	"policy.ns_per_decision":   "ns",
	"policy.lookahead_entries": "count",
	"policy.reusable_ratio":    "ratio",
	"policy.lfd.busy_s":        "s",

	"sweep.scenarios":       "count",
	"sweep.live":            "count",
	"sweep.served":          "count",
	"sweep.util":            "ratio",
	"sweep.idle_s":          "s",
	"sweep.scenario_ms_p50": "ms",
	"sweep.scenario_ms_max": "ms",

	"store.loads":       "count",
	"store.load_bytes":  "B",
	"store.load_s":      "s",
	"store.writes":      "count",
	"store.write_bytes": "B",
	"store.write_s":     "s",
	"store.hits":        "count",
	"store.misses":      "count",
	"store.hit_ratio":   "ratio",

	"coord.ops":         "count",
	"coord.op_s":        "s",
	"coord.claims":      "count",
	"coord.idle_wait_s": "s",
	"checkpoint.saves":  "count",
	"checkpoint.bytes":  "B",

	"campaign.populate_s": "s",
	"campaign.merge_s":    "s",
	"render.bytes":        "B",

	"runtime.gc_cycles":    "count",
	"runtime.gc_pause_s":   "s",
	"runtime.alloc_mb":     "MB",
	"runtime.heap_peak_mb": "MB",

	"trace.overhead_pct": "%",
	"error_rate":         "ratio",
	"paper_gap_pp":       "pp",
	"reuse_pct":          "%",
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layers computes one traced iteration's per-layer metrics from the
// tracer's spans and counters, the outcome, and the design-time cache
// and runtime counters taken around the run.
func layers(t *tracer, s sample, inst *instance, mob0, mob1 mobility.CacheStats, before, after *runtime.MemStats, heapPeak uint64) map[string]float64 {
	o := s.o
	m := map[string]float64{}
	m["workload.gen_s"] = inst.genTime.Seconds()

	tables := float64(o.mobility.tables)
	m["mobility.tables"] = tables
	m["mobility.computes"] = float64(mob1.Computes - mob0.Computes)
	m["mobility.schedules"] = float64(o.mobility.schedules)
	m["mobility.busy_s"] = o.mobility.busy.Seconds()
	m["mobility.ms_per_table"] = ratio(float64(o.mobility.busy)/1e6, tables)
	hits, misses := float64(mob1.Hits-mob0.Hits), float64(mob1.Misses-mob0.Misses)
	m["mobility.hit_ratio"] = ratio(hits, hits+misses)
	m["mobility.artifact_hits"] = float64(mob1.StoreHits - mob0.StoreHits)
	m["mobility.artifact_writes"] = float64(mob1.StoreWrites - mob0.StoreWrites)

	var (
		decisions, lookahead, reusable int64
		polBusy, lfdBusy               time.Duration
	)
	for _, p := range t.policies {
		decisions += p.decisions
		lookahead += p.lookahead
		reusable += p.reusable
		polBusy += p.busy
		if p.lfd {
			lfdBusy += p.busy
		}
	}
	var busy time.Duration
	for _, d := range o.elapsed {
		busy += d
	}
	events := float64(o.events)
	m["manager.runs"] = float64(len(t.policies))
	m["manager.events"] = events
	m["manager.busy_s"] = busy.Seconds()
	m["manager.self_s"] = (busy - polBusy).Seconds()
	m["manager.ns_per_event"] = ratio(float64(busy), events)
	m["manager.allocs_per_event"] = ratio(float64(after.Mallocs-before.Mallocs), events)

	m["policy.decisions"] = float64(decisions)
	m["policy.busy_s"] = polBusy.Seconds()
	m["policy.ns_per_decision"] = ratio(float64(polBusy), float64(decisions))
	m["policy.lookahead_entries"] = float64(lookahead)
	m["policy.reusable_ratio"] = ratio(float64(reusable), float64(decisions))
	m["policy.lfd.busy_s"] = lfdBusy.Seconds()

	capacity := time.Duration(nproc) * o.simWall
	m["sweep.scenarios"] = float64(o.live + o.served)
	m["sweep.live"] = float64(o.live)
	m["sweep.served"] = float64(o.served)
	m["sweep.util"] = ratio(float64(busy), float64(capacity))
	m["sweep.idle_s"] = (capacity - busy).Seconds()
	ms := make([]float64, len(o.elapsed))
	for i, d := range o.elapsed {
		ms[i] = float64(d) / 1e6
	}
	sort.Float64s(ms)
	m["sweep.scenario_ms_p50"] = median(ms)
	if len(ms) > 0 {
		m["sweep.scenario_ms_max"] = ms[len(ms)-1]
	}

	m["store.loads"] = float64(t.storeLoads.Load())
	m["store.load_bytes"] = float64(t.storeLoadBytes.Load())
	m["store.load_s"] = time.Duration(t.storeLoadNS.Load()).Seconds()
	m["store.writes"] = float64(t.storeWrites.Load())
	m["store.write_bytes"] = float64(t.storeWriteBytes.Load())
	m["store.write_s"] = time.Duration(t.storeWriteNS.Load()).Seconds()
	m["store.hits"] = float64(o.store.hits)
	m["store.misses"] = float64(o.store.misses)
	m["store.hit_ratio"] = ratio(float64(o.store.hits), float64(o.store.hits+o.store.misses))

	m["coord.ops"] = float64(t.coordOps.Load())
	m["coord.op_s"] = time.Duration(t.coordNS.Load()).Seconds()
	m["coord.claims"] = float64(t.coordClaims.Load())
	if len(o.ends) > 0 {
		// The pool's drain tail: claim loops with nothing left to claim
		// sleeping out a heartbeat after the last shard finished.
		last := o.ends[0]
		for _, d := range o.ends {
			last = max(last, d)
		}
		m["coord.idle_wait_s"] = (o.simWall - last).Seconds()
	} else {
		m["coord.idle_wait_s"] = 0
	}
	m["checkpoint.saves"] = float64(t.ckptSaves.Load())
	m["checkpoint.bytes"] = float64(t.ckptBytes.Load())

	m["campaign.populate_s"] = o.populate.Seconds()
	m["campaign.merge_s"] = o.merge.Seconds()
	m["render.bytes"] = float64(len(s.report))

	m["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	m["runtime.gc_pause_s"] = time.Duration(after.PauseTotalNs - before.PauseTotalNs).Seconds()
	m["runtime.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	m["runtime.heap_peak_mb"] = float64(heapPeak) / (1 << 20)
	return m
}

// perLayer fills the traced run's metrics: each layer metric's median
// over the traced iterations, the tracing overhead against the untraced
// iterations in between, and the run's failure share.
func perLayer(res *result, r *runner, plain, traced []sample) {
	for name, unit := range layerUnits {
		xs := make([]float64, 0, len(traced))
		for _, s := range traced {
			if v, ok := s.layers[name]; ok {
				xs = append(xs, v)
			}
		}
		res.Metrics[name] = metric{median(xs), unit}
	}
	wallOf := func(s sample) float64 { return s.wall.Seconds() }
	pw, tw := medianOf(plain, wallOf), medianOf(traced, wallOf)
	res.Metrics["trace.overhead_pct"] = metric{100 * (tw - pw) / pw, "%"}
	res.Metrics["error_rate"] = metric{ratio(float64(r.failed), float64(r.attempted)), "ratio"}
	reuse, _ := summaryMeans(plain[0].o)
	res.Metrics["reuse_pct"] = metric{reuse, "%"}
	// Only a paper-scale report compares with the paper's averages; the
	// gap is 0 (not applicable) elsewhere.
	var gap float64
	if r.b.paperScale {
		var err error
		if gap, _, err = paperGap(plain[0].report); err != nil {
			res.Correct = false
		}
	}
	res.Metrics["paper_gap_pp"] = metric{gap, "pp"}
}

// memSampler polls the process's resident memory and live heap during a
// timed run to find their peaks. It reads /proc/self/statm, so resident
// memory is 0 where that file does not exist.
type memSampler struct {
	stopCh chan struct{}
	done   chan memPeaks
}

type memPeaks struct{ rss, heap uint64 }

func startMemSampler() *memSampler {
	h := &memSampler{stopCh: make(chan struct{}), done: make(chan memPeaks)}
	go func() {
		sm := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		page := uint64(os.Getpagesize())
		buf := make([]byte, 128)
		var peak memPeaks
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sm)
			peak.heap = max(peak.heap, sm[0].Value.Uint64())
			peak.rss = max(peak.rss, residentPages(buf)*page)
			select {
			case <-h.stopCh:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// residentPages reads the resident set size, in pages, from the second
// field of /proc/self/statm.
func residentPages(buf []byte) uint64 {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return 0
	}
	defer f.Close()
	n, _ := f.Read(buf)
	fields := strings.Fields(string(buf[:n]))
	if len(fields) < 2 {
		return 0
	}
	v, _ := strconv.ParseUint(fields[1], 10, 64)
	return v
}

// stop ends the sampler and returns the peaks it saw.
func (h *memSampler) stop() memPeaks {
	close(h.stopCh)
	return <-h.done
}
