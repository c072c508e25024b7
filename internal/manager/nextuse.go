package manager

import (
	"fmt"
	"math"

	"repro/internal/dynlist"
	"repro/internal/policy"
	"repro/internal/taskgraph"
)

// nextUse is Belady's next-occurrence index over one run's global request
// sequence: every arrival's reconfiguration sequence, concatenated in
// arrival order. It is built once per run and answers a policy's
// forward-distance queries (policy.NextUse) in O(1) amortised time, so a
// replacement decision costs O(candidates) rather than a copy and scan of
// the whole visible future.
//
// The layout is CSR-shaped and pooled across runs. Positions are int32:
// the index is rebuilt for every simulation of a sweep, and halving its
// footprint keeps that cheap.
type nextUse struct {
	// offset[k] is the position of arrival k's first request; offset[n]
	// is the sequence length.
	offset []int32
	// occ holds every task's occurrence positions, grouped by task in
	// ascending order; task id's group is occ[first[id]:first[id+1]].
	first []int32
	occ   []int32
	// cursor[id] indexes id's group at its first occurrence ≥ from. The
	// window's start never moves backwards within a run, so the cursors
	// only advance and the whole run's scanning is O(sequence length).
	cursor []int32
	// [from, end) is the request window the current decision sees.
	from, end int32
}

var _ policy.NextUse = (*nextUse)(nil)

// build indexes the request sequence of arrivals, whose task IDs are at
// most maxID.
func (x *nextUse) build(arrivals []dynlist.Item, maxID taskgraph.TaskID) error {
	ids := int(maxID) + 1
	x.offset = resize(x.offset, len(arrivals)+1)
	x.first = resize(x.first, ids+1)
	x.cursor = resize(x.cursor, ids)
	// Count each task's occurrences into first[id+1]; the prefix sum then
	// turns first[id] into the start of id's group.
	total := 0
	for k, it := range arrivals {
		x.offset[k] = int32(total)
		g := it.Graph
		for _, li := range g.RecSequence() {
			x.first[g.Task(li).ID+1]++
		}
		total += len(g.RecSequence())
		if total > math.MaxInt32 {
			return fmt.Errorf("manager: request sequence exceeds %d entries", math.MaxInt32)
		}
	}
	x.offset[len(arrivals)] = int32(total)
	for id := 1; id <= ids; id++ {
		x.first[id] += x.first[id-1]
	}
	// Fill the groups in sequence order, using the cursors as per-task
	// write counters, then rewind them.
	x.occ = resize(x.occ, total)
	for k, it := range arrivals {
		pos := x.offset[k]
		g := it.Graph
		for _, li := range g.RecSequence() {
			id := g.Task(li).ID
			x.occ[x.first[id]+x.cursor[id]] = pos
			x.cursor[id]++
			pos++
		}
	}
	clear(x.cursor)
	x.from, x.end = 0, 0
	return nil
}

// window sets the requests visible to the next decision: those of
// arrival k after its entry recPos, then arrivals k+1 … last-1.
func (x *nextUse) window(k, recPos, last int) {
	x.from = min(x.offset[k]+int32(recPos)+1, x.offset[k+1])
	x.end = x.offset[last]
}

// Distance implements policy.NextUse: the distance from the window's
// start to id's first occurrence inside the window, or -1.
func (x *nextUse) Distance(id taskgraph.TaskID) int {
	if uint(id) >= uint(len(x.cursor)) {
		return -1 // not requested anywhere in this run
	}
	occ := x.occ[x.first[id]:x.first[id+1]]
	c := x.cursor[id]
	for int(c) < len(occ) && occ[c] < x.from {
		c++
	}
	x.cursor[id] = c
	if int(c) == len(occ) || occ[c] >= x.end {
		return -1
	}
	return int(occ[c] - x.from)
}
