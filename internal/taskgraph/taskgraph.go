// Package taskgraph models the applications executed by the reconfigurable
// system: directed acyclic graphs whose nodes are hardware tasks (one FPGA
// configuration each) and whose edges are data dependencies.
//
// A Graph is an immutable template built once (normally at design time) via
// a Builder. Workloads reference Graph templates; the execution manager
// instantiates per-run bookkeeping separately, so a single template can be
// enqueued many times, which is exactly how the paper's experiments use the
// JPEG / MPEG-1 / Hough graphs.
//
// Task identity matters: reuse is keyed on TaskID. Two executions of the
// same template share TaskIDs, so a configuration left on a reconfigurable
// unit by an earlier run can be reused by a later one.
package taskgraph

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"

	"repro/internal/simtime"
)

// TaskID identifies a hardware task configuration. IDs are global to a
// workload: distinct applications must use distinct IDs, while repeated
// executions of one application share them (that is what makes reuse
// possible).
type TaskID int

// NoTask is the zero TaskID, never used by a valid task.
const NoTask TaskID = 0

// Task is one node of a task graph: a hardware task with a fixed execution
// time once its configuration is resident on a reconfigurable unit.
type Task struct {
	ID   TaskID
	Name string
	Exec simtime.Time // pure execution time, excluding reconfiguration
}

// Graph is an immutable task graph template.
type Graph struct {
	name  string
	tasks []Task  // indexed by local task index
	succs [][]int // successor local indices, per task
	preds [][]int // predecessor local indices, per task
	byID  map[TaskID]int
	rec   []int  // reconfiguration sequence (local indices, topological)
	maxID TaskID // largest TaskID in the graph

	fpOnce sync.Once // guards fp (content fingerprint, computed lazily)
	fp     string
}

// Fingerprint returns the template's content fingerprint: lowercase hex
// SHA-256 of its canonical JSON encoding (sorted dependencies, explicit
// reconfiguration sequence, millisecond execution times). Two templates
// with identical content share a fingerprint even when they are distinct
// pointers — in particular a template re-parsed from its own JSON in
// another process — which is what lets design-time artifacts computed
// once be reused across processes and hosts. Memoized on first use; safe
// for concurrent use.
func (g *Graph) Fingerprint() string {
	g.fpOnce.Do(func() {
		data, err := g.MarshalJSON()
		if err != nil {
			// A Builder-validated graph always encodes; colliding silently
			// on an empty fingerprint would be far worse than failing loud.
			panic(fmt.Sprintf("taskgraph: fingerprint %q: %v", g.name, err))
		}
		sum := sha256.Sum256(data)
		g.fp = hex.EncodeToString(sum[:])
	})
	return g.fp
}

// MaxTaskID returns the largest TaskID used by the graph. Array-backed
// per-task state (e.g. the manager's protected set) sizes itself from
// this.
func (g *Graph) MaxTaskID() TaskID { return g.maxID }

// Name returns the template's human-readable name.
func (g *Graph) Name() string { return g.name }

// NumTasks returns the number of tasks.
func (g *Graph) NumTasks() int { return len(g.tasks) }

// Task returns the task at local index i.
func (g *Graph) Task(i int) Task { return g.tasks[i] }

// Tasks returns a copy of the task list in local-index order.
func (g *Graph) Tasks() []Task {
	out := make([]Task, len(g.tasks))
	copy(out, g.tasks)
	return out
}

// Succs returns the local indices of i's successors. The returned slice
// must not be modified.
func (g *Graph) Succs(i int) []int { return g.succs[i] }

// Preds returns the local indices of i's predecessors. The returned slice
// must not be modified.
func (g *Graph) Preds(i int) []int { return g.preds[i] }

// IndexOf returns the local index of the task with the given ID, or -1.
func (g *Graph) IndexOf(id TaskID) int {
	if i, ok := g.byID[id]; ok {
		return i
	}
	return -1
}

// RecSequence returns the reconfiguration sequence: the order in which the
// manager loads the graph's configurations. It is always a topological
// order. The returned slice must not be modified.
func (g *Graph) RecSequence() []int { return g.rec }

// RecSequenceIDs returns the reconfiguration sequence as TaskIDs, in a
// fresh slice.
func (g *Graph) RecSequenceIDs() []TaskID {
	out := make([]TaskID, len(g.rec))
	for k, i := range g.rec {
		out[k] = g.tasks[i].ID
	}
	return out
}

// TotalExec returns the sum of all task execution times (the serial
// execution time on a single unit with no reconfiguration cost).
func (g *Graph) TotalExec() simtime.Time {
	var s simtime.Time
	for _, t := range g.tasks {
		s = s.Add(t.Exec)
	}
	return s
}

// String summarizes the graph.
func (g *Graph) String() string {
	edges := 0
	for _, s := range g.succs {
		edges += len(s)
	}
	return fmt.Sprintf("%s{%d tasks, %d deps, total %v}", g.name, len(g.tasks), edges, g.TotalExec())
}

// A Builder accumulates tasks and dependencies and validates them into an
// immutable Graph.
type Builder struct {
	name   string
	tasks  []Task
	byID   map[TaskID]int
	edges  [][2]int // (from, to) local indices
	recIDs []TaskID // optional explicit reconfiguration order
	err    error    // first error encountered; reported by Build
}

// NewBuilder starts a graph named name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, byID: make(map[TaskID]int)}
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("taskgraph %q: %s", b.name, fmt.Sprintf(format, args...))
	}
}

// AddTask adds a task. IDs must be positive and unique within the graph;
// execution times must be positive.
func (b *Builder) AddTask(id TaskID, name string, exec simtime.Time) *Builder {
	if id <= NoTask {
		b.fail("task %q: non-positive id %d", name, id)
		return b
	}
	if exec <= 0 {
		b.fail("task %d (%s): non-positive execution time %v", id, name, exec)
		return b
	}
	if _, dup := b.byID[id]; dup {
		b.fail("duplicate task id %d", id)
		return b
	}
	b.byID[id] = len(b.tasks)
	b.tasks = append(b.tasks, Task{ID: id, Name: name, Exec: exec})
	return b
}

// AddDep records that task `to` depends on task `from` (from → to). Both
// tasks must already have been added.
func (b *Builder) AddDep(from, to TaskID) *Builder {
	fi, ok := b.byID[from]
	if !ok {
		b.fail("dependency %d→%d: unknown task %d", from, to, from)
		return b
	}
	ti, ok := b.byID[to]
	if !ok {
		b.fail("dependency %d→%d: unknown task %d", from, to, to)
		return b
	}
	if fi == ti {
		b.fail("self-dependency on task %d", from)
		return b
	}
	b.edges = append(b.edges, [2]int{fi, ti})
	return b
}

// SetRecSequence overrides the default reconfiguration order with an
// explicit one. It must mention every task exactly once and be a
// topological order; Build verifies both.
func (b *Builder) SetRecSequence(ids ...TaskID) *Builder {
	b.recIDs = append([]TaskID(nil), ids...)
	return b
}

// Build validates the accumulated definition and returns the immutable
// Graph.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.tasks) == 0 {
		return nil, fmt.Errorf("taskgraph %q: no tasks", b.name)
	}
	n := len(b.tasks)
	g := &Graph{
		name:  b.name,
		tasks: append([]Task(nil), b.tasks...),
		succs: make([][]int, n),
		preds: make([][]int, n),
		byID:  make(map[TaskID]int, n),
	}
	for id, i := range b.byID {
		g.byID[id] = i
	}
	seen := make(map[[2]int]bool, len(b.edges))
	for _, e := range b.edges {
		if seen[e] {
			continue // collapse duplicate edges
		}
		seen[e] = true
		g.succs[e[0]] = append(g.succs[e[0]], e[1])
		g.preds[e[1]] = append(g.preds[e[1]], e[0])
	}
	for i := range g.succs {
		sort.Ints(g.succs[i])
		sort.Ints(g.preds[i])
	}
	order, ok := topoOrder(g)
	if !ok {
		return nil, fmt.Errorf("taskgraph %q: dependency cycle", b.name)
	}
	if b.recIDs != nil {
		rec, err := g.checkRecSequence(b.recIDs)
		if err != nil {
			return nil, fmt.Errorf("taskgraph %q: %v", b.name, err)
		}
		g.rec = rec
	} else {
		g.rec = defaultRecSequence(g, order)
	}
	for _, t := range g.tasks {
		if t.ID > g.maxID {
			g.maxID = t.ID
		}
	}
	return g, nil
}

// MustBuild is Build, panicking on error. Intended for the static graph
// definitions in workload libraries and tests.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// checkRecSequence validates an explicit order and converts it to local
// indices.
func (g *Graph) checkRecSequence(ids []TaskID) ([]int, error) {
	if len(ids) != len(g.tasks) {
		return nil, fmt.Errorf("rec sequence has %d entries, graph has %d tasks", len(ids), len(g.tasks))
	}
	rec := make([]int, len(ids))
	pos := make(map[int]int, len(ids)) // local index -> position
	for k, id := range ids {
		i, ok := g.byID[id]
		if !ok {
			return nil, fmt.Errorf("rec sequence mentions unknown task %d", id)
		}
		if _, dup := pos[i]; dup {
			return nil, fmt.Errorf("rec sequence mentions task %d twice", id)
		}
		pos[i] = k
		rec[k] = i
	}
	for i := range g.tasks {
		for _, p := range g.preds[i] {
			if pos[p] > pos[i] {
				return nil, fmt.Errorf("rec sequence loads task %d before its predecessor %d",
					g.tasks[i].ID, g.tasks[p].ID)
			}
		}
	}
	return rec, nil
}
