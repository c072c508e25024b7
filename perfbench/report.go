package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/sweep"
)

// reportWriter captures a report in memory and notes when its first
// table row lands: the first line after a table's dashed separator. With
// a tracer it is also the render-layer decorator, one span per write.
type reportWriter struct {
	buf      bytes.Buffer
	start    time.Time
	firstRow time.Duration
	t        *tracer

	scanned int  // bytes of buf already split into lines
	sepSeen bool // the previous complete line was a separator
}

func newReportWriter(start time.Time, t *tracer) *reportWriter {
	return &reportWriter{start: start, firstRow: -1, t: t}
}

func (w *reportWriter) Write(p []byte) (int, error) {
	var begin time.Time
	if w.t != nil {
		begin = time.Now()
	}
	n, _ := w.buf.Write(p)
	if w.firstRow < 0 {
		w.scanRows()
	}
	if w.t != nil {
		w.t.span("render.write", begin)
	}
	return n, nil
}

func (w *reportWriter) scanRows() {
	for w.firstRow < 0 {
		rest := w.buf.Bytes()[w.scanned:]
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			return
		}
		line := strings.TrimSpace(string(rest[:nl]))
		w.scanned += nl + 1
		if w.sepSeen && line != "" {
			w.firstRow = time.Since(w.start)
		}
		w.sepSeen = line != "" && strings.Trim(line, "- ") == ""
	}
}

// gridTable is one figure of a grid report: what the executor sweeps and
// how the rows render. It mirrors the Fig. 9 layout of rtrrepro: a
// section title, an "RUs \ policy" table with an Avg. row, and the
// paper-reported averages when there are any.
type gridTable struct {
	title    string
	spec     sweep.Spec
	metric   func(*metrics.Summary) float64
	paperAvg map[string]float64
	trailer  string
}

// render sweeps the table's grid on ex and writes it to w row by row.
// Every collected result also goes to observe.
func (g gridTable) render(w io.Writer, ex sweep.Executor, observe func(*sweep.Result)) error {
	fmt.Fprintf(w, "\n=== %s ===\n", g.title)
	names := make([]string, len(g.spec.Policies))
	for i, p := range g.spec.Policies {
		names[i] = p.Name
	}
	labels := make([]string, 0, len(g.spec.RUs)+1)
	for _, r := range g.spec.RUs {
		labels = append(labels, strconv.Itoa(r))
	}
	labels = append(labels, "Avg.")
	tab := metrics.NewStreamTable(w, metrics.StreamTableConfig{
		XLabel: "RUs \\ policy", RowLabels: labels, XValues: names,
	})
	sums := make([]float64, len(names))
	rr := &sweep.RowRenderer{
		Sizes: []int{len(names)},
		Emit: func(i int, rows []sweep.SummaryRow) error {
			vals := make([]float64, len(rows))
			for pi, row := range rows {
				vals[pi] = g.metric(row.Summary)
				sums[pi] += vals[pi]
			}
			return tab.FloatRow(labels[i], vals...)
		},
	}
	c := sweep.CollectorFunc(func(r *sweep.Result) error {
		observe(r)
		return rr.Collect(r)
	})
	if err := ex.Collect(g.spec, c); err != nil {
		return err
	}
	if err := rr.Close(); err != nil {
		return err
	}
	for i := range sums {
		sums[i] /= float64(len(g.spec.RUs))
	}
	if err := tab.FloatRow("Avg.", sums...); err != nil {
		return err
	}
	if len(g.paperAvg) > 0 {
		fmt.Fprintln(w, "\npaper-reported averages for comparison:")
		for _, n := range names {
			if v, ok := g.paperAvg[n]; ok {
				fmt.Fprintf(w, "  %-28s %.2f\n", n, v)
			}
		}
	}
	if g.trailer != "" {
		fmt.Fprintln(w, g.trailer)
	}
	return nil
}

// paperGap parses a report for every table that is followed by
// paper-reported averages and returns the mean absolute gap, in
// percentage points, between each reported series' reproduced Avg. and
// the paper's value, with the number of series compared.
func paperGap(report []byte) (float64, int, error) {
	var (
		header  []string // column names of the current table
		avg     []string // its Avg. row values
		inPaper bool
		sum     float64
		n       int
	)
	for _, line := range strings.Split(string(report), "\n") {
		switch {
		case strings.HasPrefix(line, "RUs \\ policy"):
			header = splitColumns(line)[1:]
			avg, inPaper = nil, false
		case strings.HasPrefix(line, "Avg."):
			avg = strings.Fields(line)[1:]
		case line == "paper-reported averages for comparison:":
			inPaper = true
		case inPaper && strings.HasPrefix(line, "  ") && !strings.HasPrefix(line, "  ("):
			fields := strings.Fields(line)
			name := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(line), fields[len(fields)-1]))
			paper, err := strconv.ParseFloat(fields[len(fields)-1], 64)
			if err != nil {
				return 0, 0, fmt.Errorf("paper average %q: %w", line, err)
			}
			col := indexOf(header, name)
			if col < 0 || col >= len(avg) {
				return 0, 0, fmt.Errorf("paper average for %q has no reproduced column", name)
			}
			got, err := strconv.ParseFloat(avg[col], 64)
			if err != nil {
				return 0, 0, fmt.Errorf("Avg. of %q: %w", name, err)
			}
			sum += math.Abs(got - paper)
			n++
		default:
			inPaper = false
		}
	}
	if n == 0 {
		return 0, 0, nil
	}
	return sum / float64(n), n, nil
}

// splitColumns splits an aligned table line on runs of two or more
// spaces; column names themselves contain single spaces only.
func splitColumns(line string) []string {
	var out []string
	for _, f := range strings.Split(line, "  ") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}
