package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed call at a layer boundary. Spans are kept in memory for
// the whole replay and summarised when it ends.
type span struct {
	name       string
	start, end time.Time
	parent     int // index of the parent span, -1 for a root
	req        int // request the span belongs to
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer records spans. The replay calls every layer from one goroutine
// (the explainers call their PredictFunc on the caller's goroutine), so it
// needs no locking.
type tracer struct {
	spans []span
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{name: name, start: time.Now(), parent: parent, req: req})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) { t.spans[id].end = time.Now() }

// selfTimes returns each span's duration minus the part of its interval its
// children cover. Overlapping children (concurrent calls) are merged before
// subtraction, so covered time is never counted twice.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Time }
		var ivs []iv
		for _, k := range kids[i] {
			a, b := spans[k].start, spans[k].end
			if a.Before(s.start) {
				a = s.start
			}
			if b.After(s.end) {
				b = s.end
			}
			if b.After(a) {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a.Before(ivs[y].a) })
		var covered time.Duration
		var cur iv
		for j, v := range ivs {
			switch {
			case j == 0:
				cur = v
			case !v.a.After(cur.b):
				if v.b.After(cur.b) {
					cur.b = v.b
				}
			default:
				covered += cur.b.Sub(cur.a)
				cur = v
			}
		}
		if len(ivs) > 0 {
			covered += cur.b.Sub(cur.a)
		}
		out[i] = s.dur() - covered
	}
	return out
}

// rootOf returns the root span of span i.
func rootOf(spans []span, i int) int {
	for spans[i].parent >= 0 {
		i = spans[i].parent
	}
	return i
}

// layerRow is one line of the span summary.
type layerRow struct {
	root, name string
	count      int
	p50        time.Duration
	total      time.Duration
	self       time.Duration
	share      float64 // total time of this layer over total time of its roots
}

// summarize groups spans by (root name, span name): call count, median
// duration, total and self time, and the share of the root spans' total
// time that the layer accounts for.
func summarize(spans []span) []layerRow {
	self := selfTimes(spans)
	rootTotal := map[string]time.Duration{}
	type key struct{ root, name string }
	durs := map[key][]float64{}
	rows := map[key]*layerRow{}
	for i, s := range spans {
		r := spans[rootOf(spans, i)].name
		if s.parent < 0 {
			rootTotal[r] += s.dur()
		}
		k := key{r, s.name}
		row := rows[k]
		if row == nil {
			row = &layerRow{root: r, name: s.name}
			rows[k] = row
		}
		row.count++
		row.total += s.dur()
		row.self += self[i]
		durs[k] = append(durs[k], float64(s.dur()))
	}
	out := make([]layerRow, 0, len(rows))
	for k, row := range rows {
		row.p50 = time.Duration(median(durs[k]))
		if t := rootTotal[k.root]; t > 0 {
			row.share = float64(row.total) / float64(t)
		}
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].root != out[j].root {
			return out[i].root < out[j].root
		}
		return out[i].total > out[j].total
	})
	return out
}

func printSummary(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "  %-12s %-34s %7s %12s %12s %12s %7s\n", "root", "span", "count", "p50", "total", "self", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-12s %-34s %7d %12s %12s %12s %6.1f%%\n", r.root, r.name, r.count,
			r.p50.Round(time.Microsecond/10), r.total.Round(time.Microsecond), r.self.Round(time.Microsecond), 100*r.share)
	}
}
