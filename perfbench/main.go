// Command perfbench is the end-to-end benchmark of the AIIO diagnosis
// service. It sets the service up from public functions (seeded corpus,
// paper-budget ensemble, registry generation, job log, aiio-server with
// default diagnosis flags), drives one workload over loopback from this one
// process with at most two connections, checks every answer against an
// in-process recomputation, and prints the end-to-end metrics. With
// -trace 1 it then replays the workload's inputs in-process, timing each
// layer's public functions, and prints the per-layer metrics instead.
//
// Run it through run.sh, which builds aiio-server from the same checkout:
//
//	bash perfbench/run.sh --workload hot-repeat --seed 3 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. The exit status is non-zero when any check fails.
// --workload all runs the three workloads in turn, one JSON line each.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "cold-distinct, hot-repeat, ingest-retrain, or all to run the three in turn")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 12, "measured seconds of the workload's phases")
	trace := flag.Int("trace", 0, "1 replays the inputs in-process and reports per-layer metrics")
	server := flag.String("server", "", "aiio-server binary")
	work := flag.String("work", "", "scratch directory for registries, job logs and server logs")
	flag.Parse()
	if *server == "" || *work == "" || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -server, -work and a positive -seconds are required")
		os.Exit(2)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	workloads := []string{*workload}
	if *workload == "all" {
		workloads = []string{"cold-distinct", "hot-repeat", "ingest-retrain"}
	}
	status := 0
	for _, wl := range workloads {
		res, err := benchmark(wl, *seed, *seconds, *trace == 1, *server, filepath.Join(*work, wl))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl, err)
			os.Exit(1)
		}
		out, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(out))
		if !res.Correct {
			status = 1
		}
	}
	os.Exit(status)
}

func benchmark(workload string, seed int64, secs float64, trace bool, bin, work string) (*result, error) {
	switch workload {
	case "cold-distinct", "hot-repeat", "ingest-retrain":
	default:
		return nil, fmt.Errorf("unknown workload %q (want cold-distinct, hot-repeat or ingest-retrain)", workload)
	}
	d, setupDurs, err := setup(seed, work, bin, serverFlags(workload))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer d.srv.stop()
	r := &run{workload: workload, seed: seed, secs: secs, work: work, hc: newClient(), d: d}
	if err := r.runWorkload(); err != nil {
		return nil, err
	}
	if err := r.lifecycleChecks(); err != nil {
		return nil, err
	}
	rss, err := d.srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	r.verify()
	res := &result{Attempted: len(r.ops)}
	for _, o := range r.ops {
		if o.fail != "" {
			res.Failed++
		}
	}
	res.Failed += len(r.checkErr)
	res.Correct = res.Failed == 0
	r.printSummary(setupDurs, rss)
	if trace {
		tr, err := replay(r)
		if err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		for _, e := range tr.checkErr {
			r.checkErr = append(r.checkErr, e)
			res.Failed++
		}
		res.Correct = res.Failed == 0
		res.Metrics = tr.metrics
	} else {
		res.Metrics = r.endToEnd(setupDurs, rss)
	}
	for _, e := range r.checkErr {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	printed := 0
	for _, o := range r.ops {
		if o.fail != "" && printed < 5 {
			fmt.Fprintf(os.Stderr, "perfbench: %s op failed: %s\n", o.kind, o.fail)
			printed++
		}
	}
	return res, nil
}

func latencies(tm []timing) []float64 {
	out := make([]float64, len(tm))
	for i, t := range tm {
		out[i] = ms(t.latency())
	}
	return out
}

// gated names the end-to-end metrics the JSON result carries. The other
// candidates are printed by printSummary but not gated: over 10 seeds on 2
// shared cores their spread (IQR over median) reached 0.16–0.29 on some
// workload, too wide for a 25% regression bound (see METHODOLOGY.md).
var gated = []string{"setup_s", "diag_p50_ms", "peak_rss_mb"}

// candidates computes every end-to-end number of the run.
func (r *run) candidates(setupDurs []float64, rss float64) map[string]metric {
	diag, ingest := latencies(r.diag), latencies(r.ingestTm)
	jobs := 0
	for _, o := range r.batchOps {
		if o.fail == "" {
			jobs += len(o.jobs)
		}
	}
	m := map[string]metric{
		"setup_s":               {median(setupDurs), "s"},
		"diag_p50_ms":           {percentile(diag, 0.5), "ms"},
		"diag_p90_ms":           {percentile(diag, 0.9), "ms"},
		"diag_p99_ms":           {percentile(diag, 0.99), "ms"},
		"batch_jobs_per_s":      {float64(jobs) / r.batchSecs, "1/s"},
		"server_cpu_ms_per_req": {r.cpuMS / float64(r.cpuReqs), "ms"},
		"peak_rss_mb":           {rss, "MiB"},
	}
	if len(ingest) > 0 {
		m["ingest_p50_ms"] = metric{percentile(ingest, 0.5), "ms"}
		m["ingest_p90_ms"] = metric{percentile(ingest, 0.9), "ms"}
		m["ingest_p99_ms"] = metric{percentile(ingest, 0.99), "ms"}
		m["retrain_s"] = metric{median(r.retrains), "s"}
	}
	return m
}

// endToEnd is the gated subset of candidates.
func (r *run) endToEnd(setupDurs []float64, rss float64) map[string]metric {
	all := r.candidates(setupDurs, rss)
	m := make(map[string]metric, len(gated))
	for _, n := range gated {
		m[n] = all[n]
	}
	return m
}

// printSummary writes the human-readable report: every end-to-end metric
// with its unit, the ungated p99s, generator lateness per open-loop phase,
// and ops sent, succeeded and failed per kind.
func (r *run) printSummary(setupDurs []float64, rss float64) {
	fmt.Printf("workload %s seed %d seconds %g\n", r.workload, r.seed, r.secs)
	m := r.candidates(setupDurs, rss)
	isGated := map[string]bool{}
	for _, n := range gated {
		isGated[n] = true
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		note := ""
		if !isGated[n] {
			note = "  (not gated)"
		}
		fmt.Printf("  %-24s %12.4f %s%s\n", n, m[n].Value, m[n].Unit, note)
	}
	fmt.Printf("  samples: %d diagnoses, %d ingest acks; retrain cycles %v s\n", len(r.diag), len(r.ingestTm), r.retrains)
	fmt.Printf("  setup runs %v s; server CPU %.0f ms over %d requests\n", setupDurs, r.cpuMS, r.cpuReqs)
	phases := make([]string, 0, len(r.lateness))
	for n := range r.lateness {
		phases = append(phases, n)
	}
	sort.Strings(phases)
	for _, n := range phases {
		late := make([]float64, len(r.lateness[n]))
		for i, t := range r.lateness[n] {
			late[i] = ms(t.lateness())
		}
		mx := 0.0
		for _, v := range late {
			if v > mx {
				mx = v
			}
		}
		fmt.Printf("  generator lateness %-10s p90 %.3f ms max %.3f ms (n=%d)\n", n, percentile(late, 0.9), mx, len(late))
	}
	type tally struct{ sent, ok, failed int }
	kinds := map[string]*tally{}
	for _, o := range r.ops {
		t := kinds[o.kind]
		if t == nil {
			t = &tally{}
			kinds[o.kind] = t
		}
		t.sent++
		if o.fail == "" {
			t.ok++
		} else {
			t.failed++
		}
	}
	for _, k := range []string{"diagnose", "batch", "ingest"} {
		if t := kinds[k]; t != nil {
			fmt.Printf("  ops %-9s sent %6d succeeded %6d failed %d\n", k, t.sent, t.ok, t.failed)
		}
	}
}
