// Command e2e is the repository's end-to-end benchmark: one rig, four
// workloads, seven end-to-end metrics and a per-layer budget taken from
// outside the program by timing calls into its public functions. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	e2e -workload stream_shared -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, metrics. The exit code is non-zero when an
// operation failed or an output did not match its reference.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// options is one run's command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// dataset != 0 replaces the fixed draw of every input generator
	// (inputs.go) by another one.
	dataset int64
	// events > 0 replaces the deadline by fixed work: that many events
	// (serving workloads) or searches (batch_paper) after the warm-up.
	// Counts then repeat exactly, which the smoke test relies on.
	events int
	outDir string
}

// draw is the generator seed of a dataset whose fixed draw is def.
func (o options) draw(def int64) int64 {
	if o.dataset != 0 {
		return o.dataset
	}
	return def
}

// result is one run's outcome.
type result struct {
	metrics  metricSet // the JSON line's metrics: end-to-end, or per-layer with -trace 1
	endToEnd metricSet // traced runs: the untraced half's end-to-end metrics, printed only
	spans    []span
	// attempted/failed count operations: ingest requests, queries, the
	// flush, and one reference comparison per subscription or search.
	attempted, failed int64
	errs              []error
}

type workload struct {
	name string
	run  func(o options) (*result, error)
}

func workloads() []workload {
	var ws []workload
	for _, spec := range servingWorkloads {
		ws = append(ws, workload{spec.name, func(o options) (*result, error) { return runServing(spec, o) }})
	}
	return append(ws, workload{"batch_paper", runBatch})
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// outputLine is the contract's last line of standard output.
type outputLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	// The sandbox has two cores; pinning keeps a run on a larger machine
	// the same shape (one closed-loop writer, one paced reader, the
	// program's own goroutines).
	runtime.GOMAXPROCS(2)
	var o options
	var trace, noise int
	var reportPath string
	flag.StringVar(&o.workload, "workload", "", "workload to run: stream_shared, stream_catalog, cluster_mixed or batch_paper")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the inputs (and of nothing else): node labels and where in the dataset the run starts")
	flag.Int64Var(&o.dataset, "dataset", 0, "generator seed of another draw of the datasets (0: the fixed ones)")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1: traced run — spans, layer replays and the per-layer metrics")
	flag.IntVar(&o.events, "events", 0, "fixed work instead of a deadline: events (searches on batch_paper) in the timed phase")
	flag.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for trace-<workload>.json")
	flag.IntVar(&noise, "noise", 0, "run every workload (or the one -workload names) N times as two interleaved sets and report set-to-set differences")
	flag.StringVar(&reportPath, "report", "", "render a saved trace-<workload>.json and exit")
	flag.Parse()
	o.trace = trace != 0

	switch {
	case reportPath != "":
		if err := report(os.Stdout, reportPath); err != nil {
			fatal(err)
		}
		return
	case noise > 0:
		if err := runNoise(os.Stdout, noise, o.seconds, o.seed, o.workload); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := findWorkload(o.workload)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", o.workload))
	}
	res, err := w.run(o)
	if err != nil {
		fatal(err)
	}
	if o.trace {
		path, err := writeTrace(o.outDir, traceFile{Workload: o.workload, Seed: o.seed, Metrics: res.metrics.list, Spans: res.spans})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s (render with -report)\n", path)
	}
	if !emit(os.Stdout, res) {
		os.Exit(1)
	}
}

// emit prints the human-readable tables and the JSON line, and reports
// whether the run was correct.
func emit(w io.Writer, res *result) bool {
	for _, e := range res.errs {
		fmt.Fprintln(os.Stderr, "failed:", e)
	}
	printMetrics(w, res.endToEnd.list)
	printMetrics(w, res.metrics.list)
	fmt.Fprintf(w, "%-40s %16d count\n%-40s %16d count\n", "ops_attempted", res.attempted, "ops_failed", res.failed)
	line := outputLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, m := range res.metrics.list {
		line.Metrics[m.Name] = metricValue{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(w, string(data))
	return line.Correct
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2e:", err)
	os.Exit(2)
}
