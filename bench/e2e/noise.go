package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the noise mode and the
// smoke test read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// quartiles is Python's statistics.quantiles(xs, n=4) (the exclusive
// method), which is how the benchmark's acceptance check takes the
// spread of a metric.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	n := len(xs)
	if n < 2 {
		return xs[0], xs[0], xs[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// runNoise runs every workload 2n times — two sets of n, interleaved,
// every run on its own seed — in child processes, as the acceptance
// check runs them, and prints per metric each set's median, the
// difference between the two medians, and the spread (interquartile
// range over median) of each set and of all 2n runs. It fails when a
// difference exceeds half the metric's bound or the spread of all runs
// exceeds the bound. only, when set, names the one workload to run.
func runNoise(w io.Writer, n int, seconds float64, seed int64, only string) error {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# Noise: two interleaved sets of %d runs per workload, %gs each, seeds from %d\n\n", n, seconds, seed)
	fmt.Fprintln(w, "spread = (Q3 − Q1) / median, within a set and over all runs of both; diff = |median B − median A| / median A. A diff above half the bound fails (DIFF), and so does a spread of all runs above the bound (SPREAD).")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| workload | metric | median A | median B | diff | spread A | spread B | spread all | bound | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|---|")
	failed := 0
	var raw bytes.Buffer
	for _, wl := range bf.Workloads {
		if only != "" && wl.Name != only {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*n; i++ {
			cmd := exec.Command(self, "-workload", wl.Name, "-seed", strconv.FormatInt(seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
			var out bytes.Buffer
			cmd.Stdout = &out
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s run %d: %w", wl.Name, i, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var line outputLine
			if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
				return fmt.Errorf("%s run %d: %w", wl.Name, i, err)
			}
			for name, mv := range line.Metrics {
				sets[i%2][name] = append(sets[i%2][name], mv.Value)
			}
		}
		for _, em := range bf.EndToEnd {
			a1, a2, a3 := quartiles(sets[0][em.Name])
			b1, b2, b3 := quartiles(sets[1][em.Name])
			c1, c2, c3 := quartiles(append(append([]float64(nil), sets[0][em.Name]...), sets[1][em.Name]...))
			diff, spread := math.Abs(b2-a2)/a2, (c3-c1)/c2
			verdict := "ok"
			switch {
			case diff > em.Bound/2:
				verdict = "DIFF"
			case spread > em.Bound:
				verdict = "SPREAD"
			}
			if verdict != "ok" {
				failed++
			}
			fmt.Fprintf(w, "| %s | %s | %.5g | %.5g | %.1f%% | %.1f%% | %.1f%% | %.1f%% | %.0f%% | %s |\n",
				wl.Name, em.Name, a2, b2, 100*diff, 100*(a3-a1)/a2, 100*(b3-b1)/b2, 100*spread, 100*em.Bound, verdict)
			fmt.Fprintf(&raw, "%s %s\n  A: %.5g\n  B: %.5g\n", wl.Name, em.Name, sets[0][em.Name], sets[1][em.Name])
		}
	}
	fmt.Fprintf(w, "\n## Every run, in run order\n\n```\n%s```\n", raw.String())
	if failed > 0 {
		return fmt.Errorf("%d metric(s) differ between the two sets by more than half their bound or spread beyond it", failed)
	}
	return nil
}
