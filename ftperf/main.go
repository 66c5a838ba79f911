// Command ftperf is the ftclust benchmark: one process that drives a
// workload against the in-process /v1 service (or, for Algorithm 3, the
// library), checks every output, and prints each metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end figures of the workload,
// measured untraced. With --trace 1 the same traffic runs for half the
// window, then its inputs are replayed stage by stage through the layer
// functions, alternately untraced and traced, and the metrics are the
// per-layer figures; the spans are written at exit to
// .bench_build/ftperf-spans/<workload>-<seed>.jsonl.
//
// The process exits non-zero when any output fails its check. See
// README.md for the workloads and how to read the output.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload name: "+workloadNames())
		seed     = flag.Int64("seed", 1, "workload seed; equal seeds give equal inputs")
		seconds  = flag.Int("seconds", 20, "length of the measured window in seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replay")
	)
	flag.Parse()
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "ftperf: unknown workload %q (want one of %s)\n", *workload, workloadNames())
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "ftperf: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		spans:    filepath.Join(".bench_build", "ftperf-spans", fmt.Sprintf("%s-%d.jsonl", *workload, *seed)),
		sz:       defaultSizes(),
	}
	res, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftperf:", err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "ftperf:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printResult(w io.Writer, res *result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
