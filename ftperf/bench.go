package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"ftclust/internal/graph"
	"ftclust/internal/stats"
)

// Fixed parts of the workload definitions.
const (
	numClients = 2    // cold_solve clients and mixed_open senders, one connection each
	kFold      = 2    // fault tolerance of every solve
	hotShare   = 0.75 // mixed_open: share of requests drawn from the hot set
	mixedRate  = 100  // mixed_open: offered load in requests per second
)

// sizes fixes the input sizes that are part of each workload's
// definition. Tests shrink them; the benchmark always runs the defaults.
type sizes struct {
	degree float64 // average degree of every gnp instance

	coldN, coldPool int // cold_solve: gnp size and number of distinct graphs posted

	hotN   int           // mixed_open: gnp size of every family-spec request
	hotSet int           // mixed_open: distinct instances that repeat
	limit  time.Duration // mixed_open: latency limit goodput counts against

	churnN   int // churn_session: gnp size of the session
	batchOps int // churn_session: ops per delta batch

	udgN    int     // udg_library: deployment size
	udgSide float64 // udg_library: side of the deployment square (unit radio range)

	setupReps int // set-ups per --trace 0 run; setup_s is their median
	keep      int // most inputs a traced run keeps for replay
}

func defaultSizes() sizes {
	return sizes{
		degree: 8,
		coldN:  1000, coldPool: 8,
		hotN: 1000, hotSet: 16, limit: 50 * time.Millisecond,
		churnN: 5000, batchOps: 32,
		udgN: 2000, udgSide: 20,
		setupReps: 5,
		keep:      20000,
	}
}

type config struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	spans    string // where a traced run writes its spans
	sz       sizes
}

// workload is one traffic mix: its inputs, the clients that send them
// and the checks on what comes back.
type workload interface {
	// start is the timed part of set-up: it starts the service and sends
	// the requests that set-up needs (warm-up, hot set, session creation),
	// keeping their responses. The harness's own inputs are built before,
	// untimed.
	start() error
	// check verifies the responses start kept, untimed.
	check() error
	// drive sends the measured traffic for d and returns what the
	// clients saw. With keep, the inputs (and the outputs the replay
	// compares against) are retained for replay.
	drive(d time.Duration, keep bool) *tally
	// finish runs the end-of-run checks while the server is still up.
	finish(t *tally)
	// server is the in-process service, nil for library workloads.
	server() *inproc
	// replayLen is the number of inputs kept for replay.
	replayLen() int
	// replay runs kept input i stage by stage on state copy c (0 for the
	// untraced pass, 1 for the traced one), recording spans under root
	// when tr is non-nil. It fails when the result differs from what the
	// service or the library returned for the same input.
	replay(i, c int, tr *tracer, root int32) error
	// prepare builds the replay's starting state, untimed, as set-up built
	// the service's.
	prepare() error
	// solveGraphs returns instances for counting the allocations of
	// ftclust.SolveKMDS, nil when the workload does not reach core.
	solveGraphs() []*graph.Graph
	// close stops the server start started, if any. It may run after a
	// failed start, and twice.
	close() error
}

type workloadSpec struct {
	// served is set when the workload's solves run in the service, so
	// the core and verify phase times come from its /metrics.
	served bool
	// inputs builds the workload's inputs, untimed.
	inputs func(ctx context.Context, sz sizes, seed int64) (workload, error)
}

var workloads = map[string]workloadSpec{
	"cold_solve":    {served: true, inputs: newCold},
	"mixed_open":    {served: true, inputs: newMixed},
	"churn_session": {inputs: newChurn},
	"udg_library":   {inputs: newUDG},
}

// tailQ is the percentile reported as tail_ms, the highest that holds
// still from run to run. In mixed_open a few percent of requests wait
// behind a miss, and in churn_session a few percent overlap a garbage
// collection, so p99 sits on the edge of that mode; udg_library
// completes too few solves for p99; in cold_solve p99 doubled in two
// runs of ten while p50 held. p90 lies inside the main mode on all four.
const tailQ = 0.90

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// tally is what one run's clients saw.
type tally struct {
	lat        []float64 // latency of each completed operation, ms
	lag        []float64 // open loop: send time minus due time, ms
	attempted  int64
	failed     int64
	good       int64 // completed operations that count toward ops_per_s
	elapsed    time.Duration
	sizeOverLB []float64
	notes      []string
}

// fail counts one failed operation and keeps the first few reasons.
func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.notes) < 5 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o *tally) {
	t.lat = append(t.lat, o.lat...)
	t.lag = append(t.lag, o.lag...)
	t.attempted += o.attempted
	t.failed += o.failed
	t.good += o.good
	t.sizeOverLB = append(t.sizeOverLB, o.sizeOverLB...)
	for _, n := range o.notes {
		if len(t.notes) < 5 {
			t.notes = append(t.notes, n)
		}
	}
}

// closedLoop runs clients goroutines that each repeat op until d has
// passed, waits for all of them and merges their tallies.
func closedLoop(clients int, d time.Duration, op func(t *tally)) *tally {
	parts := make([]*tally, clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range parts {
		parts[c] = &tally{}
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				op(t)
			}
		}(parts[c])
	}
	wg.Wait()
	total := &tally{elapsed: time.Since(start)}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

func run(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	baseline := runtime.NumGoroutine()
	spec := workloads[cfg.workload]
	printHeader(out, cfg)
	res := &result{Metrics: map[string]metric{}}
	runMode := runUntraced
	if cfg.traced {
		runMode = runTraced
	}
	t, err := runMode(ctx, cfg, spec, res, out)
	if err != nil {
		return nil, err
	}
	if !goroutinesBackTo(baseline, 5*time.Second) {
		t.attempted++
		t.fail("%d goroutines still running after shutdown, %d at start", runtime.NumGoroutine(), baseline)
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Correct = t.failed == 0 && t.attempted > 0
	fmt.Fprintf(out, "attempted %d failed %d failed_ratio %.6g\n", t.attempted, t.failed, float64(t.failed)/math.Max(1, float64(t.attempted)))
	for _, n := range t.notes {
		fmt.Fprintln(out, "FAILED:", n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return res, nil
}

// startChecked runs the timed part of set-up and checks its responses.
// It returns the time start took.
func startChecked(w workload) (time.Duration, error) {
	t0 := time.Now()
	err := w.start()
	d := time.Since(t0)
	if err == nil {
		err = w.check()
	}
	if err != nil {
		w.close()
		return d, fmt.Errorf("set-up: %w", err)
	}
	return d, nil
}

// runUntraced builds the inputs, sets the service up setupReps times,
// keeps the last set-up, drives it for the whole window and reports the
// end-to-end metrics.
func runUntraced(ctx context.Context, cfg config, spec workloadSpec, res *result, out io.Writer) (*tally, error) {
	w, err := spec.inputs(ctx, cfg.sz, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	var setups []float64
	for r := 0; r < cfg.sz.setupReps; r++ {
		d, err := startChecked(w)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if r < cfg.sz.setupReps-1 {
			if err := w.close(); err != nil {
				return nil, fmt.Errorf("closing set-up %d: %w", r, err)
			}
		}
	}
	t := w.drive(cfg.window, false)
	w.finish(t)
	if err := w.close(); err != nil {
		t.attempted++
		t.fail("shutdown: %v", err)
	}
	if len(t.lat) == 0 {
		t.attempted++
		t.fail("no operation completed")
		return t, nil
	}
	n := len(t.lat)
	res.Metrics["p50_ms"] = metric{quantile(t.lat, 0.5), "ms"}
	res.Metrics["tail_ms"] = metric{quantile(t.lat, tailQ), "ms"}
	res.Metrics["ops_per_s"] = metric{float64(t.good) / t.elapsed.Seconds(), "1/s"}
	res.Metrics["size_over_lb"] = metric{mean(t.sizeOverLB), "ratio"}
	res.Metrics["setup_s"] = metric{quantile(setups, 0.5), "s"}
	fmt.Fprintf(out, "samples: latency %d (tail_ms is p%g, %d beyond), quality %d, set-ups %d\n",
		n, 100*tailQ, int(float64(n)*(1-tailQ)), len(t.sizeOverLB), len(setups))
	if len(t.lag) > 0 {
		fmt.Fprintf(out, "generator lag p99 %.4g ms over %d sends\n", quantile(t.lag, 0.99), len(t.lag))
	}
	return t, nil
}

// goroutinesBackTo waits until no more than baseline goroutines run.
func goroutinesBackTo(baseline int, limit time.Duration) bool {
	deadline := time.Now().Add(limit)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
	return true
}

// quantile is stats.Quantile with 0 for an empty sample, so a metric is
// always a number.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, q)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// printHeader records what the numbers were measured on.
func printHeader(out io.Writer, cfg config) {
	fmt.Fprintf(out, "ftperf workload=%s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.window.Seconds(), cfg.traced)
	fmt.Fprintf(out, "go=%s gomaxprocs=%d num_cpu=%d cpu=%q gnp_generator=%s rev=%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), graph.GnpGenerator, sourceRev())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// sourceRev is the VCS revision stamped into the binary, when it was
// built inside a git checkout.
func sourceRev() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}
