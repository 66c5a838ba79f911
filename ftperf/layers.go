package main

import (
	"context"
	"fmt"
	"io"
	"runtime"

	"ftclust"
	"ftclust/internal/graph"
	"ftclust/internal/stats"
)

// layers are the span-name prefixes self time is reported for. A
// workload whose path does not reach a layer reports 0 for it.
var layers = []string{"harness", "service", "graph", "core", "verify", "maintain", "geom", "udg"}

// runTraced drives the workload for half the window (untraced, keeping
// its inputs), reads the service's counters, then replays the kept
// inputs stage by stage for the other half, alternately untraced and
// traced, and reports the per-layer metrics.
func runTraced(ctx context.Context, cfg config, spec workloadSpec, res *result, out io.Writer) (*tally, error) {
	w, err := spec.inputs(ctx, cfg.sz, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	if _, err := startChecked(w); err != nil {
		return nil, err
	}
	t := w.drive(cfg.window/2, true)
	w.finish(t)
	var svc serviceFigures
	if s := w.server(); s != nil {
		if svc, err = s.scrape(ctx); err != nil {
			t.attempted++
			t.fail("scraping /metrics: %v", err)
		}
	}
	if err := w.close(); err != nil {
		t.attempted++
		t.fail("shutdown: %v", err)
	}

	tr := newTracer()
	var rep replayFigures
	t.attempted++
	if err := w.prepare(); err != nil {
		t.fail("preparing the replay: %v", err)
	} else if rep, err = replayAll(w, cfg.window/2, tr); err != nil {
		t.fail("%v", err)
	}
	allocs, bytes, err := solveAllocs(w.solveGraphs())
	if err != nil {
		t.attempted++
		t.fail("allocation count: %v", err)
	}

	m := res.Metrics
	stage := func(name, metricName string) {
		durs, _ := tr.durations(name)
		m[metricName] = metric{quantile(durs, 0.5), "ms"}
	}
	stage("service.decode", "service.decode_ms")
	stage("service.encode", "service.encode_ms")
	stage("graph.from_edges", "graph.from_edges_ms")
	stage("graph.generate", "graph.generate_ms")
	stage("graph.hash", "graph.hash_ms")
	stage("core.fractional", "core.fractional_ms")
	stage("core.rounding", "core.rounding_ms")
	stage("verify.check", "verify.check_ms")
	stage("geom.udg_build", "geom.udg_build_ms")
	stage("udg.solve", "udg.solve_ms")
	if spec.served {
		// The service solves with its own options (a scratch arena among
		// them), so its phase times are the program's figures; the
		// replay's go to the log beside them.
		for _, ph := range []struct{ phase, span, metric string }{
			{"fractional", "core.fractional", "core.fractional_ms"},
			{"rounding", "core.rounding", "core.rounding_ms"},
			{"verify", "verify.check", "verify.check_ms"},
		} {
			durs, _ := tr.durations(ph.span)
			fmt.Fprintf(out, "%s: served mean %.4g ms over %d solves, replayed median %.4g ms over %d\n",
				ph.span, svc.phaseMeanMs[ph.phase], svc.solves, quantile(durs, 0.5), len(durs))
			m[ph.metric] = metric{svc.phaseMeanMs[ph.phase], "ms"}
		}
	}

	_, lp := tr.durations("core.fractional")
	m["core.lp_rounds"] = metric{quantile(lp, 0.5), "count"}
	m["core.allocs_per_solve"] = metric{allocs, "count"}
	m["core.bytes_per_solve"] = metric{bytes, "bytes"}

	applyMs, touched := tr.durations("maintain.apply")
	m["maintain.apply_us"] = metric{1000 * quantile(applyMs, 0.5), "us"}
	m["maintain.touched_per_batch"] = metric{mean(touched), "count"}
	fallbacks, _ := tr.durations("maintain.fallback")
	m["maintain.fallbacks"] = metric{float64(len(fallbacks)), "count"}
	_, leaders := tr.durations("udg.solve")
	m["udg.leaders"] = metric{mean(leaders), "count"}

	m["service.queue_wait_p99_ms"] = metric{svc.queueWaitP99ms, "ms"}
	m["service.cache_hit_ratio"] = metric{svc.cacheHitRatio, "ratio"}
	m["service.coalesced"] = metric{svc.coalesced, "count"}
	m["service.shed"] = metric{svc.shed, "count"}
	// Glue is the request's time outside the layers: the mean HTTP
	// latency minus the service's own queue wait and solver job means
	// and the replayed means of the stages the handler runs around the
	// job. Means add up; medians do not. It is defined on cold_solve,
	// where every request runs the same stages.
	glue := 0.0
	if _, ok := w.(*coldSolve); ok && len(t.lat) > 0 {
		glue = mean(t.lat) - svc.queueWaitMeanMs - svc.solveMeanMs
		fmt.Fprintf(out, "glue: HTTP mean %.4g ms (handler %.4g ms) - queue wait %.4g - solver job %.4g",
			mean(t.lat), svc.handlerMeanMs, svc.queueWaitMeanMs, svc.solveMeanMs)
		for _, name := range []string{"service.decode", "graph.from_edges", "graph.hash", "service.marshal"} {
			durs, _ := tr.durations(name)
			glue -= mean(durs)
			fmt.Fprintf(out, " - %s %.4g", name, mean(durs))
		}
		fmt.Fprintf(out, " = %.4g ms\n", glue)
	}
	m["service.glue_ms"] = metric{glue, "ms"}

	m["harness.gen_lag_p99_ms"] = metric{quantile(t.lag, 0.99), "ms"}
	overhead := 0.0
	if rep.sumU > 0 {
		overhead = 100 * (rep.sumT.Seconds() - rep.sumU.Seconds()) / rep.sumU.Seconds()
	}
	m["harness.trace_overhead_pct"] = metric{overhead, "%"}
	self := tr.selfPerRoot()
	for _, l := range layers {
		m["self."+l+"_ms"] = metric{self[l], "ms"}
	}

	fmt.Fprintf(out, "driven %d operations in %.3gs; replayed %d inputs (untraced %.4gs, traced %.4gs); %d spans; queue waits %d\n",
		len(t.lat), t.elapsed.Seconds(), rep.ops, rep.sumU.Seconds(), rep.sumT.Seconds(), len(tr.spans), svc.queueWaits)
	if err := tr.write(cfg.spans); err != nil {
		t.attempted++
		t.fail("writing spans: %v", err)
	} else {
		fmt.Fprintf(out, "spans written to %s\n", cfg.spans)
	}
	return t, nil
}

// solveAllocs returns the mean heap allocations and bytes of one
// ftclust.SolveKMDS call over gs, from MemStats deltas.
func solveAllocs(gs []*graph.Graph) (allocs, bytes float64, err error) {
	if len(gs) == 0 {
		return 0, 0, nil
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, g := range gs {
		if _, err := ftclust.SolveKMDS(g, kFold, ftclust.WithSeed(int64(i+1))); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(len(gs))
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Mean(xs)
}
