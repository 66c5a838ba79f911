package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"ftclust/internal/service"
)

func tinySizes() sizes {
	return sizes{
		degree: 6,
		coldN:  120, coldPool: 2,
		hotN: 120, hotSet: 4, limit: time.Second,
		churnN: 300, batchOps: 8,
		udgN: 150, udgSide: 5,
		setupReps: 2,
		keep:      300,
	}
}

// benchmarkMetrics returns the metric names BENCHMARK.json promises for
// each mode.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

// socketFDs counts this process's open sockets, listeners included.
func socketFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd:", err)
	}
	n := 0
	for _, e := range ents {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && strings.HasPrefix(target, "socket:") {
			n++
		}
	}
	return n
}

// childProcesses lists the children of every thread of this process.
func childProcesses(t *testing.T) string {
	t.Helper()
	tasks, err := filepath.Glob("/proc/self/task/*/children")
	if err != nil || len(tasks) == 0 {
		t.Skip("no /proc/self/task/*/children")
	}
	var kids []string
	for _, f := range tasks {
		if b, err := os.ReadFile(f); err == nil && len(bytes.TrimSpace(b)) > 0 {
			kids = append(kids, string(bytes.TrimSpace(b)))
		}
	}
	return strings.Join(kids, " ")
}

func TestWorkloadsCheckAndLeaveNothingRunning(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	names := strings.Split(workloadNames(), ", ")
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			mode := "trace0"
			want := endToEnd
			if traced {
				mode, want = "trace1", perLayer
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				goroutines, sockets := runtime.NumGoroutine(), socketFDs(t)
				cfg := config{
					workload: name,
					seed:     3,
					window:   600 * time.Millisecond,
					traced:   traced,
					spans:    filepath.Join(t.TempDir(), "spans.jsonl"),
					sz:       tinySizes(),
				}
				var out bytes.Buffer
				res, err := run(context.Background(), cfg, &out)
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				var got []string
				for m, v := range res.Metrics {
					got = append(got, m)
					if v.Unit == "" {
						t.Errorf("metric %s has no unit", m)
					}
				}
				sort.Strings(got)
				if strings.Join(got, " ") != strings.Join(want, " ") {
					t.Errorf("metrics\n got %v\nwant %v", got, want)
				}
				if !goroutinesBackTo(goroutines, 5*time.Second) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines after the run, %d before:\n%s",
						runtime.NumGoroutine(), goroutines, buf[:runtime.Stack(buf, true)])
				}
				if n := socketFDs(t); n > sockets {
					t.Errorf("%d sockets open after the run, %d before", n, sockets)
				}
				if kids := childProcesses(t); kids != "" {
					t.Errorf("child processes left: %s", kids)
				}
				if traced {
					if _, err := os.Stat(cfg.spans); err != nil {
						t.Errorf("spans not written: %v", err)
					}
				}
			})
		}
	}
}

func TestCheckSolutionRejectsBadAnswers(t *testing.T) {
	// A path 0-1-2-3: {1, 2} 1-covers every node, but not 2-fold.
	g, err := toGraph(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	good := service.SolutionJSON{N: 4, Edges: 3, Size: 4, Members: []int{0, 1, 2, 3}, CertifiedLowerBound: 2, Verified: true}
	if _, err := checkSolution(g, 2, &good); err != nil {
		t.Fatalf("a valid 2-fold cover was rejected: %v", err)
	}
	for name, mutate := range map[string]func(s *service.SolutionJSON){
		"not verified":    func(s *service.SolutionJSON) { s.Verified = false },
		"not a cover":     func(s *service.SolutionJSON) { s.Members, s.Size = []int{1, 2}, 2 },
		"size mismatch":   func(s *service.SolutionJSON) { s.Size = 3 },
		"wrong graph":     func(s *service.SolutionJSON) { s.Edges = 4 },
		"repeated id":     func(s *service.SolutionJSON) { s.Members = []int{0, 1, 1, 3} },
		"id out of range": func(s *service.SolutionJSON) { s.Members = []int{0, 1, 2, 4} },
		"no lower bound":  func(s *service.SolutionJSON) { s.CertifiedLowerBound = 0 },
	} {
		s := good
		s.Members = append([]int(nil), good.Members...)
		mutate(&s)
		if _, err := checkSolution(g, 2, &s); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
