package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ftclust/internal/graph"
	"ftclust/internal/service"
)

// coldSolve: two closed-loop clients POST /v1/solve with explicit edge
// lists drawn from a small pool of gnp graphs. Every request carries a
// fresh solver seed, and the seed is part of the cache key, so every
// request is a cache miss: decode, graph.FromEdges, the canonical hash,
// core and verify do all the work.
type coldSolve struct {
	ctx    context.Context
	sz     sizes
	seed   int64
	srv    *inproc
	graphs []*graph.Graph
	tails  [][]byte // `,"graph":{...}}` per pool graph
	warm   [][]byte // responses to the warm-up requests
	next   atomic.Int64

	keep bool
	mu   sync.Mutex
	kept []keptOutput
}

func newCold(ctx context.Context, sz sizes, seed int64) (workload, error) {
	w := &coldSolve{ctx: ctx, sz: sz, seed: seed}
	r := newRand(seed, 1)
	for p := 0; p < sz.coldPool; p++ {
		edges := gnpEdges(r, sz.coldN, sz.degree)
		g, err := toGraph(sz.coldN, edges)
		if err != nil {
			return nil, err
		}
		spec, err := json.Marshal(service.GraphSpec{N: sz.coldN, Edges: edges})
		if err != nil {
			return nil, err
		}
		w.graphs = append(w.graphs, g)
		w.tails = append(w.tails, append(append([]byte(`,"graph":`), spec...), '}'))
	}
	return w, nil
}

// start brings the service up and sends one warm-up solve per client.
func (w *coldSolve) start() error {
	w.srv = startServer(numClients)
	w.warm = w.warm[:0]
	for c := 0; c < numClients; c++ {
		_, body := w.request(int64(-1 - c))
		status, resp, err := w.srv.post(w.ctx, "/v1/solve", body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", status, resp)
		}
		if err != nil {
			return fmt.Errorf("cold_solve warm-up: %w", err)
		}
		w.warm = append(w.warm, resp)
	}
	return nil
}

func (w *coldSolve) check() error {
	for c, resp := range w.warm {
		pool, _ := w.request(int64(-1 - c))
		if _, _, err := w.checkResponse(pool, resp); err != nil {
			return fmt.Errorf("cold_solve warm-up: %w", err)
		}
	}
	return nil
}

// request builds request i: pool graph i mod pool size, a seed of its own.
func (w *coldSolve) request(i int64) (pool int, body []byte) {
	pool = int(uint64(mix(w.seed, 3, uint64(i))) % uint64(len(w.graphs)))
	body = fmt.Appendf(nil, `{"k":%d,"seed":%d`, kFold, mix(w.seed, 2, uint64(i)))
	return pool, append(body, w.tails[pool]...)
}

func (w *coldSolve) op(i int64, t *tally) {
	pool, body := w.request(i)
	t.attempted++
	t0 := time.Now()
	status, resp, err := w.srv.post(w.ctx, "/v1/solve", body)
	lat := time.Since(t0)
	if err != nil {
		t.fail("solve %d: %v", i, err)
		return
	}
	if status != http.StatusOK {
		t.fail("solve %d: status %d: %.200s", i, status, resp)
		return
	}
	s, ratio, err := w.checkResponse(pool, resp)
	if err != nil {
		t.fail("solve %d: %v", i, err)
		return
	}
	t.lat = append(t.lat, ms(lat))
	t.good++
	t.sizeOverLB = append(t.sizeOverLB, ratio)
	if w.keep {
		w.mu.Lock()
		if len(w.kept) < w.sz.keep {
			w.kept = append(w.kept, keptOutput{idx: i, hash: membersHash(s.Members)})
		}
		w.mu.Unlock()
	}
}

// checkResponse decodes a solve response and re-verifies it on the pool
// graph the request posted. It returns the solution and its |S| over
// the certified bound.
func (w *coldSolve) checkResponse(pool int, resp []byte) (*service.SolutionJSON, float64, error) {
	var s service.SolutionJSON
	if err := json.Unmarshal(resp, &s); err != nil {
		return nil, 0, fmt.Errorf("decoding response: %w", err)
	}
	ratio, err := checkSolution(w.graphs[pool], kFold, &s)
	return &s, ratio, err
}

func (w *coldSolve) drive(d time.Duration, keep bool) *tally {
	w.keep = keep
	return closedLoop(numClients, d, func(t *tally) { w.op(w.next.Add(1)-1, t) })
}

func (w *coldSolve) finish(*tally) { sortKept(w.kept) }

func (w *coldSolve) server() *inproc             { return w.srv }
func (w *coldSolve) replayLen() int              { return len(w.kept) }
func (w *coldSolve) solveGraphs() []*graph.Graph { return w.graphs }
func (w *coldSolve) prepare() error              { return nil }
func (w *coldSolve) close() error                { return stopServer(&w.srv) }

func (w *coldSolve) replay(i, _ int, tr *tracer, root int32) error {
	k := w.kept[i]
	_, body := w.request(k.idx)
	sp := tr.begin(root, "service.decode")
	var req service.SolveRequest
	err := json.Unmarshal(body, &req)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin(root, "graph.from_edges")
	g, err := toGraph(req.Graph.N, req.Graph.Edges)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin(root, "graph.hash")
	g.CanonicalHash()
	tr.end(sp)
	sol, err := solveStages(tr, root, g, req.K, req.Seed)
	if err != nil {
		return err
	}
	js, err := encodeStage(tr, root, g, sol, req.K)
	if err != nil {
		return err
	}
	if membersHash(js.Members) != k.hash {
		return fmt.Errorf("request %d: replayed members differ from the served ones", k.idx)
	}
	return nil
}
