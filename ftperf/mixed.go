package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ftclust/internal/graph"
	"ftclust/internal/service"
)

// mixedOpen: an open loop on a seeded Poisson schedule at a fixed rate.
// Requests are family-spec /v1/solve calls: a hot set of instances that
// repeat, mixed with instances never seen before. Latency is timed from
// when each request was due, so a stall also delays the requests queued
// behind it. Hits still pay instance generation and the canonical hash,
// which run before the cache lookup.
type mixedOpen struct {
	ctx      context.Context
	sz       sizes
	seed     int64
	srv      *inproc
	hotSeeds []int64
	hotRef   [][]byte  // first response body per hot instance
	hotRatio []float64 // |S| over the certified bound, per hot instance

	keep bool
	mu   sync.Mutex
	kept []keptOutput

	replayCache [2]map[string]*service.SolutionJSON
}

func newMixed(ctx context.Context, sz sizes, seed int64) (workload, error) {
	w := &mixedOpen{ctx: ctx, sz: sz, seed: seed}
	for h := 0; h < sz.hotSet; h++ {
		w.hotSeeds = append(w.hotSeeds, mix(seed, 4, uint64(h)))
	}
	return w, nil
}

// start brings the service up and fills its cache with the hot set. The
// answers are the reference every later response for the same instance
// must match byte for byte.
func (w *mixedOpen) start() error {
	w.srv = startServer(numClients)
	w.hotRef = w.hotRef[:0]
	for h, fs := range w.hotSeeds {
		status, resp, err := w.srv.post(w.ctx, "/v1/solve", w.body(fs))
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", status, resp)
		}
		if err != nil {
			return fmt.Errorf("mixed_open warm-up of hot instance %d: %w", h, err)
		}
		w.hotRef = append(w.hotRef, resp)
	}
	return nil
}

func (w *mixedOpen) check() error {
	w.hotRatio = w.hotRatio[:0]
	for h, fs := range w.hotSeeds {
		ratio, err := w.verifyResponse(fs, w.hotRef[h])
		if err != nil {
			return fmt.Errorf("mixed_open warm-up of hot instance %d: %w", h, err)
		}
		w.hotRatio = append(w.hotRatio, ratio)
	}
	return nil
}

func (w *mixedOpen) body(familySeed int64) []byte {
	return fmt.Appendf(nil, `{"k":%d,"family":{"name":"gnp","n":%d,"degree":%g,"seed":%d}}`,
		kFold, w.sz.hotN, w.sz.degree, familySeed)
}

// request returns the family seed of request i and its hot-set index,
// -1 for an instance never seen before.
func (w *mixedOpen) request(i int64) (familySeed int64, hot int) {
	r := newRand(w.seed, 1<<32+uint64(i))
	if r.Float64() < hotShare {
		hot = r.IntN(len(w.hotSeeds))
		return w.hotSeeds[hot], hot
	}
	return mix(w.seed, 5, uint64(i)), -1
}

// verifyResponse re-verifies a served solution on the instance the
// family spec names, generated here with the same generator.
func (w *mixedOpen) verifyResponse(familySeed int64, resp []byte) (float64, error) {
	var s service.SolutionJSON
	if err := json.Unmarshal(resp, &s); err != nil {
		return 0, fmt.Errorf("decoding response: %w", err)
	}
	g, err := graph.Generate(graph.FamilyGnp, w.sz.hotN, w.sz.degree, familySeed)
	if err != nil {
		return 0, err
	}
	return checkSolution(g, kFold, &s)
}

func (w *mixedOpen) drive(d time.Duration, keep bool) *tally {
	w.keep = keep
	// Poisson arrivals: a fixed count, uniform over the window, sorted.
	r := newRand(w.seed, 6)
	due := make([]time.Duration, int(mixedRate*d.Seconds()+0.5))
	for i := range due {
		due[i] = time.Duration(r.Float64() * float64(d))
	}
	sort.Slice(due, func(a, b int) bool { return due[a] < due[b] })

	parts := make([]*tally, numClients)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := range parts {
		parts[c] = &tally{}
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(due)) {
					return
				}
				at := start.Add(due[i])
				if wait := time.Until(at); wait > 0 {
					time.Sleep(wait)
				}
				t.lag = append(t.lag, ms(time.Since(at)))
				w.op(i, at, t)
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

func (w *mixedOpen) op(i int64, due time.Time, t *tally) {
	fs, hot := w.request(i)
	t.attempted++
	status, resp, err := w.srv.post(w.ctx, "/v1/solve", w.body(fs))
	lat := time.Since(due)
	if err != nil {
		t.fail("request %d: %v", i, err)
		return
	}
	if status != http.StatusOK {
		t.fail("request %d: status %d: %.200s", i, status, resp)
		return
	}
	if hot >= 0 {
		if !bytes.Equal(resp, w.hotRef[hot]) {
			t.fail("request %d: hot instance %d answered differently from its first response", i, hot)
			return
		}
	} else {
		ratio, err := w.verifyResponse(fs, resp)
		if err != nil {
			t.fail("request %d: %v", i, err)
			return
		}
		t.sizeOverLB = append(t.sizeOverLB, ratio)
	}
	t.lat = append(t.lat, ms(lat))
	if lat <= w.sz.limit {
		t.good++
	}
	if w.keep {
		var s service.SolutionJSON
		if err := json.Unmarshal(resp, &s); err != nil {
			t.fail("request %d: decoding response: %v", i, err)
			return
		}
		w.mu.Lock()
		if len(w.kept) < w.sz.keep {
			w.kept = append(w.kept, keptOutput{idx: i, hash: membersHash(s.Members)})
		}
		w.mu.Unlock()
	}
}

func (w *mixedOpen) finish(t *tally) {
	t.sizeOverLB = append(t.sizeOverLB, w.hotRatio...)
	sortKept(w.kept)
}

func (w *mixedOpen) server() *inproc { return w.srv }
func (w *mixedOpen) replayLen() int  { return len(w.kept) }
func (w *mixedOpen) close() error    { return stopServer(&w.srv) }

func (w *mixedOpen) solveGraphs() []*graph.Graph {
	var gs []*graph.Graph
	for _, fs := range w.hotSeeds {
		if g, err := graph.Generate(graph.FamilyGnp, w.sz.hotN, w.sz.degree, fs); err == nil {
			gs = append(gs, g)
		}
	}
	return gs
}

// prepare fills both replay caches with the hot set, as the warm-up
// filled the service's cache before the measured window.
func (w *mixedOpen) prepare() error {
	for c := range w.replayCache {
		w.replayCache[c] = map[string]*service.SolutionJSON{}
		for _, fs := range w.hotSeeds {
			if _, err := w.replayOne(fs, c, nil, -1); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *mixedOpen) replay(i, c int, tr *tracer, root int32) error {
	k := w.kept[i]
	fs, _ := w.request(k.idx)
	js, err := w.replayOne(fs, c, tr, root)
	if err != nil {
		return err
	}
	if membersHash(js.Members) != k.hash {
		return fmt.Errorf("request %d: replayed members differ from the served ones", k.idx)
	}
	return nil
}

// replayOne is the service's path for one family-spec request: decode,
// generate, hash, then either the cached answer or a cold solve, and the
// response encoding.
func (w *mixedOpen) replayOne(familySeed int64, c int, tr *tracer, root int32) (*service.SolutionJSON, error) {
	body := w.body(familySeed)
	sp := tr.begin(root, "service.decode")
	var req service.SolveRequest
	err := json.Unmarshal(body, &req)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	fam := req.Family
	sp = tr.begin(root, "graph.generate")
	g, err := graph.Generate(graph.Family(fam.Name), fam.N, fam.Degree, fam.Seed)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(root, "graph.hash")
	key := g.CanonicalHash()
	tr.end(sp)
	if js, ok := w.replayCache[c][key]; ok {
		sp = tr.begin(root, "service.encode")
		_, err := json.Marshal(js)
		tr.end(sp)
		return js, err
	}
	sol, err := solveStages(tr, root, g, req.K, 1)
	if err != nil {
		return nil, err
	}
	js, err := encodeStage(tr, root, g, sol, req.K)
	if err != nil {
		return nil, err
	}
	w.replayCache[c][key] = js
	return js, nil
}
