package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"ftclust"
	"ftclust/internal/geom"
	"ftclust/internal/graph"
	"ftclust/internal/udg"
	"ftclust/internal/verify"
)

// udgLibrary: one closed-loop client calls ftclust.SolveUDGKMDS
// (Algorithm 3) on fresh uniform deployments. Nothing else reaches the
// geom and udg packages, and the udg engine draws its own per-node
// random streams.
type udgLibrary struct {
	sz   sizes
	seed int64
	next int64

	warm *tally // what the warm-up call in start saw

	keep    bool
	kept    []keptOutput
	quality []udgResult // the first few results, scored against the bound in finish
}

type udgResult struct {
	size int
	g    *graph.Graph // the harness's own unit disk graph
}

// udgQualitySamples is how many results per run are scored against the
// certified lower bound, which costs an LP solve each.
const udgQualitySamples = 16

func newUDG(_ context.Context, sz sizes, seed int64) (workload, error) {
	return &udgLibrary{sz: sz, seed: seed}, nil
}

// start makes one warm-up library call.
func (w *udgLibrary) start() error {
	w.warm = &tally{}
	w.op(-1, w.warm)
	return nil
}

func (w *udgLibrary) check() error {
	w.quality = nil
	if w.warm.failed > 0 {
		return fmt.Errorf("udg_library warm-up: %s", w.warm.notes[0])
	}
	return nil
}

// deployment i: udgN points uniform in the udgSide square.
func (w *udgLibrary) deployment(i int64) ([]ftclust.Point, int64) {
	r := newRand(w.seed, 1<<48+uint64(i))
	pts := make([]ftclust.Point, w.sz.udgN)
	for j := range pts {
		pts[j] = ftclust.Point{X: r.Float64() * w.sz.udgSide, Y: r.Float64() * w.sz.udgSide}
	}
	return pts, mix(w.seed, 7, uint64(i))
}

func (w *udgLibrary) op(i int64, t *tally) {
	pts, seed := w.deployment(i)
	t.attempted++
	t0 := time.Now()
	sol, g, err := ftclust.SolveUDGKMDS(pts, kFold, ftclust.WithSeed(seed))
	lat := time.Since(t0)
	var own *graph.Graph
	if err == nil {
		own, err = checkUDG(pts, sol, g)
	}
	if err != nil {
		t.fail("deployment %d: %v", i, err)
		return
	}
	t.lat = append(t.lat, ms(lat))
	t.good++
	if len(w.quality) < udgQualitySamples {
		w.quality = append(w.quality, udgResult{size: sol.Size(), g: own})
	}
	if w.keep && len(w.kept) < w.sz.keep {
		w.kept = append(w.kept, keptOutput{idx: i, hash: membersHash(nodeIDs(sol.Members))})
	}
}

// checkUDG builds the unit disk graph of pts itself, requires the graph
// the library solved on to have exactly its adjacency, and verifies the
// solution on the harness's graph. It returns that graph.
func checkUDG(pts []ftclust.Point, sol *ftclust.Solution, g *graph.Graph) (*graph.Graph, error) {
	own, err := unitDiskGraph(pts)
	if err != nil {
		return nil, err
	}
	if g.NumNodes() != own.NumNodes() || g.NumEdges() != own.NumEdges() {
		return nil, fmt.Errorf("library graph has %d nodes and %d edges, the unit disk graph %d and %d",
			g.NumNodes(), g.NumEdges(), own.NumNodes(), own.NumEdges())
	}
	for v := 0; v < own.NumNodes(); v++ {
		if !slices.Equal(g.Neighbors(graph.NodeID(v)), own.Neighbors(graph.NodeID(v))) {
			return nil, fmt.Errorf("library graph gives node %d other neighbours than the unit disk graph", v)
		}
	}
	mask, err := maskOf(own.NumNodes(), nodeIDs(sol.Members))
	if err != nil {
		return nil, err
	}
	if !slices.Equal(mask, sol.InSet) {
		return nil, fmt.Errorf("members and membership mask disagree")
	}
	return own, verify.CheckKFold(own, mask, float64(kFold), verify.ClosedPP)
}

// unitDiskGraph joins every two points at distance at most 1, finding
// the pairs through a grid of unit cells. Coordinates are not negative.
func unitDiskGraph(pts []ftclust.Point) (*graph.Graph, error) {
	var maxX, maxY float64
	for _, p := range pts {
		maxX, maxY = math.Max(maxX, p.X), math.Max(maxY, p.Y)
	}
	cols, rows := int(maxX)+1, int(maxY)+1
	cells := make([][]int, cols*rows)
	cell := func(p ftclust.Point) (int, int) { return int(p.X), int(p.Y) }
	for i, p := range pts {
		x, y := cell(p)
		cells[y*cols+x] = append(cells[y*cols+x], i)
	}
	var edges [][2]int
	for i, p := range pts {
		cx, cy := cell(p)
		for y := max(cy-1, 0); y <= min(cy+1, rows-1); y++ {
			for x := max(cx-1, 0); x <= min(cx+1, cols-1); x++ {
				for _, j := range cells[y*cols+x] {
					dx, dy := pts[j].X-p.X, pts[j].Y-p.Y
					if j > i && dx*dx+dy*dy <= 1 {
						edges = append(edges, [2]int{i, j})
					}
				}
			}
		}
	}
	return toGraph(len(pts), edges)
}

func (w *udgLibrary) drive(d time.Duration, keep bool) *tally {
	w.keep = keep
	return closedLoop(1, d, func(t *tally) {
		w.op(w.next, t)
		w.next++
	})
}

func (w *udgLibrary) finish(t *tally) {
	for _, q := range w.quality {
		t.attempted++
		lb, err := lowerBound(q.g, kFold)
		if err != nil || !(lb > 0) {
			t.fail("certified lower bound %v: %v", lb, err)
			continue
		}
		t.sizeOverLB = append(t.sizeOverLB, float64(q.size)/lb)
	}
}

func (w *udgLibrary) server() *inproc             { return nil }
func (w *udgLibrary) replayLen() int              { return len(w.kept) }
func (w *udgLibrary) solveGraphs() []*graph.Graph { return nil }
func (w *udgLibrary) prepare() error              { return nil }
func (w *udgLibrary) close() error                { return nil }

// replay splits the library call into its layers: the unit disk graph
// build (geom) and Algorithm 3 (udg), then the feasibility check.
func (w *udgLibrary) replay(i, _ int, tr *tracer, root int32) error {
	k := w.kept[i]
	pts, seed := w.deployment(k.idx)
	sp := tr.begin(root, "geom.udg_build")
	g, idx := geom.UnitUDG(pts)
	tr.end(sp)
	sp = tr.begin(root, "udg.solve")
	res, err := udg.Solve(pts, g, idx, udg.Options{K: kFold, Seed: seed})
	tr.note(sp, int64(res.Size()))
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin(root, "verify.check")
	err = verify.CheckKFold(g, res.Leader, float64(kFold), verify.ClosedPP)
	tr.end(sp)
	if err != nil {
		return err
	}
	if membersHash(nodeIDs(verify.SetFromMask(res.Leader))) != k.hash {
		return fmt.Errorf("deployment %d: replayed leaders differ from the library's", k.idx)
	}
	return nil
}
