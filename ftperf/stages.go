package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sort"

	"ftclust"
	"ftclust/internal/core"
	"ftclust/internal/graph"
	"ftclust/internal/service"
	"ftclust/internal/verify"
)

// The harness makes its inputs with its own generators, never with the
// program's, so a change to the program's random streams or graph
// generators cannot change what the benchmark sends.

// newRand returns the harness generator for stream of seed.
func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// mix derives a positive per-input seed from the workload seed.
func mix(seed int64, a, b uint64) int64 {
	x := uint64(seed) ^ a*0x9e3779b97f4a7c15 ^ b*0xbf58476d1ce4e5b9
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x>>24) + 1
}

// gnpEdges draws G(n, p) with p = d/(n-1) by geometric skipping over the
// pairs (v, w), w < v.
func gnpEdges(r *rand.Rand, n int, d float64) [][2]int {
	p := d / float64(n-1)
	lq := math.Log1p(-p)
	edges := make([][2]int, 0, int(float64(n)*d/2*1.1))
	v, w := 1, -1
	for v < n {
		w += 1 + int(math.Log1p(-r.Float64())/lq)
		for w >= v && v < n {
			w -= v
			v++
		}
		if v < n {
			edges = append(edges, [2]int{w, v})
		}
	}
	return edges
}

func toGraph(n int, edges [][2]int) (*graph.Graph, error) {
	es := make([]graph.Edge, len(edges))
	for i, e := range edges {
		es[i] = graph.Edge{U: graph.NodeID(e[0]), V: graph.NodeID(e[1])}
	}
	return graph.FromEdges(n, es)
}

// maskOf turns a member list into a membership mask, rejecting ids out
// of range and repeats.
func maskOf(n int, members []int) ([]bool, error) {
	mask := make([]bool, n)
	for _, v := range members {
		if v < 0 || v >= n || mask[v] {
			return nil, fmt.Errorf("member %d out of range or repeated", v)
		}
		mask[v] = true
	}
	return mask, nil
}

// checkSolution re-verifies a served solution on the graph the harness
// knows: it must be marked verified, be a k-fold cover under the closed
// convention and carry a positive certified lower bound. It returns
// |S| over that bound.
func checkSolution(g *graph.Graph, k int, s *service.SolutionJSON) (float64, error) {
	if !s.Verified {
		return 0, fmt.Errorf("response not marked verified")
	}
	if s.N != g.NumNodes() || s.Edges != g.NumEdges() || s.Size != len(s.Members) {
		return 0, fmt.Errorf("response shape n=%d edges=%d size=%d members=%d, posted n=%d edges=%d",
			s.N, s.Edges, s.Size, len(s.Members), g.NumNodes(), g.NumEdges())
	}
	mask, err := maskOf(g.NumNodes(), s.Members)
	if err != nil {
		return 0, err
	}
	if err := verify.CheckKFold(g, mask, float64(k), verify.ClosedPP); err != nil {
		return 0, err
	}
	if !(s.CertifiedLowerBound > 0) {
		return 0, fmt.Errorf("certified lower bound %v", s.CertifiedLowerBound)
	}
	return float64(s.Size) / s.CertifiedLowerBound, nil
}

// keptOutput is one driven input kept for replay: its index and the hash
// of the members served for it.
type keptOutput struct {
	idx  int64
	hash uint64
}

// sortKept orders kept inputs by index; concurrent clients finish them
// out of order.
func sortKept(k []keptOutput) {
	sort.Slice(k, func(a, b int) bool { return k[a].idx < k[b].idx })
}

func membersHash(members []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range members {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

func nodeIDs(ids []graph.NodeID) []int {
	out := make([]int, len(ids))
	for i, v := range ids {
		out[i] = int(v)
	}
	return out
}

// solveStages is the general-graph pipeline the service runs for a cold
// solve, one layer call at a time: Algorithm 1, Algorithm 2, the
// feasibility check. The solution is the one ftclust.SolveKMDS returns
// for the same instance and seed.
func solveStages(tr *tracer, parent int32, g *graph.Graph, k int, seed int64) (*ftclust.Solution, error) {
	sp := tr.begin(parent, "core.fractional")
	kEff := core.EffectiveDemands(g, float64(k))
	frac, err := core.SolveFractional(g, kEff, core.FractionalOptions{T: 3})
	tr.note(sp, int64(frac.LoopRounds))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(parent, "core.rounding")
	rr, err := core.RoundSolution(g, kEff, frac.X, frac.Delta, core.RoundingOptions{Seed: seed})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(parent, "verify.check")
	err = verify.CheckKFoldVector(g, rr.InSet, kEff, verify.ClosedPP)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &ftclust.Solution{
		//ftlint:allow scratchalias the stages run without a scratch arena, so nothing reuses InSet
		InSet:               rr.InSet,
		Members:             verify.SetFromMask(rr.InSet),
		Rounds:              frac.LoopRounds + 4,
		FractionalObjective: frac.Objective(),
		CertifiedLowerBound: frac.DualObjective(kEff) / frac.Kappa,
		Kappa:               frac.Kappa,
		Algorithm:           "general-graph (Alg 1+2)",
	}, nil
}

// encodeStage is the service's response encoding: the wire form (which
// verifies the solution a second time) and its JSON.
// The marshal is a span of its own: the service runs NewSolutionJSON
// inside the solver job and marshals in the handler.
func encodeStage(tr *tracer, parent int32, g *graph.Graph, sol *ftclust.Solution, k int) (*service.SolutionJSON, error) {
	sp := tr.begin(parent, "service.encode")
	defer tr.end(sp)
	js := service.NewSolutionJSON(g, sol, k)
	m := tr.begin(sp, "service.marshal")
	_, err := json.Marshal(js)
	tr.end(m)
	return js, err
}

// lowerBound is the paper's certified lower bound on the optimum for g:
// Algorithm 1's dual objective over its infeasibility factor.
func lowerBound(g *graph.Graph, k int) (float64, error) {
	kEff := core.EffectiveDemands(g, float64(k))
	frac, err := core.SolveFractional(g, kEff, core.FractionalOptions{T: 3})
	if err != nil {
		return 0, err
	}
	return frac.DualObjective(kEff) / frac.Kappa, nil
}
