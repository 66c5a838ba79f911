package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"time"

	"ftclust/internal/graph"
	"ftclust/internal/maintain"
	"ftclust/internal/service"
	"ftclust/internal/verify"
)

// churnSession: one closed-loop client owns a /v1/session on a gnp
// graph and sends /delta batches of valid fail, revive, add_edge and
// del_edge ops. This is the write path: the session store, the churn
// engine and its drift fallback. It reaches core only when a fallback
// re-solves. A delta costs the service microseconds, so its latency is
// mostly loopback hand-offs; with two clients on two CPUs a run settled
// at one of two latency levels, so the benchmark runs one client.
//
// The harness keeps its own model of the session's live topology, from
// which every batch is drawn and against which the final member set is
// verified.
type churnSession struct {
	ctx  context.Context
	sz   sizes
	srv  *inproc
	n    int
	base *graph.Graph // the posted graph
	body []byte       // the session-create request
	r    *rand.Rand

	edges   []edgeKey
	pos     map[edgeKey]int
	flipped []edgeKey // edges changed since the base or the last fallback
	fpos    map[edgeKey]int
	dead    []bool
	deadIDs []int
	dpos    []int

	created []byte // the session-create response
	id      string
	mask    []bool // members as tracked from the streamed patches
	size    int
	epoch   int64
	members uint64 // hash of the members the session started with
	broken  bool

	// Quality is |S| averaged over every batch, over the certified lower
	// bound of the starting graph: the final set alone would swing with
	// how long ago the last drift fallback re-solved.
	lb      float64
	sizeSum float64

	keep bool
	kept []keptBatch

	engines [2]*maintain.Engine
}

// undoShare is the chance that an edge op reverts an edge change made
// since the last drift fallback instead of making a new one. Drift then
// grows by about 0.08 per edge op and levels off as more deletions hit
// added edges; with 32-op batches the engine's fallback fires every
// ten thousand batches or so, a few times a run.
const undoShare = 0.46

// maxDeadShare bounds the share of dead nodes; past it every liveness op
// is a revival.
const maxDeadShare = 0.05

type edgeKey [2]int32

func keyOf(u, v int) edgeKey {
	if u > v {
		u, v = v, u
	}
	return edgeKey{int32(u), int32(v)}
}

type keptBatch struct {
	body     []byte
	entered  uint64 // hash of the served patch
	left     uint64
	fallback bool
}

// newChurn draws the session's graph, its model and its certified lower
// bound.
func newChurn(ctx context.Context, sz sizes, seed int64) (workload, error) {
	n := sz.churnN
	r := newRand(seed, 1<<40)
	base := gnpEdges(r, n, sz.degree)
	w := &churnSession{
		ctx:  ctx,
		sz:   sz,
		n:    n,
		r:    r,
		pos:  map[edgeKey]int{},
		fpos: map[edgeKey]int{},
		dead: make([]bool, n),
		dpos: make([]int, n),
	}
	for _, e := range base {
		k := keyOf(e[0], e[1])
		w.pos[k] = len(w.edges)
		w.edges = append(w.edges, k)
	}
	var err error
	if w.base, err = toGraph(n, base); err != nil {
		return nil, err
	}
	if w.body, err = json.Marshal(service.SolveRequest{Graph: &service.GraphSpec{N: n, Edges: base}, K: kFold}); err != nil {
		return nil, err
	}
	if w.lb, err = lowerBound(w.base, kFold); err != nil {
		return nil, err
	}
	return w, nil
}

// start brings the service up and creates the session.
func (w *churnSession) start() error {
	w.srv = startServer(1)
	status, resp, err := w.srv.post(w.ctx, "/v1/session", w.body)
	if err == nil && status != http.StatusCreated {
		err = fmt.Errorf("status %d: %.200s", status, resp)
	}
	if err != nil {
		return fmt.Errorf("churn_session: creating the session: %w", err)
	}
	w.created = resp
	return nil
}

// check verifies the session's starting solution on the posted graph
// and makes it the tracked member set.
func (w *churnSession) check() error {
	var cr service.SessionCreateResponse
	if err := json.Unmarshal(w.created, &cr); err != nil {
		return fmt.Errorf("churn_session: decoding the created session: %w", err)
	}
	if cr.Solution == nil {
		return fmt.Errorf("churn_session: session %q came without a solution", cr.SessionID)
	}
	if _, err := checkSolution(w.base, kFold, cr.Solution); err != nil {
		return fmt.Errorf("churn_session: created session: %w", err)
	}
	w.id = cr.SessionID
	w.mask, _ = maskOf(w.n, cr.Solution.Members)
	w.size = len(cr.Solution.Members)
	w.members = membersHash(cr.Solution.Members)
	return nil
}

func (w *churnSession) setDead(v int, dead bool) {
	w.dead[v] = dead
	if dead {
		w.dpos[v] = len(w.deadIDs)
		w.deadIDs = append(w.deadIDs, v)
		return
	}
	last := w.deadIDs[len(w.deadIDs)-1]
	w.deadIDs[w.dpos[v]] = last
	w.dpos[last] = w.dpos[v]
	w.deadIDs = w.deadIDs[:len(w.deadIDs)-1]
}

// removeKey deletes k from a slice-plus-index set in O(1).
func removeKey(s []edgeKey, pos map[edgeKey]int, k edgeKey) []edgeKey {
	i := pos[k]
	last := s[len(s)-1]
	s[i] = last
	pos[last] = i
	delete(pos, k)
	return s[:len(s)-1]
}

func (w *churnSession) toggle(k edgeKey) service.DeltaOp {
	u, v := int(k[0]), int(k[1])
	op := service.DeltaOp{Op: "add_edge", U: &u, V: &v}
	if _, ok := w.pos[k]; ok {
		w.edges = removeKey(w.edges, w.pos, k)
		op.Op = "del_edge"
	} else {
		w.pos[k] = len(w.edges)
		w.edges = append(w.edges, k)
	}
	if _, ok := w.fpos[k]; ok {
		w.flipped = removeKey(w.flipped, w.fpos, k)
	} else {
		w.fpos[k] = len(w.flipped)
		w.flipped = append(w.flipped, k)
	}
	return op
}

// nextBatch draws ops valid against the model, applying each to it so
// later ops in the batch see the earlier ones, as the engine does.
func (w *churnSession) nextBatch(ops int) []service.DeltaOp {
	batch := make([]service.DeltaOp, 0, ops)
	maxDead := int(maxDeadShare * float64(w.n))
	for len(batch) < ops {
		if w.r.IntN(2) == 0 {
			if len(w.deadIDs) > 0 && (len(w.deadIDs) >= maxDead || w.r.IntN(2) == 0) {
				v := w.deadIDs[w.r.IntN(len(w.deadIDs))]
				w.setDead(v, false)
				batch = append(batch, service.DeltaOp{Op: "revive", Nodes: []int{v}})
				continue
			}
			v := w.r.IntN(w.n)
			for w.dead[v] {
				v = w.r.IntN(w.n)
			}
			w.setDead(v, true)
			batch = append(batch, service.DeltaOp{Op: "fail", Nodes: []int{v}})
			continue
		}
		switch {
		case len(w.flipped) > 0 && w.r.Float64() < undoShare:
			batch = append(batch, w.toggle(w.flipped[w.r.IntN(len(w.flipped))]))
		case w.r.IntN(2) == 0:
			batch = append(batch, w.toggle(w.edges[w.r.IntN(len(w.edges))]))
		default:
			for {
				u, v := w.r.IntN(w.n), w.r.IntN(w.n)
				if _, ok := w.pos[keyOf(u, v)]; u != v && !ok {
					batch = append(batch, w.toggle(keyOf(u, v)))
					break
				}
			}
		}
	}
	return batch
}

func (w *churnSession) op(t *tally) {
	if w.broken {
		// The model no longer matches the session; the failure is counted.
		time.Sleep(10 * time.Millisecond)
		return
	}
	t.attempted++
	body, err := json.Marshal(service.DeltaRequest{Ops: w.nextBatch(w.sz.batchOps)})
	if err != nil {
		w.broken = true
		t.fail("encoding batch: %v", err)
		return
	}
	t0 := time.Now()
	status, resp, err := w.srv.post(w.ctx, "/v1/session/"+w.id+"/delta", body)
	lat := time.Since(t0)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %.200s", status, resp)
	}
	var dr service.DeltaResponse
	if err == nil {
		err = json.Unmarshal(resp, &dr)
	}
	if err == nil {
		err = w.applyPatch(&dr)
	}
	if err != nil {
		w.broken = true
		t.fail("session %s batch %d: %v", w.id, w.epoch+1, err)
		return
	}
	t.lat = append(t.lat, ms(lat))
	t.good++
	if dr.Fallback {
		// The engine adopted the current topology as its new base.
		w.flipped, w.fpos = w.flipped[:0], map[edgeKey]int{}
	}
	if w.keep && len(w.kept) < w.sz.keep {
		w.kept = append(w.kept, keptBatch{
			body:     body,
			entered:  membersHash(dr.Patch.Entered),
			left:     membersHash(dr.Patch.Left),
			fallback: dr.Fallback,
		})
	}
}

// applyPatch checks one delta response against the model and folds its
// patch into the tracked member set.
func (w *churnSession) applyPatch(dr *service.DeltaResponse) error {
	if !dr.Feasible {
		return fmt.Errorf("response not feasible")
	}
	if dr.Epoch != w.epoch+1 {
		return fmt.Errorf("epoch %d, want %d", dr.Epoch, w.epoch+1)
	}
	for _, v := range dr.Patch.Left {
		if v < 0 || v >= w.n || !w.mask[v] {
			return fmt.Errorf("node %d left the set without being in it", v)
		}
		w.mask[v] = false
		w.size--
	}
	for _, v := range dr.Patch.Entered {
		if v < 0 || v >= w.n || w.mask[v] || w.dead[v] {
			return fmt.Errorf("node %d entered the set while in it or dead", v)
		}
		w.mask[v] = true
		w.size++
	}
	if dr.Size != w.size {
		return fmt.Errorf("size %d, tracked %d", dr.Size, w.size)
	}
	w.epoch++
	w.sizeSum += float64(w.size)
	return nil
}

func (w *churnSession) drive(d time.Duration, keep bool) *tally {
	w.keep = keep
	return closedLoop(1, d, w.op)
}

// finish checks the session's final state against the model: the
// reported size, epoch and liveness, and that the tracked member set is
// a k-fold cover of the live topology.
func (w *churnSession) finish(t *tally) {
	t.attempted++
	if err := w.checkFinal(); err != nil {
		t.fail("session %s final state: %v", w.id, err)
		return
	}
	if w.epoch > 0 {
		t.sizeOverLB = append(t.sizeOverLB, w.sizeSum/float64(w.epoch)/w.lb)
	}
}

func (w *churnSession) checkFinal() error {
	status, resp, err := w.srv.do(w.ctx, http.MethodGet, "/v1/session/"+w.id, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, resp)
	}
	var st service.SessionState
	if err := json.Unmarshal(resp, &st); err != nil {
		return err
	}
	if st.Size != w.size || st.Epoch != w.epoch || st.DeadNodes != len(w.deadIDs) || !st.Feasible {
		return fmt.Errorf("state size=%d epoch=%d dead=%d feasible=%v, tracked size=%d epoch=%d dead=%d",
			st.Size, st.Epoch, st.DeadNodes, st.Feasible, w.size, w.epoch, len(w.deadIDs))
	}
	edges := make([]graph.Edge, len(w.edges))
	for i, k := range w.edges {
		edges[i] = graph.Edge{U: graph.NodeID(k[0]), V: graph.NodeID(k[1])}
	}
	g, err := graph.FromEdges(w.n, edges)
	if err != nil {
		return err
	}
	live := make([]graph.NodeID, 0, w.n)
	for v := 0; v < w.n; v++ {
		if !w.dead[v] {
			live = append(live, graph.NodeID(v))
		} else if w.mask[v] {
			return fmt.Errorf("dead node %d is a member", v)
		}
	}
	sub, ids := g.Subgraph(live)
	mask := make([]bool, sub.NumNodes())
	for i, v := range ids {
		mask[i] = w.mask[v]
	}
	return verify.CheckKFold(sub, mask, float64(kFold), verify.ClosedPP)
}

func (w *churnSession) server() *inproc             { return w.srv }
func (w *churnSession) close() error                { return stopServer(&w.srv) }
func (w *churnSession) replayLen() int              { return len(w.kept) }
func (w *churnSession) solveGraphs() []*graph.Graph { return []*graph.Graph{w.base} }

// prepare starts two engines from the same solve the service ran at
// creation.
func (w *churnSession) prepare() error {
	sol, err := solveStages(nil, -1, w.base, kFold, 1)
	if err != nil {
		return err
	}
	if membersHash(nodeIDs(sol.Members)) != w.members {
		return fmt.Errorf("session %s: replayed creation solve differs from the served one", w.id)
	}
	for c := range w.engines {
		if w.engines[c], err = maintain.NewEngine(w.base, sol.InSet, kFold, maintain.Options{}); err != nil {
			return err
		}
	}
	return nil
}

// replay runs kept batch i through the session's path: decode, the
// engine's validate and apply, the certified re-solve when drift
// overflows, and the response encoding.
func (w *churnSession) replay(i, c int, tr *tracer, root int32) error {
	kb := w.kept[i]
	eng := w.engines[c]

	sp := tr.begin(root, "service.decode")
	var req service.DeltaRequest
	err := json.Unmarshal(kb.body, &req)
	var ops []maintain.Op
	if err == nil {
		ops, err = engineOps(req.Ops)
	}
	tr.end(sp)
	if err != nil {
		return err
	}

	sp = tr.begin(root, "maintain.apply")
	err = eng.Validate(ops)
	var p maintain.Patch
	pre := eng.InSet()
	if err == nil {
		p = eng.Apply(ops)
	}
	tr.note(sp, int64(p.Touched))
	tr.end(sp)
	if err != nil {
		return err
	}
	entered, left := nodeIDs(p.Entered), nodeIDs(p.Left)
	if p.DriftExceeded {
		fb := tr.begin(root, "maintain.fallback")
		sub, ids := eng.LiveSubgraph()
		sol, err := solveStages(tr, fb, sub, kFold, 1)
		if err == nil {
			mask := make([]bool, eng.N())
			for _, v := range sol.Members {
				mask[ids[v]] = true
			}
			_, _, err = eng.SetMask(mask)
		}
		tr.end(fb)
		if err != nil {
			return fmt.Errorf("fallback: %w", err)
		}
		entered, left = maskDiff(pre, eng.InSet())
	}

	sp = tr.begin(root, "service.encode")
	_, err = json.Marshal(service.DeltaResponse{
		SessionID: w.id,
		Patch: service.RepairPatch{
			Entered: entered, Left: left,
			Iterations: p.Iterations, Touched: p.Touched,
		},
		LostHeads: p.LostHeads, DeficientBefore: p.DeficientBefore,
		NewlyDead: p.NewlyDead, Revived: p.Revived,
		N: eng.N(), Size: eng.Size(), Fallback: p.DriftExceeded, Feasible: true,
	})
	tr.end(sp)
	if err != nil {
		return err
	}
	if membersHash(entered) != kb.entered || membersHash(left) != kb.left || p.DriftExceeded != kb.fallback {
		return fmt.Errorf("session %s: replayed patch differs from the served one", w.id)
	}
	return nil
}

// engineOps converts wire ops to engine ops, as the service does.
func engineOps(ops []service.DeltaOp) ([]maintain.Op, error) {
	out := make([]maintain.Op, 0, len(ops))
	for i, op := range ops {
		switch op.Op {
		case "fail", "revive":
			kind := maintain.OpFail
			if op.Op == "revive" {
				kind = maintain.OpRevive
			}
			ids := make([]graph.NodeID, len(op.Nodes))
			for j, v := range op.Nodes {
				ids[j] = graph.NodeID(v)
			}
			out = append(out, maintain.Op{Kind: kind, Nodes: ids})
		case "add_edge", "del_edge":
			if op.U == nil || op.V == nil {
				return nil, fmt.Errorf("op %d: missing endpoint", i)
			}
			kind := maintain.OpAddEdge
			if op.Op == "del_edge" {
				kind = maintain.OpDelEdge
			}
			out = append(out, maintain.Op{Kind: kind, U: graph.NodeID(*op.U), V: graph.NodeID(*op.V)})
		default:
			return nil, fmt.Errorf("op %d: unexpected kind %q", i, op.Op)
		}
	}
	return out, nil
}

// maskDiff lists the nodes that entered and left between two masks.
func maskDiff(pre, post []bool) (entered, left []int) {
	entered, left = []int{}, []int{}
	for v := range post {
		was := v < len(pre) && pre[v]
		switch {
		case post[v] && !was:
			entered = append(entered, v)
		case !post[v] && was:
			left = append(left, v)
		}
	}
	return entered, left
}
