package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one recorded call into a layer. Name is "<layer>.<stage>";
// Parent is the index of the enclosing span, -1 for a root. Spans of one
// replayed input share Trace. Count carries the stage's own figure (LP
// rounds, nodes touched, leaders), 0 when it has none.
type span struct {
	Trace  int64  `json:"trace"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"`
}

// tracer keeps spans in memory; they are written out once, at exit. A nil
// *tracer records nothing, so the replay code runs unchanged untraced.
type tracer struct {
	epoch time.Time
	trace int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// root opens the root span of a new trace.
func (t *tracer) root(name string) int32 {
	t.trace++
	return t.begin(-1, name)
}

func (t *tracer) begin(parent int32, name string) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Trace: t.trace, ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.epoch))})
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
}

// note attaches the stage's own count to span id.
func (t *tracer) note(id int32, n int64) {
	if t == nil {
		return
	}
	t.spans[id].Count = n
}

// durations returns the durations (ms) and counts of every span named name.
func (t *tracer) durations(name string) (durs, counts []float64) {
	for _, s := range t.spans {
		if s.Name == name {
			durs = append(durs, float64(s.End-s.Start)/1e6)
			counts = append(counts, float64(s.Count))
		}
	}
	return durs, counts
}

// selfPerRoot returns, per layer, the mean over root spans of the time
// the layer's spans spent outside their children. The layer is the span
// name up to the first dot.
func (t *tracer) selfPerRoot() map[string]float64 {
	self := make([]int64, len(t.spans))
	roots := 0
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		} else {
			roots++
		}
	}
	out := map[string]float64{}
	if roots == 0 {
		return out
	}
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += float64(self[i]) / 1e6 / float64(roots)
	}
	return out
}

// write stores the spans as JSON lines, in start order (the order begin
// recorded them in).
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayFigures are the timings of the alternating untraced and traced
// replay passes over the same inputs.
type replayFigures struct {
	ops  int
	sumU time.Duration // untraced pass
	sumT time.Duration // traced pass
}

// replayAll replays every kept input twice, once untraced on state copy 0
// and once traced on copy 1, alternating which goes first, until the
// inputs or the budget run out.
func replayAll(w workload, budget time.Duration, tr *tracer) (replayFigures, error) {
	var f replayFigures
	start := time.Now()
	for i := 0; i < w.replayLen() && time.Since(start) < budget; i++ {
		for j := 0; j < 2; j++ {
			if (i+j)%2 == 1 {
				t0 := time.Now()
				root := tr.root("harness.op")
				err := w.replay(i, 1, tr, root)
				tr.end(root)
				f.sumT += time.Since(t0)
				if err != nil {
					return f, fmt.Errorf("traced replay of input %d: %w", i, err)
				}
			} else {
				t0 := time.Now()
				err := w.replay(i, 0, nil, -1)
				f.sumU += time.Since(t0)
				if err != nil {
					return f, fmt.Errorf("replay of input %d: %w", i, err)
				}
			}
		}
		f.ops++
	}
	return f, nil
}
