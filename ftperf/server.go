package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"ftclust/internal/obs"
	"ftclust/internal/service"
)

// maxBody caps every response body the harness buffers. The largest is a
// session-create reply on the churn graph, well under a megabyte.
const maxBody = 16 << 20

// requestTimeout bounds one request; a request that takes longer fails.
const requestTimeout = 10 * time.Second

// inproc is the service under test: service.New behind httptest over
// real loopback HTTP, so request decode and response encode are on the
// measured path. The harness talks to it over at most conns keep-alive
// connections with a minimal HTTP/1.1 client: each request is written and
// its response read on the calling goroutine, so the client adds no
// goroutine hand-offs of its own to the latency it measures.
type inproc struct {
	srv  *service.Server
	ts   *httptest.Server
	idle chan *clientConn // one slot per connection; nil until first dialled
}

type clientConn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

func startServer(conns int) *inproc {
	s := service.New(service.Config{})
	p := &inproc{srv: s, ts: httptest.NewServer(s.Handler()), idle: make(chan *clientConn, conns)}
	for i := 0; i < conns; i++ {
		p.idle <- nil
	}
	return p
}

// do sends one request and returns the status and the whole body. It
// waits for a free connection when all of them are busy.
func (p *inproc) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var cc *clientConn
	select {
	case cc = <-p.idle:
	case <-ctx.Done():
		return 0, nil, ctx.Err()
	}
	if cc == nil {
		var d net.Dialer
		c, err := d.DialContext(ctx, "tcp", p.ts.Listener.Addr().String())
		if err != nil {
			p.idle <- nil
			return 0, nil, err
		}
		cc = &clientConn{c: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c)}
	}
	status, b, keep, err := cc.roundTrip(method, path, body)
	if err != nil || !keep {
		cc.c.Close()
		cc = nil
	}
	p.idle <- cc
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return status, b, nil
}

// roundTrip writes one request and reads its response; keep reports
// whether the connection can carry the next one.
func (cc *clientConn) roundTrip(method, path string, body []byte) (status int, b []byte, keep bool, err error) {
	if err := cc.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, nil, false, err
	}
	fmt.Fprintf(cc.bw, "%s %s HTTP/1.1\r\nHost: ftperf\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		method, path, len(body))
	cc.bw.Write(body)
	if err := cc.bw.Flush(); err != nil {
		return 0, nil, false, err
	}
	resp, err := http.ReadResponse(cc.br, nil)
	if err != nil {
		return 0, nil, false, err
	}
	defer resp.Body.Close()
	b, err = io.ReadAll(io.LimitReader(resp.Body, maxBody+1))
	if err != nil {
		return 0, nil, false, err
	}
	if len(b) > maxBody {
		return 0, nil, false, fmt.Errorf("response body over %d bytes", maxBody)
	}
	return resp.StatusCode, b, !resp.Close, nil
}

func (p *inproc) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	return p.do(ctx, http.MethodPost, path, body)
}

// serviceFigures are the service-layer figures read back from /metrics.
// The means are exact (a histogram's sum over its count); the p99 is
// interpolated within the histogram's power-of-two buckets.
type serviceFigures struct {
	queueWaitP99ms  float64
	queueWaitMeanMs float64
	queueWaits      int64
	cacheHitRatio   float64
	coalesced       float64
	shed            float64

	handlerMeanMs float64 // server-side wall time of a /v1/solve request

	solveMeanMs float64            // solver job: SolveKMDS and NewSolutionJSON
	solves      int64              // cold solves the job histogram counts
	phaseMeanMs map[string]float64 // solver phase: fractional, rounding, verify
}

func (p *inproc) scrape(ctx context.Context) (serviceFigures, error) {
	status, body, err := p.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return serviceFigures{}, err
	}
	if status != http.StatusOK {
		return serviceFigures{}, fmt.Errorf("GET /metrics: status %d", status)
	}
	snap, err := obs.ParsePrometheus(bytes.NewReader(body))
	if err != nil {
		return serviceFigures{}, fmt.Errorf("parsing /metrics: %w", err)
	}
	f := serviceFigures{phaseMeanMs: map[string]float64{}}
	if h, ok := snap.Hist("ftclust_queue_wait_seconds"); ok {
		f.queueWaitP99ms = 1000 * h.Quantile(0.99)
		f.queueWaitMeanMs = meanMs(h)
		f.queueWaits = h.Count
	}
	if h, ok := snap.Hist("ftclust_solve_duration_seconds"); ok {
		f.solveMeanMs = meanMs(h)
		f.solves = h.Count
	}
	if h, ok := snap.Hist("ftclust_http_request_duration_seconds", "endpoint", "/v1/solve"); ok {
		f.handlerMeanMs = meanMs(h)
	}
	for _, phase := range []string{"fractional", "rounding", "verify"} {
		if h, ok := snap.Hist("ftclust_solver_phase_duration_seconds", "phase", phase); ok {
			f.phaseMeanMs[phase] = meanMs(h)
		}
	}
	hits := snap.SumSeries("ftclust_cache_hits_total")
	misses := snap.SumSeries("ftclust_cache_misses_total")
	f.coalesced = snap.SumSeries("ftclust_coalesced_total")
	if all := hits + misses + f.coalesced; all > 0 {
		f.cacheHitRatio = hits / all
	}
	f.shed = snap.SumSeries("ftclust_shed_total")
	return f, nil
}

// meanMs is the mean of a seconds histogram in ms, 0 when it is empty.
func meanMs(h *obs.PromHistogram) float64 {
	if h.Count == 0 {
		return 0
	}
	return 1000 * h.Sum / float64(h.Count)
}

// close drops the client's connections, stops the listener and drains the
// service: ts.Close waits for in-flight handlers, Shutdown for the solver
// pool and the session janitor. Every client has returned its connection
// by the time close runs.
func (p *inproc) close() error {
	for n := len(p.idle); n > 0; n-- {
		if cc := <-p.idle; cc != nil {
			cc.c.Close()
		}
	}
	p.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return p.srv.Shutdown(ctx)
}

// stopServer closes *p if it is running and clears it, so a workload's
// close may follow a failed start or run twice.
func stopServer(p **inproc) error {
	if *p == nil {
		return nil
	}
	err := (*p).close()
	*p = nil
	return err
}
