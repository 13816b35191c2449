package main

// The serve workload: an in-process serve.Server behind net/http/httptest,
// driven by an open loop. A seeded schedule fixes every request's due time
// (one every 1/serveRate seconds) and body before the run starts. The
// bodies are the request shapes the repository documents for the service
// (see serveShapes), on the paper's Table II applications; a fixed share
// of requests repeat the body sent just before (coalescing when the
// original is still in flight, artifact-cache hits otherwise), the rest
// are cold. This is the only workload that goes through request decoding,
// normalization, admission, coalescing and response encoding.
//
// A dispatcher sends each request when it is due, whatever the server is
// doing, to a client of serveConns connections; each request is timed from
// its due time, so queueing behind a slow response counts. The dispatcher
// records its own lateness, and a run where it fell behind is invalid —
// the generator must never be mistaken for the server.
//
// Every 200 body must equal, byte for byte, what the direct library call
// returns for the same request: core.Run for evaluate, core.RunGrid's CSV
// for sweep, dse for explore. Any other status counts as a failure.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"velociti/internal/apps"
	"velociti/internal/circuit"
	"velociti/internal/config"
	"velociti/internal/core"
	"velociti/internal/dse"
	"velociti/internal/perf"
	"velociti/internal/serve"
	"velociti/internal/ti"
	"velociti/internal/workload"
)

const (
	// serveRate is the offered load in requests per second: about 45% of
	// the 22 requests/s the mix reaches closed-loop at two connections.
	// Nearer capacity, queueing amplifies the host's noise: at 13/s the
	// median latency moved between seeds by 0.11 of itself, at 10/s by
	// 0.04 (see baseline.json).
	serveRate = 10
	// serveConns bounds concurrent HTTP connections.
	serveConns = 2
	// serveCacheCapacity bounds each stage cache of the server (its
	// -cache-capacity deployment setting). Under the default bound the
	// server keeps every artifact a run computes, over a GiB; this bound
	// keeps the process small, and the cache evicts.
	serveCacheCapacity = 512
	// serveCals is how many calibrations run before the open loop, and
	// again after it.
	serveCals = 5
	// serveMaxLate is how late the dispatcher may send a request before
	// the run is invalid.
	serveMaxLate = 100 * time.Millisecond
)

// serveShape is one documented request shape: its endpoint and its body
// for one Table II application and one master seed. Every body spells out
// the defaults the server would fill in, so the direct call needs none.
type serveShape struct {
	endpoint string
	body     func(app circuit.Spec, seed int64) string
}

// serveShapes are the requests of README.md's "Serving" examples, one of
// each in its order: an evaluation of a Table II application at the
// paper's 35 runs, a quantum-volume sweep over 16:128:16 qubits at two
// alphas, an application sweep over chain lengths 8 to 32, and an
// exploration of the default DSE grid. The README names Supremacy and QFT
// and leaves the exploration's workload out; here every shape but the
// quantum-volume sweep takes the applications of Table II in turn.
var serveShapes = []serveShape{
	{"evaluate", func(app circuit.Spec, seed int64) string {
		return fmt.Sprintf(`{"workload":%s,"chain_length":16,"runs":35,"seed":%d}`, specJSON(app), seed)
	}},
	{"sweep", func(_ circuit.Spec, seed int64) string {
		return fmt.Sprintf(`{"qv":true,"qubit_range":"16:128:16","chain_lengths":[16],"alphas":[2,1],"runs":35,"seed":%d}`, seed)
	}},
	{"sweep", func(app circuit.Spec, seed int64) string {
		return fmt.Sprintf(`{"app":%q,"chain_lengths":[8,16,24,32],"alphas":[2],"runs":35,"seed":%d}`, app.Name, seed)
	}},
	{"explore", func(app circuit.Spec, seed int64) string {
		return fmt.Sprintf(`{"spec":%s,"chain_lengths":[8,16,24,32],"alphas":[2,1.5,1],"placers":["random","load-balanced"],"runs":10,"seed":%d}`,
			specJSON(app), seed)
	}},
}

// specJSON renders a Table II application the way README.md's evaluate
// example writes its workload.
func specJSON(s circuit.Spec) string {
	return fmt.Sprintf(`{"name":%q,"qubits":%d,"two_qubit_gates":%d}`, s.Name, s.Qubits, s.TwoQubitGates)
}

// serveEndpoints lists the endpoints.
var serveEndpoints = []string{"evaluate", "sweep", "explore"}

// serveRequest is one scheduled request.
type serveRequest struct {
	due      time.Duration
	endpoint string
	body     string
}

// serveSchedule draws n requests from seed, due at a fixed interval. Each
// cycle sends every shape of serveShapes once, cold, and repeats one of
// them right after its original, the shapes in turn from cycle to cycle:
// one request in len(serveShapes)+1 repeats, and a repeat joins its
// original's flight when that is still running, or hits the cache. Each
// full cycle moves on to the next Table II application. The cycle keeps
// the mix the same at every seed; the seed draws the master seeds of the
// cold bodies.
func serveSchedule(seed int64, n int) []serveRequest {
	base := rand.New(rand.NewSource(seed)).Int63n(1 << 40)
	specs := apps.PaperSpecs()
	cycle := len(serveShapes) + 1
	reqs := make([]serveRequest, 0, n)
	for i := 0; i < n; i++ {
		c, k := i/cycle, i%cycle
		rep := c%len(serveShapes) + 1
		var req serveRequest
		if k == rep {
			req = reqs[i-1]
		} else {
			if k > rep {
				k--
			}
			req = serveRequest{endpoint: serveShapes[k].endpoint, body: serveShapes[k].body(specs[c%len(specs)], base+int64(i)+1)}
		}
		req.due = time.Duration(i) * time.Second / serveRate
		reqs = append(reqs, req)
	}
	return reqs
}

// directBody computes, without the server, the body a 200 response to req
// must carry.
func directBody(ctx context.Context, req serveRequest, pl *core.Pipeline) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader([]byte(req.body)))
	dec.DisallowUnknownFields()
	switch req.endpoint {
	case "evaluate":
		var p config.Params
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		cfg, err := p.ToCoreConfig()
		if err != nil {
			return nil, err
		}
		cfg.Pipeline = pl
		rep, err := core.RunContext(ctx, cfg)
		if err != nil {
			return nil, err
		}
		return indentJSON(rep)
	case "sweep":
		var s struct {
			workload.Selector
			ChainLengths []int     `json:"chain_lengths"`
			Alphas       []float64 `json:"alphas"`
			Runs         int       `json:"runs"`
			Seed         int64     `json:"seed"`
		}
		if err := dec.Decode(&s); err != nil {
			return nil, err
		}
		specs, err := s.Specs()
		if err != nil {
			return nil, err
		}
		res, err := core.RunGrid(ctx, core.Grid{Specs: specs, ChainLengths: s.ChainLengths, Alphas: s.Alphas,
			Placers: []string{"random"}, Topology: ti.Ring, Runs: s.Runs, Seed: s.Seed, Pipeline: pl, Backend: perf.WeakLink{}})
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		err = res.WriteCSV(&buf)
		return buf.Bytes(), err
	default:
		var d dse.Request
		if err := dec.Decode(&d); err != nil {
			return nil, err
		}
		d.Backends = []string{perf.WeakLink{}.Name()}
		resp, err := d.Run(ctx, pl)
		if err != nil {
			return nil, err
		}
		return indentJSON(resp)
	}
}

// indentJSON renders v the way the CLIs and the server do.
func indentJSON(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	return append(b, '\n'), err
}

// served is one completed request.
type served struct {
	req     serveRequest
	status  int
	body    []byte
	latency time.Duration
}

// bodyMismatches counts the responses that are not a 200 carrying exactly
// the direct computation's bytes; direct results are computed once per
// distinct request, with no artifact cache.
func bodyMismatches(ctx context.Context, done []served) (int, error) {
	want := map[string][]byte{}
	failed := 0
	for _, s := range done {
		key := s.req.endpoint + " " + s.req.body
		w, ok := want[key]
		if !ok {
			var err error
			if w, err = directBody(ctx, s.req, nil); err != nil {
				return 0, fmt.Errorf("direct %s: %w", s.req.endpoint, err)
			}
			want[key] = w
		}
		if s.status != http.StatusOK || !bytes.Equal(s.body, w) {
			failed++
		}
	}
	return failed, nil
}

// serveHarness is the server under test and the client that drives it.
type serveHarness struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
}

func newServeHarness() *serveHarness {
	srv := serve.New(serve.Options{MaxInFlight: serveConns, Workers: 1, CacheCapacity: serveCacheCapacity})
	ts := httptest.NewServer(srv.Handler())
	tr := &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}
	return &serveHarness{srv: srv, ts: ts, client: &http.Client{Transport: tr}}
}

func (h *serveHarness) close() {
	h.client.CloseIdleConnections()
	h.ts.Close()
	h.srv.Close()
}

// post sends one request and reads the whole response.
func (h *serveHarness) post(req serveRequest) (int, []byte, error) {
	resp, err := h.client.Post(h.ts.URL+"/v1/"+req.endpoint, "application/json", bytes.NewReader([]byte(req.body)))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// openLoop sends reqs on their schedule and returns every completion in
// schedule order plus the dispatcher's lateness per request.
func (h *serveHarness) openLoop(reqs []serveRequest, tr *tracer) ([]served, []time.Duration, error) {
	done := make([]served, len(reqs))
	late := make([]time.Duration, len(reqs))
	errs := make([]error, len(reqs))
	// Sized to the number of sends, so the dispatcher never blocks on a
	// busy client and its lateness measures only itself.
	queue := make(chan int, len(reqs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				req := reqs[i]
				var id int
				if tr != nil {
					mu.Lock()
					id = tr.begin("serve.request."+req.endpoint, 0, i+1)
					mu.Unlock()
				}
				status, body, err := h.post(req)
				end := time.Since(start)
				if tr != nil {
					mu.Lock()
					tr.end(id)
					mu.Unlock()
				}
				done[i] = served{req: req, status: status, body: body, latency: end - req.due}
				errs[i] = err
			}
		}()
	}
	for i, req := range reqs {
		if d := req.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		late[i] = time.Since(start) - req.due
		queue <- i
	}
	close(queue)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return done, late, nil
}

func runServe(cfg runConfig) (*outcome, error) {
	ctx := context.Background()
	reqs := serveSchedule(cfg.seed, int(cfg.seconds*serveRate))
	// Set-up is building the server and its test listener; only the last
	// harness serves, the earlier ones measured set-up and are closed.
	h, setups, err := repeatSetup(func() (*serveHarness, error) { return newServeHarness(), nil }, (*serveHarness).close)
	if err != nil {
		return nil, err
	}
	defer h.close()
	o := &outcome{setups: setups}
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	// The server sits idle while the calibration kernel runs, as many
	// times before the open loop as after it.
	calibrateInto := func() {
		runtime.GC()
		for i := 0; i < serveCals; i++ {
			o.cals = append(o.cals, calibrate())
		}
	}
	calibrateInto()
	c0, err := cpuTime()
	if err != nil {
		return nil, err
	}
	done, late, err := h.openLoop(reqs, tr)
	if err != nil {
		return nil, err
	}
	c1, err := cpuTime()
	if err != nil {
		return nil, err
	}
	o.cpu = c1 - c0
	calibrateInto()
	o.attempted = len(done)
	if o.failed, err = bodyMismatches(ctx, done); err != nil {
		return nil, err
	}
	maxLate := time.Duration(0)
	for _, l := range late {
		if l > maxLate {
			maxLate = l
		}
	}
	o.invalid = maxLate > serveMaxLate
	for _, s := range done {
		o.units = append(o.units, s.latency)
	}
	lateMs := make([]float64, len(late))
	for i, l := range late {
		lateMs[i] = float64(l.Microseconds()) / 1000
	}
	fmt.Fprintf(cfg.log, "serve: %d requests at %d/s over %d connections, p50 %.2f ms, p99 %.2f ms, generator late p99 %.3f ms max %.3f ms\n",
		len(done), serveRate, serveConns, median(seconds64(o.units))*1000, quantile(seconds64(o.units), 0.99)*1000,
		quantile(lateMs, 0.99), float64(maxLate.Microseconds())/1000)
	if !cfg.traced {
		return o, nil
	}

	snap := h.srv.MetricsSnapshot()
	var requests, coalesced, rejected uint64
	for _, e := range []serve.EndpointStats{snap.Endpoints.Evaluate, snap.Endpoints.Sweep, snap.Endpoints.Explore} {
		requests += e.Requests
		coalesced += e.Coalesced
		rejected += e.Rejected
	}
	o.layers = map[string]metric{
		"serve.coalesced_frac":    {Value: float64(coalesced) / float64(requests), Unit: "ratio"},
		"serve.rejected":          {Value: float64(rejected), Unit: "count"},
		"serve.generator_late_ms": {Value: quantile(lateMs, 0.99), Unit: "ms"},
		"serve.req_p50_ms":        {Value: median(seconds64(o.units)) * 1000, Unit: "ms"},
		"serve.req_p99_ms":        {Value: quantile(seconds64(o.units), 0.99) * 1000, Unit: "ms"},
	}
	addCacheLayers(o.layers, h.srv.Pipeline().Stats())
	if err := serveOverhead(ctx, reqs, tr, o); err != nil {
		return nil, err
	}
	o.spans = tr.spans
	return o, nil
}

// serveOverhead measures, per endpoint, what the HTTP layer adds to the
// direct library call on the same warm request: the median of a few round
// trips to a fresh server minus the median of as many direct calls over a
// pipeline of the same bound, each warmed by one call first.
func serveOverhead(ctx context.Context, reqs []serveRequest, tr *tracer, o *outcome) error {
	const reps = 7
	h := newServeHarness()
	defer h.close()
	pl := core.NewPipelineCapacity(serveCacheCapacity)
	for _, ep := range serveEndpoints {
		var req serveRequest
		for _, r := range reqs {
			if r.endpoint == ep {
				req = r
				break
			}
		}
		if req.endpoint == "" {
			continue
		}
		want, err := directBody(ctx, req, pl)
		if err != nil {
			return err
		}
		if _, _, err := h.post(req); err != nil {
			return err
		}
		var viaHTTP, direct []float64
		for i := 0; i < reps; i++ {
			id := tr.begin("serve.http."+ep, 0, 0)
			status, body, err := h.post(req)
			tr.end(id)
			if err != nil {
				return err
			}
			viaHTTP = append(viaHTTP, tr.dur(id).Seconds())
			o.attempted++
			if status != http.StatusOK || !bytes.Equal(body, want) {
				o.failed++
			}
			id = tr.begin("serve.direct."+ep, 0, 0)
			_, err = directBody(ctx, req, pl)
			tr.end(id)
			if err != nil {
				return err
			}
			direct = append(direct, tr.dur(id).Seconds())
		}
		o.layers["serve.overhead_ms."+ep] = metric{Value: (median(viaHTTP) - median(direct)) * 1000, Unit: "ms"}
	}
	return nil
}
