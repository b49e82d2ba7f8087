package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"repro/internal/dtrace"
	"repro/internal/gateway"
	"repro/internal/httpmsg"
	"repro/internal/upstream"
	"repro/internal/workload"
	"repro/internal/xj"
	"repro/internal/xmldom"
	"repro/internal/xpath"
	"repro/internal/xsd"
)

// passBudget is the minimum wall time of each timed pass of the traced
// run; a pass always covers whole corpus cycles.
const passBudget = 700 * time.Millisecond

// allocCycles is how many corpus cycles the allocation counts cover.
const allocCycles = 4

// keptRequests is how many of each pass's most recent requests keep
// their spans for the JSONL file.
const keptRequests = 1000

// Layer names, as span names and metric prefixes.
const (
	lHTTPParse  = "httpmsg.parse"
	lHTTPFormat = "httpmsg.format"
	lProcess    = "gateway.process"
	lXMLParse   = "xmldom.parse"
	lXPath      = "xpath.eval"
	lXSD        = "xsd.validate"
	lXJ         = "xj.translate"
	lUpstream   = "upstream.roundtrip"
	lDTrace     = "dtrace.record"
)

// pathLayers are the steps of one request on the gateway's path, in
// order; their self times sum to the in-process share of loopback.rt_us.
var pathLayers = []string{lHTTPParse, lProcess, lHTTPFormat, lUpstream, lDTrace}

// xmlLayers decompose gateway.process for the XML use cases.
var xmlLayers = []string{lXMLParse, lXPath, lXSD, lXJ}

// layerStat accumulates one layer's timed calls.
type layerStat struct {
	calls int
	total time.Duration
}

func (s layerStat) perCallUS() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.total) / float64(s.calls) / float64(time.Microsecond)
}

// reqSpans is one replayed request's spans: children first, root last.
type reqSpans struct {
	n     int
	spans [8]dtrace.Span
}

// tracer times layer calls and, when on, records benchmark-side spans
// around them: one root span per replayed request, one child per call.
// Each pass keeps its last keptRequests requests' spans in a ring, so
// recording costs the same on every request; the rings are written out
// as dtrace.Span JSONL when the run ends.
type tracer struct {
	on    bool
	ids   splitmix
	stats map[string]*layerStat
	rings [][]reqSpans
	n     int       // requests begun in the current pass
	cur   *reqSpans // the current request's slot
	first time.Time // start of the current request
}

func newTracer(seed uint64, on bool) *tracer {
	return &tracer{on: on, ids: splitmix(seed), stats: map[string]*layerStat{}}
}

// pass starts a new pass with its own span ring.
func (t *tracer) pass() {
	if t.on {
		t.rings = append(t.rings, make([]reqSpans, keptRequests))
		t.n = 0
	}
}

func (t *tracer) id() dtrace.ID { return dtrace.ID(t.ids.next() | 1) }

// begin opens a request's root span.
func (t *tracer) begin(name string, m *message) {
	if !t.on {
		return
	}
	ring := t.rings[len(t.rings)-1]
	t.cur = &ring[t.n%len(ring)]
	t.n++
	t.first = time.Now()
	t.cur.n = 0
	t.cur.spans[len(t.cur.spans)-1] = dtrace.Span{TraceID: t.id(), SpanID: t.id(), Node: "perfbench", Name: name,
		StartUS: t.first.UnixMicro(), UseCase: m.uc.String(), Outcome: m.outcome, Status: m.status}
}

// end closes the root span.
func (t *tracer) end() {
	if !t.on {
		return
	}
	root := &t.cur.spans[len(t.cur.spans)-1]
	root.DurUS = time.Since(t.first).Microseconds()
	t.cur.spans[t.cur.n] = *root
	t.cur.n++
}

// call times f as one call of layer, under the current root span when
// tracing is on.
func (t *tracer) call(layer string, f func()) {
	t0 := time.Now()
	f()
	d := time.Since(t0)
	st := t.stats[layer]
	if st == nil {
		st = &layerStat{}
		t.stats[layer] = st
	}
	st.calls++
	st.total += d
	if t.on {
		root := &t.cur.spans[len(t.cur.spans)-1]
		t.cur.spans[t.cur.n] = dtrace.Span{TraceID: root.TraceID, SpanID: t.id(), ParentID: root.SpanID,
			Node: "perfbench", Name: layer, StartUS: t0.UnixMicro(), DurUS: d.Microseconds()}
		t.cur.n++
	}
}

func (t *tracer) perCallUS(layer string) float64 {
	if st := t.stats[layer]; st != nil {
		return st.perCallUS()
	}
	return 0
}

// writeJSONL writes the kept spans, one dtrace.Span per line, and
// returns how many it wrote.
func (t *tracer) writeJSONL(path string) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := 0
	for _, ring := range t.rings {
		for i := range ring {
			for j := 0; j < ring[i].n; j++ {
				if err := enc.Encode(&ring[i].spans[j]); err != nil {
					f.Close()
					return n, err
				}
				n++
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}

// layerEnv holds what the layer calls need: the compiled pipeline
// artifacts and, for the upstream layer, two in-process backends.
type layerEnv struct {
	s        spec
	pipe     *gateway.Pipeline
	expr     *xpath.Expr
	eval     *xpath.Evaluator
	schema   *xsd.Schema
	fwd      *upstream.Forwarder
	backs    []*upstream.BackendServer
	backends map[string]string
	tail     *dtrace.Tail
	// scratch reused across calls, as a gateway worker reuses its own.
	req    httpmsg.Request
	up     httpmsg.Request
	resp   httpmsg.Response
	head   []byte
	upHead []byte
	hits   int // upstream round trips that reused a pooled connection
	wrong  int
}

func newLayerEnv(s spec) (*layerEnv, error) {
	pipe, err := gateway.NewPipeline(workload.FR, "", nil)
	if err != nil {
		return nil, err
	}
	expr, err := xpath.Compile("//quantity/text()")
	if err != nil {
		return nil, err
	}
	return &layerEnv{s: s, pipe: pipe, expr: expr, eval: xpath.NewEvaluator(nil), schema: workload.OrderSchema(),
		tail: dtrace.NewTail(dtrace.TailConfig{})}, nil
}

// startBackends stands up the order and error endpoints in-process, with
// the same ack size as the forwarding workload's aonback processes.
func (e *layerEnv) startBackends() error {
	e.backends = map[string]string{}
	var cfg upstream.Config
	for _, route := range []string{"order", "error"} {
		b, err := upstream.StartBackend("127.0.0.1:0", upstream.BackendConfig{Name: route, RespBytes: backendRespBytes})
		if err != nil {
			return err
		}
		e.backs = append(e.backs, b)
		e.backends[route] = b.Addr().String()
	}
	cfg.Order, cfg.Error = e.backends["order"], e.backends["error"]
	fwd, err := upstream.New(cfg)
	if err != nil {
		return err
	}
	e.fwd = fwd
	return nil
}

func (e *layerEnv) close() {
	if e.fwd != nil {
		e.fwd.Close()
	}
	for _, b := range e.backs {
		b.Close()
	}
}

// onPath reports how many times the gateway's request path calls layer
// for one message of use case uc on this workload — the structure of
// Pipeline.Process and of the server's forward and trace steps.
func (e *layerEnv) onPath(layer string, uc workload.UseCase) int {
	switch layer {
	case lHTTPParse, lProcess, lHTTPFormat:
		return 1
	case lXMLParse:
		return b2i(uc == workload.CBR || uc == workload.SV || uc == workload.XJ)
	case lXPath:
		return b2i(uc == workload.CBR)
	case lXSD:
		return b2i(uc == workload.SV)
	case lXJ:
		return b2i(uc == workload.XJ)
	case lUpstream:
		return b2i(e.s.forward)
	case lDTrace:
		return b2i(e.s.traced)
	}
	return 0
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// pathRequest replays one request's in-process gateway path: parse the
// HTTP request, run the pipeline, format the response header (and, when
// forwarding, the upstream request header), forward, and record the
// request's dtrace spans. The outcome is checked against the oracle.
func (e *layerEnv) pathRequest(t *tracer, m *message) {
	t.begin("request", m)
	var out gateway.Outcome
	var perr error
	t.call(lHTTPParse, func() { perr = httpmsg.ParseRequestInto(m.req, &e.req) })
	if perr != nil {
		e.wrong++
		t.end()
		return
	}
	t.call(lProcess, func() { out = e.pipe.Process(e.pipe.SelectUseCase(e.req.Target), &e.req) })
	if out.String() != m.outcome || (m.uc == workload.XJ && string(e.req.Body) != string(m.want)) {
		e.wrong++
	}
	body := e.req.Body
	t.call(lHTTPFormat, func() {
		if e.s.forward {
			e.upstreamHead(m, len(body))
		}
		e.resp = httpmsg.Response{Status: 200, Headers: append(e.resp.Headers[:0],
			httpmsg.Header{Name: "Content-Type", Value: "application/json"},
			httpmsg.Header{Name: gateway.RouteHeader, Value: m.route},
			httpmsg.Header{Name: "X-AON-Outcome", Value: m.outcome})}
		e.head = httpmsg.AppendResponseHeader(e.head[:0], &e.resp, len(m.want))
	})
	if e.s.forward {
		e.roundTrip(t, m, body)
	}
	if e.s.traced {
		e.record(t, m)
	}
	t.end()
}

// upstreamHead formats the forwarded request's header into e.upHead in
// the shape the gateway's forward step sends.
func (e *layerEnv) upstreamHead(m *message, bodyLen int) {
	e.up = httpmsg.Request{Method: "POST", Target: "/service/" + m.uc.String(), Proto: "HTTP/1.1",
		Headers: append(e.up.Headers[:0],
			httpmsg.Header{Name: "Host", Value: m.route},
			httpmsg.Header{Name: "Content-Type", Value: "text/xml; charset=utf-8"},
			httpmsg.Header{Name: gateway.RouteHeader, Value: m.route},
			httpmsg.Header{Name: "X-AON-Outcome", Value: m.outcome},
			httpmsg.Header{Name: "X-AON-Usecase", Value: m.uc.String()})}
	e.upHead = httpmsg.AppendRequestHeader(e.upHead[:0], &e.up, bodyLen)
}

// roundTrip forwards body with the header in e.upHead to the message's
// route and checks the backend's ack.
func (e *layerEnv) roundTrip(t *tracer, m *message, body []byte) {
	var res *upstream.Result
	var err error
	t.call(lUpstream, func() { res, err = e.fwd.RoundTripBuffers(m.route, e.upHead, body) })
	if err != nil || res.Status != 200 || !ackOK(res.Body, m.route) {
		e.wrong++
		return
	}
	if res.Reused {
		e.hits++
	}
}

// record runs one request's recorder cycle as the gateway's trace plane
// does: a pooled recorder, the root, one span per stage, the tail
// sampler's keep decision.
func (e *layerEnv) record(t *tracer, m *message) {
	t.call(lDTrace, func() {
		now := time.Now()
		rec := dtrace.GetRecorder("gateway")
		rec.Begin("gateway", now)
		for _, stage := range [...]string{"read", "queue", "parse", "process", "forward", "write"} {
			rec.Add(stage, now, time.Microsecond)
		}
		rec.Annotate(m.uc.String(), m.outcome, m.status)
		rec.Finish(now.Add(10 * time.Microsecond))
		e.tail.Offer(rec, false)
		dtrace.PutRecorder(rec)
	})
}

// xmlMessage replays the XML layers on one message body: the stream
// parse, then the CBR XPath, the SV schema validation and the XJ
// translation on the same tree. Every layer runs on every message, so
// each layer's per-call cost is measured on every workload; the path
// counts (onPath) say which calls the gateway actually makes.
func (e *layerEnv) xmlMessage(t *tracer, m *message) {
	t.begin("xml", m)
	sp := xmldom.AcquireStreamParser()
	var doc *xmldom.Node
	var err error
	t.call(lXMLParse, func() { doc, err = sp.Parse(m.body) })
	if err != nil {
		e.wrong++
		sp.Release()
		t.end()
		return
	}
	var val string
	t.call(lXPath, func() { val, err = e.eval.EvalString(e.expr, doc) })
	if err != nil || (val == "1") != (firstQuantity(m.body) == "1") {
		e.wrong++
	}
	var verrs int
	t.call(lXSD, func() { verrs = len(xsd.Validate(e.schema, doc)) })
	if m.uc == workload.SV && (verrs == 0) != (m.outcome == "valid") {
		e.wrong++
	}
	var js []byte
	t.call(lXJ, func() { js, err = xj.Translate(doc) })
	if err != nil || (m.uc == workload.XJ && string(js) != string(m.want)) {
		e.wrong++
	}
	sp.Release()
	t.end()
}

// standalone measures the upstream and dtrace layers on workloads whose
// gateway path does not call them.
func (e *layerEnv) standalone(t *tracer, m *message) {
	t.begin("standalone", m)
	if !e.s.forward {
		e.upstreamHead(m, len(m.body))
		e.roundTrip(t, m, m.body)
	}
	if !e.s.traced {
		e.record(t, m)
	}
	t.end()
}

// timedPass cycles the corpus through f until passBudget has elapsed.
func timedPass(corpus []message, f func(m *message)) (requests int, d time.Duration) {
	start := time.Now()
	for cycle := 0; cycle < 2 || time.Since(start) < passBudget; cycle++ {
		for i := range corpus {
			f(&corpus[i])
		}
		requests += len(corpus)
	}
	return requests, time.Since(start)
}

// allocsPerCall returns the heap allocations per call of f(0)…f(n-1),
// counted exactly: the garbage collector is off while the calls run
// allocCycles times, after one warm-up round, so pooled objects are never
// dropped. The count is taken three
// times and the least kept, so a stray runtime allocation (a finalizer
// of a connection closed earlier) cannot leak into it.
func allocsPerCall(n int, f func(i int)) float64 {
	runtime.GC()
	old := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(old)
	for i := 0; i < n; i++ {
		f(i)
	}
	least := uint64(1<<64 - 1)
	for rep := 0; rep < 3; rep++ {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		for c := 0; c < allocCycles; c++ {
			for i := 0; i < n; i++ {
				f(i)
			}
		}
		runtime.ReadMemStats(&b)
		least = min(least, b.Mallocs-a.Mallocs)
	}
	return float64(least) / float64(allocCycles*n)
}

// layerResult is the traced run's figures.
type layerResult struct {
	s          spec
	perCall    map[string]float64 // µs per call
	perReq     map[string]float64 // path self time per request, µs
	callsPer   map[string]float64 // path calls per request
	allocs     map[string]float64
	hitRatio   float64
	rtUS       float64 // loopback round trip, µs
	rtN        int
	sumUS      float64 // Σ path self times per request
	rootSelfUS float64 // replay time outside any layer span, per request
	overhead   float64 // %
	spanFile   string
	spans      int
	attempted  int
	wrong      int
}

func runLayers(s spec, corpus []message, o options) (*layerResult, error) {
	e, err := newLayerEnv(s)
	if err != nil {
		return nil, err
	}
	defer e.close()
	r := &layerResult{s: s, perCall: map[string]float64{}, perReq: map[string]float64{},
		callsPer: map[string]float64{}, allocs: map[string]float64{}}

	// Allocation counts first, before any server goroutine exists.
	if err := e.countAllocs(corpus, r); err != nil {
		return nil, err
	}
	if err := e.startBackends(); err != nil {
		return nil, err
	}

	// The request path replayed in alternating untraced and traced corpus
	// cycles: the difference is the benchmark's own span overhead.
	bare, traced := newTracer(o.seed, false), newTracer(o.seed, true)
	traced.pass()
	var n0, n1 int
	var d0, d1 time.Duration
	for c := 0; c < 4 || d0+d1 < 2*passBudget; c++ {
		t, n, d := bare, &n0, &d0
		if c%2 == 1 {
			t, n, d = traced, &n1, &d1
		}
		start := time.Now()
		for i := range corpus {
			e.pathRequest(t, &corpus[i])
		}
		*d += time.Since(start)
		*n += len(corpus)
	}
	r.attempted += n0 + n1
	perReqBare := float64(d0) / float64(n0) / float64(time.Microsecond)
	perReqTraced := float64(d1) / float64(n1) / float64(time.Microsecond)
	r.overhead = 100 * (perReqTraced - perReqBare) / perReqBare
	for _, l := range pathLayers {
		st := traced.stats[l]
		if st == nil {
			continue
		}
		r.perReq[l] = float64(st.total) / float64(n1) / float64(time.Microsecond)
		r.sumUS += r.perReq[l]
	}
	r.rootSelfUS = perReqTraced - r.sumUS
	for _, l := range []string{lHTTPParse, lProcess, lHTTPFormat} {
		r.perCall[l] = traced.perCallUS(l)
	}
	if s.forward {
		r.hitRatio = float64(e.hits) / float64(traced.stats[lUpstream].calls+bare.stats[lUpstream].calls)
	}

	// Per-call costs of every XML layer, and of the upstream and dtrace
	// layers where the path does not already time them.
	traced.pass()
	n2, _ := timedPass(corpus, func(m *message) { e.xmlMessage(traced, m) })
	r.attempted += n2
	if !s.forward || !s.traced {
		e.hits = 0
		traced.pass()
		n3, _ := timedPass(corpus, func(m *message) { e.standalone(traced, m) })
		r.attempted += n3
		if !s.forward {
			r.hitRatio = float64(e.hits) / float64(n3)
		}
	}
	for _, l := range append(append([]string{}, xmlLayers...), lUpstream, lDTrace) {
		r.perCall[l] = traced.perCallUS(l)
	}
	for _, l := range append(append([]string{}, pathLayers...), xmlLayers...) {
		calls := 0
		for i := range corpus {
			calls += e.onPath(l, corpus[i].uc)
		}
		r.callsPer[l] = float64(calls) / float64(len(corpus))
	}

	// The loopback round trip through an in-process gateway configured as
	// the workload's aongate is.
	if r.rtUS, r.rtN, err = e.loopback(corpus); err != nil {
		return nil, err
	}
	r.attempted += r.rtN

	r.spanFile = filepath.Join(o.bin, "spans-"+s.name+"-"+strconv.FormatUint(o.seed, 10)+".jsonl")
	if r.spans, err = traced.writeJSONL(r.spanFile); err != nil {
		return nil, err
	}
	r.wrong = e.wrong
	return r, nil
}

// countAllocs fills r.allocs. The XML consumers run on trees parsed once
// and held, so each count is the layer's own.
func (e *layerEnv) countAllocs(corpus []message, r *layerResult) error {
	n := len(corpus)
	r.allocs[lHTTPParse] = allocsPerCall(n, func(i int) { _ = httpmsg.ParseRequestInto(corpus[i].req, &e.req) })
	r.allocs[lXMLParse] = allocsPerCall(n, func(i int) {
		sp := xmldom.AcquireStreamParser()
		_, _ = sp.Parse(corpus[i].body)
		sp.Release()
	})
	parsers := make([]*xmldom.StreamParser, 0, n)
	docs := make([]*xmldom.Node, n)
	defer func() {
		for _, sp := range parsers {
			sp.Release()
		}
	}()
	for i := range corpus {
		sp := xmldom.AcquireStreamParser()
		parsers = append(parsers, sp)
		doc, err := sp.Parse(corpus[i].body)
		if err != nil {
			return fmt.Errorf("parse corpus message %d: %w", i, err)
		}
		docs[i] = doc
	}
	r.allocs[lXPath] = allocsPerCall(n, func(i int) { _, _ = e.eval.EvalString(e.expr, docs[i]) })
	r.allocs[lXSD] = allocsPerCall(n, func(i int) { _ = xsd.Validate(e.schema, docs[i]) })
	r.allocs[lXJ] = allocsPerCall(n, func(i int) { _, _ = xj.Translate(docs[i]) })
	return nil
}

// loopback measures mean round trips over one keep-alive connection to
// an in-process gateway.Server, configured like the workload's aongate.
func (e *layerEnv) loopback(corpus []message) (us float64, n int, err error) {
	cfg := gateway.Config{UseCase: workload.FR}
	var backends map[string]string
	if e.s.forward {
		cfg.Upstream = upstream.Config{Order: e.backends["order"], Error: e.backends["error"]}
		backends = e.backends
	}
	if e.s.traced {
		cfg.Trace, cfg.TraceEvery = true, traceEvery
	}
	srv, err := gateway.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return 0, 0, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if serr := srv.Shutdown(ctx); serr != nil && err == nil {
			err = serr
		}
	}()
	k, err := dial(srv.Addr().String(), backends)
	if err != nil {
		return 0, 0, err
	}
	defer k.Close()
	for i := range corpus { // warm-up cycle
		if _, _, err := k.roundTrip(&corpus[i]); err != nil {
			return 0, 0, err
		}
	}
	n, d := timedPass(corpus, func(m *message) {
		_, ok, rerr := k.roundTrip(m)
		if rerr != nil && err == nil {
			err = rerr
		}
		if !ok {
			e.wrong++
		}
	})
	if err != nil {
		return 0, 0, err
	}
	return float64(d) / float64(n) / float64(time.Microsecond), n, nil
}

// Per-layer metric names reported with -trace 1, in print order.
var layerMetricOrder = []string{
	"httpmsg.parse_us", "httpmsg.parse_allocs", "httpmsg.format_us",
	"xmldom.parse_us", "xmldom.parse_allocs", "xmldom.parse_calls_per_req",
	"xpath.eval_us", "xpath.eval_allocs", "xpath.eval_calls_per_req",
	"xsd.validate_us", "xsd.validate_allocs", "xsd.validate_calls_per_req",
	"xj.translate_us", "xj.translate_allocs", "xj.translate_calls_per_req",
	"gateway.process_us",
	"upstream.roundtrip_us", "upstream.pool_hit_ratio", "upstream.roundtrip_calls_per_req",
	"dtrace.record_us", "dtrace.record_calls_per_req",
	"loopback.rt_us", "gateway.layer_sum_us", "gateway.unattributed_us",
	"gateway.syscalls_per_req", "trace.overhead_pct",
}

func (r *layerResult) metrics() map[string]metric {
	m := map[string]metric{}
	for _, l := range append(append([]string{}, pathLayers...), xmlLayers...) {
		m[l+"_us"] = metric{r.perCall[l], "us"}
	}
	for _, l := range []string{lHTTPParse, lXMLParse, lXPath, lXSD, lXJ} {
		m[l+"_allocs"] = metric{r.allocs[l], "count"}
	}
	for _, l := range []string{lXMLParse, lXPath, lXSD, lXJ, lUpstream, lDTrace} {
		m[l+"_calls_per_req"] = metric{r.callsPer[l], "count"}
	}
	m["upstream.pool_hit_ratio"] = metric{r.hitRatio, "ratio"}
	m["loopback.rt_us"] = metric{r.rtUS, "us"}
	m["gateway.layer_sum_us"] = metric{r.sumUS, "us"}
	m["gateway.unattributed_us"] = metric{r.rtUS - r.sumUS, "us"}
	m["trace.overhead_pct"] = metric{r.overhead, "%"}
	return m
}

func (r *layerResult) print(w io.Writer) {
	m := r.metrics()
	fmt.Fprintf(w, "traced run (%s): per-call µs, exact allocs per call, gateway-path calls per request\n", r.s.name)
	for _, k := range layerMetricOrder {
		if k == "gateway.syscalls_per_req" {
			continue // printed with the end-to-end run it comes from
		}
		fmt.Fprintf(w, "  %-34s %12.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Fprintf(w, "reconciliation (µs per request): loopback.rt_us %.3f = ", r.rtUS)
	for i, l := range pathLayers {
		if i > 0 {
			fmt.Fprint(w, " + ")
		}
		fmt.Fprintf(w, "%s %.3f", l, r.perReq[l])
	}
	fmt.Fprintf(w, " (sum %.3f) + unattributed %.3f; replay outside layer spans %.3f; span overhead %.2f%%\n",
		r.sumUS, r.rtUS-r.sumUS, r.rootSelfUS, r.overhead)
	xmlSum := 0.0
	for _, l := range xmlLayers {
		xmlSum += r.callsPer[l] * r.perCall[l]
	}
	fmt.Fprintf(w, "cross-check: gateway.process %.3f µs/req vs Σ calls×per-call of the XML layers %.3f µs/req\n",
		r.perReq[lProcess], xmlSum)
	fmt.Fprintf(w, "spans: %d written to %s (render with: go run ./cmd/aontrace -in <file>)\n", r.spans, r.spanFile)
}
