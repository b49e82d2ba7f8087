package gateway

import (
	"fmt"
	"io"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dtrace"
)

// dtraceState is the gateway side of the distributed tracing plane
// (internal/dtrace): the tail sampler holding kept traces for GET
// /traces, plus the optional rate-limited slow-request log. Where the
// stage tracer aggregates sampled stage latencies into histograms, this
// keeps whole individual requests — every request records spans into a
// pooled recorder, and the *outcome* decides whether the trace
// survives (tail-based sampling: shed/idle-reaped/5xx and slow always,
// 1-in-N otherwise).
type dtraceState struct {
	node string
	tail *dtrace.Tail
	slow *slowLogger
}

func newDtraceState(cfg Config) *dtraceState {
	d := &dtraceState{
		node: cfg.TraceNode,
		tail: dtrace.NewTail(dtrace.TailConfig{
			Capacity:   cfg.TraceCapacity,
			SlowOverUS: slowOverUS(cfg.TraceSlowOver),
			KeepEvery:  cfg.TraceKeepEvery,
		}),
	}
	if d.node == "" {
		d.node = "gateway"
	}
	if cfg.SlowLog != nil {
		perSec := cfg.SlowLogPerSec
		if perSec == 0 {
			perSec = 10
		}
		d.slow = &slowLogger{w: cfg.SlowLog, perSec: perSec}
	}
	return d
}

// slowOverUS maps TraceSlowOver onto dtrace's µs sentinel: negative
// stays off, 0 the default, and a positive bound keeps at least 1µs.
func slowOverUS(d time.Duration) int64 {
	if d <= 0 {
		return int64(d) // keeps the sentinel's sign
	}
	return max(d.Microseconds(), 1)
}

// finish closes a recorder the connection reader still owns — the
// shed/draining/idle-timeout paths, which never reach a worker — and
// hands it to offer.
func (d *dtraceState) finish(rec *dtrace.Recorder, uc, outcome string, status int) {
	rec.Annotate(uc, outcome, status)
	rec.Finish(time.Now())
	d.offer(rec)
}

// offer runs the tail-sampling decision on a completed request's
// recorder, emits the slow-request log line for tail outcomes, and
// recycles the recorder. The annotated root span carries everything the
// decision needs.
func (d *dtraceState) offer(rec *dtrace.Recorder) {
	spans := rec.Spans()
	var outcome string
	var status int
	if len(spans) > 0 {
		outcome, status = spans[0].Outcome, spans[0].Status
	}
	isErr := status >= 500 || outcome == "shed" || outcome == "draining" || outcome == "idle-timeout"
	d.tail.Offer(rec, isErr)
	if isErr && d.slow != nil {
		d.slow.log(spans)
	}
	dtrace.PutRecorder(rec)
}

// slowLogger writes one structured line per tail-outcome request
// (shed, idle-timeout, 5xx), rate-limited per wall-clock second so an
// overload burst can't turn the log into its own overload. It runs
// only on already-slow/shed requests, so its allocations are off the
// hot path by construction.
type slowLogger struct {
	w      io.Writer
	perSec int

	mu      sync.Mutex
	sec     int64
	n       int
	dropped uint64
}

// log formats the request's spans as one key=value line:
//
//	slow-request trace=… uc=… outcome=… status=… total=… read=… queue=…
func (l *slowLogger) log(spans []dtrace.Span) {
	if len(spans) == 0 {
		return
	}
	now := time.Now().Unix()
	l.mu.Lock()
	defer l.mu.Unlock()
	if now != l.sec {
		if l.dropped > 0 {
			fmt.Fprintf(l.w, "slow-request suppressed=%d (rate limit %d/s)\n", l.dropped, l.perSec)
		}
		l.sec, l.n, l.dropped = now, 0, 0
	}
	if l.n >= l.perSec {
		l.dropped++
		return
	}
	l.n++
	root := &spans[0]
	buf := make([]byte, 0, 256)
	buf = append(buf, "slow-request trace="...)
	buf = root.TraceID.AppendHex(buf)
	buf = appendKV(buf, "uc", root.UseCase)
	buf = appendKV(buf, "outcome", root.Outcome)
	buf = append(buf, " status="...)
	buf = strconv.AppendInt(buf, int64(root.Status), 10)
	buf = append(buf, " total="...)
	buf = append(buf, root.Dur().String()...)
	for i := 1; i < len(spans); i++ {
		buf = appendKV(buf, spans[i].Name, spans[i].Dur().String())
	}
	buf = append(buf, '\n')
	l.w.Write(buf)
}

func appendKV(buf []byte, k, v string) []byte {
	if v == "" {
		v = "-"
	}
	buf = append(buf, ' ')
	buf = append(buf, k...)
	buf = append(buf, '=')
	return append(buf, v...)
}

// TraceInfo is the /stats "traces" section: the tail sampler's keep
// accounting. The kept traces themselves are served by GET /traces.
type TraceInfo struct {
	Node string           `json:"node"`
	Tail dtrace.TailStats `json:"tail"`
}

func (s *Server) traceInfo() *TraceInfo {
	if s.dtr == nil {
		return nil
	}
	return &TraceInfo{Node: s.dtr.node, Tail: s.dtr.tail.Stats()}
}

// Traces returns up to n kept traces, oldest first (n <= 0 means all);
// nil when tracing is off.
func (s *Server) Traces(n int) []dtrace.Trace {
	if s.dtr == nil {
		return nil
	}
	return s.dtr.tail.Last(n)
}

// TracesResponse is the GET /traces endpoint's JSON shape — the same
// shape aonback serves, so the fleet scraper and aontrace read both
// ends with one decoder.
type TracesResponse struct {
	Node   string           `json:"node"`
	Tail   dtrace.TailStats `json:"tail"`
	Traces []dtrace.Trace   `json:"traces"`
}

// tracesResponse serves GET /traces?last=N (all kept traces when last
// is absent).
func (s *Server) tracesResponse(query string) (*TracesResponse, error) {
	if s.dtr == nil {
		return nil, fmt.Errorf("tracing disabled (enable Config.Trace / -trace)")
	}
	n := 0
	if query != "" {
		vals, err := url.ParseQuery(query)
		if err != nil {
			return nil, fmt.Errorf("bad query: %v", err)
		}
		if raw := strings.TrimSpace(vals.Get("last")); raw != "" {
			n, err = strconv.Atoi(raw)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("bad last=%q, want a non-negative integer", raw)
			}
		}
	}
	return &TracesResponse{
		Node:   s.dtr.node,
		Tail:   s.dtr.tail.Stats(),
		Traces: s.dtr.tail.Last(n),
	}, nil
}
