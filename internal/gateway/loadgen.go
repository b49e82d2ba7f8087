package gateway

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dtrace"
	"repro/internal/httpmsg"
	"repro/internal/workload"
)

// Client is a single keep-alive connection speaking the gateway protocol —
// the unit the load generator multiplies.
type Client struct {
	c  net.Conn
	br *bufio.Reader
}

// Dial opens one connection to a gateway.
func Dial(addr string) (*Client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{c: c, br: bufio.NewReaderSize(c, 32<<10)}, nil
}

// Close tears the connection down.
func (cl *Client) Close() error { return cl.c.Close() }

// ClientResp is one parsed gateway response.
type ClientResp struct {
	Status  int
	Route   string // X-AON-Route: "order" or "error"
	Outcome string // X-AON-Outcome: forwarded|match|error|valid|parse-error
	Body    []byte
	Bytes   int // wire bytes read
}

// Do writes one raw request and reads the response.
func (cl *Client) Do(raw []byte, timeout time.Duration) (*ClientResp, error) {
	if timeout > 0 {
		cl.c.SetDeadline(time.Now().Add(timeout))
	}
	if _, err := cl.c.Write(raw); err != nil {
		return nil, err
	}
	return readResponse(cl.br)
}

// readResponse parses a status line, headers, and Content-Length body.
// Header lines are scanned as ReadSlice views (no per-line allocation);
// ClientResp and Body are fresh allocations because callers keep them
// across requests.
func readResponse(br *bufio.Reader) (*ClientResp, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	resp := &ClientResp{Bytes: len(line)}
	sl := bytes.TrimRight(line, "\r\n")
	sp1 := bytes.IndexByte(sl, ' ')
	if sp1 < 0 || !bytes.HasPrefix(sl, []byte("HTTP/1.")) {
		return nil, fmt.Errorf("gateway: malformed status line %q", line)
	}
	status := sl[sp1+1:]
	if i := bytes.IndexByte(status, ' '); i >= 0 {
		status = status[:i]
	}
	resp.Status, err = strconv.Atoi(string(status))
	if err != nil {
		return nil, fmt.Errorf("gateway: bad status %q", status)
	}
	clen := 0
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return nil, err
		}
		resp.Bytes += len(line)
		h := bytes.TrimRight(line, "\r\n")
		if len(h) == 0 {
			break
		}
		i := bytes.IndexByte(h, ':')
		if i <= 0 {
			continue
		}
		name, val := bytes.TrimSpace(h[:i]), bytes.TrimSpace(h[i+1:])
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			clen, _ = strconv.Atoi(string(val))
		case bytes.EqualFold(name, []byte(RouteHeader)):
			resp.Route = internToken(val)
		case bytes.EqualFold(name, []byte("X-AON-Outcome")):
			resp.Outcome = internToken(val)
		}
	}
	if clen > 0 {
		resp.Body = make([]byte, clen)
		if _, err := io.ReadFull(br, resp.Body); err != nil {
			return nil, err
		}
		resp.Bytes += clen
	}
	return resp, nil
}

// internToken maps the small closed set of route/outcome header values
// to static strings, so the client's per-response accounting does not
// allocate. Unknown values still get a fresh copy.
func internToken(b []byte) string {
	for _, s := range [...]string{
		"order", "error", "forwarded", "match", "valid", "translated", "parse-error",
	} {
		if string(b) == s { // compiled to an alloc-free comparison
			return s
		}
	}
	return string(b)
}

// LoadConfig parameterizes one load-generation run.
type LoadConfig struct {
	Addr    string
	UseCase workload.UseCase
	// Conns is the number of concurrent keep-alive connections (default 1).
	Conns int
	// Messages caps the run at a total message count (0 = unlimited,
	// Duration governs). Every send attempt, failed ones included, draws
	// from it.
	Messages int
	// Duration caps the run at wall time (0 = unlimited, Messages
	// governs; both 0 defaults to 1000 messages in RunLoad).
	Duration time.Duration
	// Size is the approximate POST body size (0 = the paper's 5 KB).
	Size int
	// InvalidEvery makes every Nth message schema-invalid (0 = never) so
	// the SV pipeline exercises both verdicts.
	InvalidEvery int
	// Timeout bounds each request round trip (default 30s).
	Timeout time.Duration
	// Seed perturbs the deterministic message generators (0 = the legacy
	// stream), so distinct campaign runs can drive distinct but
	// reproducible traffic.
	Seed uint64
	// TraceEvery originates a distributed trace on every Nth request per
	// connection (0 = never): an X-AON-Trace header is injected so the
	// gateway adopts the client's trace ID, and the client's own
	// request span lands in Report.ClientSpans — the client leg of
	// cross-node trace assembly.
	TraceEvery int
	// TraceNode names this load generator in client spans (default
	// "client").
	TraceNode string
}

// Tally is the client-side outcome accounting of a load run: what was
// sent and how the gateway answered. Report and the campaign's phase
// report embed it, so both carry the same keys.
type Tally struct {
	Sent        uint64 `json:"sent"`
	OK          uint64 `json:"ok_200"`
	Shed        uint64 `json:"shed_503"`
	HTTPErrors  uint64 `json:"http_errors"`
	NetErrors   uint64 `json:"net_errors"`
	Forwarded   uint64 `json:"forwarded"`
	Match       uint64 `json:"routed_match"`
	RoutedError uint64 `json:"routed_error"`
	Valid       uint64 `json:"validation_ok"`
	Translated  uint64 `json:"translated"`
	ParseErrors uint64 `json:"parse_errors"`
}

// count classifies one delivered response.
func (t *Tally) count(resp *ClientResp) {
	t.Sent++
	switch {
	case resp.Status == 200:
		t.OK++
		switch resp.Outcome {
		case "forwarded":
			t.Forwarded++
		case "match":
			t.Match++
		case "error":
			t.RoutedError++
		case "valid":
			t.Valid++
		case "translated":
			t.Translated++
		}
	case resp.Status == 503:
		t.Shed++
	default:
		t.HTTPErrors++
		if resp.Outcome == "parse-error" || resp.Status == 400 {
			t.ParseErrors++
		}
	}
}

// Report is the load generator's final accounting, emitted as JSON by
// cmd/aonload so one command per side yields a complete run record.
type Report struct {
	UseCase     string  `json:"usecase"`
	Conns       int     `json:"conns"`
	SizeBytes   int     `json:"size_bytes"`
	DurationSec float64 `json:"duration_sec"`
	Tally
	BytesOut   uint64       `json:"bytes_out"`
	BytesIn    uint64       `json:"bytes_in"`
	MsgsPerSec float64      `json:"msgs_per_sec"`
	Mbps       float64      `json:"mbps"` // request payload bits per second
	Latency    HistSnapshot `json:"latency"`
	// ClientSpans holds the client-side request spans of originated
	// traces (TraceEvery > 0), bounded so a long run can't grow the
	// report without limit. aontrace and the fleet coordinator join them
	// with gateway/backend spans by trace ID.
	ClientSpans []dtrace.Span `json:"client_spans,omitempty"`
}

// Client-span bounds: per connection and per merged report.
const (
	maxConnClientSpans   = 1024
	maxReportClientSpans = 4096
)

// poolSize is the number of distinct pre-generated messages a sender
// set cycles through: generation stays off the hot path while caches
// still see varied content.
const poolSize = 64

// redialBackoff paces a sender's reconnects after a network error.
const redialBackoff = 50 * time.Millisecond

// RunLoad drives a gateway with Conns concurrent connections posting
// AONBench order documents, open-loop with keep-alive, and reports
// throughput, latency percentiles, and outcome counts.
func RunLoad(cfg LoadConfig) (Report, error) {
	if cfg.Conns <= 0 {
		cfg.Conns = 1
	}
	if cfg.Messages <= 0 && cfg.Duration <= 0 {
		cfg.Messages = 1000
	}
	s := NewSenders(cfg)
	start := time.Now()
	s.Resize(cfg.Conns)
	s.wg.Wait()

	rep := s.Report()
	rep.UseCase = cfg.UseCase.String()
	rep.Conns = cfg.Conns
	rep.SizeBytes = s.cfg.Size
	rep.DurationSec = time.Since(start).Seconds()
	if rep.DurationSec > 0 {
		rep.MsgsPerSec = float64(rep.OK) / rep.DurationSec
		rep.Mbps = float64(rep.BytesOut) * 8 / 1e6 / rep.DurationSec
	}
	if rep.Sent == 0 && rep.NetErrors > 0 {
		return rep, fmt.Errorf("gateway: no messages delivered to %s", cfg.Addr)
	}
	return rep, nil
}

// Senders is a resizable set of keep-alive load senders: RunLoad runs a
// fixed width of them, the campaign envelope resizes them tick by tick.
// All senders draw from one request counter, so the j-th request of the
// set is pool[j mod 64] whichever sender sends it, and a Messages bound
// ends the set after exactly that many attempts.
type Senders struct {
	cfg      LoadConfig
	pool     [][]byte
	deadline time.Time // zero = no Duration bound

	next  atomic.Int64    // shared request counter
	live  atomic.Int64    // running senders
	stops []chan struct{} // Resize's caller only
	wg    sync.WaitGroup
	hist  Hist

	mu  sync.Mutex
	acc Report // exited senders' accounting
}

// NewSenders pre-generates the request pool and returns an empty set;
// Resize starts senders. cfg.Conns is ignored, and a Duration bound
// counts from this call.
func NewSenders(cfg LoadConfig) *Senders {
	if cfg.Size <= 0 {
		cfg.Size = workload.MessageBytes
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.TraceNode == "" {
		cfg.TraceNode = "client"
	}
	// Indices keep workload.SOAPMessage's deterministic i%2 CBR split;
	// InvalidEvery swaps in a schema-broken body at the same size.
	pool := make([][]byte, poolSize)
	for i := range pool {
		if cfg.InvalidEvery > 0 && i%cfg.InvalidEvery == cfg.InvalidEvery-1 {
			pool[i] = RawPost(cfg.UseCase, workload.InvalidSOAPMessageSeeded(i, cfg.Size, cfg.Seed))
		} else {
			pool[i] = workload.HTTPRequestSeeded(i, cfg.UseCase, cfg.Size, cfg.Seed)
		}
	}
	s := &Senders{cfg: cfg, pool: pool}
	if cfg.Duration > 0 {
		s.deadline = time.Now().Add(cfg.Duration)
	}
	return s
}

// Resize brings the sender count to n (n < 0 counts as 0). A removed
// sender finishes its in-flight request, then exits; one whose first
// dial failed keeps its slot until removed. Call from one goroutine.
func (s *Senders) Resize(n int) {
	for len(s.stops) < n {
		stop := make(chan struct{})
		s.stops = append(s.stops, stop)
		s.wg.Add(1)
		s.live.Add(1)
		go s.run(stop)
	}
	for len(s.stops) > n && len(s.stops) > 0 {
		close(s.stops[len(s.stops)-1])
		s.stops = s.stops[:len(s.stops)-1]
	}
}

// Stop removes every sender and waits for all of them to exit.
func (s *Senders) Stop() {
	s.Resize(0)
	s.wg.Wait()
}

// Report returns the accounting of every sender that has exited, with
// the latency of all answered requests; after Stop it covers the whole
// set. Only the Tally, byte counts, latency and client spans are set.
func (s *Senders) Report() Report {
	s.mu.Lock()
	rep := s.acc
	s.mu.Unlock()
	rep.Latency = s.hist.Snapshot()
	return rep
}

// run is one sender: it picks each request from the shared counter,
// originates a trace on every TraceEvery-th one, and counts the answer.
// A first dial that fails ends the sender at once; a later network
// error closes the connection and redials after redialBackoff.
func (s *Senders) run(stop <-chan struct{}) {
	defer s.wg.Done()
	defer s.live.Add(-1)
	var local Report
	defer s.merge(&local)
	cl, err := Dial(s.cfg.Addr)
	if err != nil {
		local.NetErrors++
		return
	}
	defer func() {
		if cl != nil {
			cl.Close()
		}
	}()
	var trbuf []byte // trace-injected request scratch, reused
	k := 0           // this sender's requests, for TraceEvery
	for {
		select {
		case <-stop:
			return
		default:
		}
		j := s.next.Add(1) - 1
		if s.cfg.Messages > 0 && j >= int64(s.cfg.Messages) {
			return
		}
		if !s.deadline.IsZero() && !time.Now().Before(s.deadline) {
			return
		}
		if cl == nil {
			select {
			case <-stop:
				return
			case <-time.After(redialBackoff):
			}
			if cl, err = Dial(s.cfg.Addr); err != nil {
				local.NetErrors++
				continue
			}
		}
		raw := s.pool[j%poolSize]
		// Inject the trace context into a scratch copy: the shared pool
		// entry is never mutated.
		var traceID, spanID dtrace.ID
		traced := s.cfg.TraceEvery > 0 && k%s.cfg.TraceEvery == 0
		k++
		if traced {
			traceID, spanID = dtrace.NewID(), dtrace.NewID()
			trbuf = dtrace.InjectHeader(trbuf[:0], raw, traceID, spanID)
			raw = trbuf
		}
		t0 := time.Now()
		resp, err := cl.Do(raw, s.cfg.Timeout)
		if traced && len(local.ClientSpans) < maxConnClientSpans {
			sp := dtrace.Span{
				TraceID: traceID,
				SpanID:  spanID,
				Node:    s.cfg.TraceNode,
				Name:    "request",
				StartUS: t0.UnixMicro(),
				DurUS:   time.Since(t0).Microseconds(),
			}
			if err == nil {
				sp.Outcome, sp.Status = resp.Outcome, resp.Status
			} else {
				sp.Outcome = "net-error"
			}
			local.ClientSpans = append(local.ClientSpans, sp)
		}
		if err != nil {
			local.NetErrors++
			cl.Close()
			cl = nil
			continue
		}
		if resp.Status == 200 {
			s.hist.Observe(time.Since(t0))
		}
		local.count(resp)
		local.BytesOut += uint64(len(raw))
		local.BytesIn += uint64(resp.Bytes)
	}
}

// RawPost wraps an arbitrary body in the standard AON POST — the same
// framing workload.HTTPRequest emits, for callers (the campaign runner,
// invalid-message pools) that bring their own body.
func RawPost(uc workload.UseCase, body []byte) []byte {
	return httpmsg.FormatRequest(&httpmsg.Request{
		Method: "POST",
		Target: fmt.Sprintf("/service/%s", uc),
		Proto:  "HTTP/1.1",
		Headers: []httpmsg.Header{
			{Name: "Host", Value: "aon-gw.example.com"},
			{Name: "Content-Type", Value: "text/xml; charset=utf-8"},
			{Name: "Connection", Value: "keep-alive"},
			{Name: "Content-Length", Value: fmt.Sprint(len(body))},
		},
		Body: body,
	})
}

// merge folds one exited sender's accounting into the set's.
func (s *Senders) merge(src *Report) {
	s.mu.Lock()
	defer s.mu.Unlock()
	dst := &s.acc
	t, o := &dst.Tally, &src.Tally
	t.Sent += o.Sent
	t.OK += o.OK
	t.Shed += o.Shed
	t.HTTPErrors += o.HTTPErrors
	t.NetErrors += o.NetErrors
	t.Forwarded += o.Forwarded
	t.Match += o.Match
	t.RoutedError += o.RoutedError
	t.Valid += o.Valid
	t.Translated += o.Translated
	t.ParseErrors += o.ParseErrors
	dst.BytesOut += src.BytesOut
	dst.BytesIn += src.BytesIn
	if room := maxReportClientSpans - len(dst.ClientSpans); room > 0 {
		spans := src.ClientSpans
		if len(spans) > room {
			spans = spans[:room]
		}
		dst.ClientSpans = append(dst.ClientSpans, spans...)
	}
}
