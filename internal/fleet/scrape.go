package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/gateway"
	"repro/internal/session"
	"repro/internal/upstream"
)

// scraper pulls each node's self-reported observability over HTTP and
// feeds it into the merger. Gateways serve a full sampling session on
// GET /timeline (preferred — native 100ms samples with counter views);
// when a gateway runs without -timeline, or for backends (which only
// expose cumulative /stats), the scraper synthesizes windowed samples
// from consecutive snapshot deltas.
type scraper struct {
	client *http.Client
	merger *Merger

	// traces receives every node's tail-sampled spans when the fleet's
	// trace plane is on (nil otherwise).
	traces *TraceStore

	mu       sync.Mutex
	windows  map[string]*session.Windower // node key → /stats delta state
	noTraces map[string]bool              // node key → /traces answered 404 (tracing off)
}

func newScraper(merger *Merger, timeout time.Duration) *scraper {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	return &scraper{
		client:   &http.Client{Timeout: timeout},
		merger:   merger,
		windows:  map[string]*session.Windower{},
		noTraces: map[string]bool{},
	}
}

// getJSON fetches http://<addr><path> and decodes the body into v.
// Non-200 statuses are errors carrying the body's first line.
func (sc *scraper) getJSON(addr, path string, v any) error {
	resp, err := sc.client.Get("http://" + addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		msg := string(body)
		if len(msg) > 200 {
			msg = msg[:200]
		}
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, msg)
	}
	return json.Unmarshal(body, v)
}

// scrapeNode pulls one node's current view into the merger. Load nodes
// have no stats surface and are skipped.
func (sc *scraper) scrapeNode(n *Node) error {
	switch n.Role {
	case RoleGateway:
		if err := sc.scrapeGateway(n); err != nil {
			return err
		}
		return sc.scrapeTraces(n)
	case RoleBackend:
		if err := sc.scrapeBackend(n); err != nil {
			return err
		}
		return sc.scrapeTraces(n)
	default:
		return nil
	}
}

// scrapeTraces pulls a node's tail-sampled traces into the fleet's
// cross-node span store. The rings are cumulative, so re-reads dedup in
// the store. A node without tracing enabled answers 404 once and is
// remembered as trace-less — an attached node running an older build or
// without -trace must not spam the error log every tick.
func (sc *scraper) scrapeTraces(n *Node) error {
	if sc.traces == nil {
		return nil
	}
	key := n.Key()
	sc.mu.Lock()
	skip := sc.noTraces[key]
	sc.mu.Unlock()
	if skip {
		return nil
	}
	resp, err := sc.client.Get("http://" + n.Addr + "/traces")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 32<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode == http.StatusNotFound {
		sc.mu.Lock()
		sc.noTraces[key] = true
		sc.mu.Unlock()
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		msg := string(body)
		if len(msg) > 200 {
			msg = msg[:200]
		}
		return fmt.Errorf("GET /traces: %s: %s", resp.Status, msg)
	}
	var tr gateway.TracesResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		return fmt.Errorf("GET /traces: %w", err)
	}
	for _, t := range tr.Traces {
		sc.traces.AddSpans(t.Spans)
	}
	return nil
}

// scrapeAll sweeps every node once, collecting per-node errors keyed for
// diagnostics. A node that fails to answer one tick is not fatal — it
// may be mid-start or mid-stop; the campaign-level readiness and exit
// checks own liveness.
func (sc *scraper) scrapeAll(nodes []*Node) []error {
	var errs []error
	for _, n := range nodes {
		if err := sc.scrapeNode(n); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", n.Key(), err))
		}
	}
	return errs
}

// scrapeGateway prefers the gateway's own sampling session: every kept
// /timeline sample lands in the merger, dedup suppressing re-reads of
// the ring. Without a timeline it falls back to /stats deltas.
func (sc *scraper) scrapeGateway(n *Node) error {
	var tr gateway.TimelineResponse
	if err := sc.getJSON(n.Addr, "/timeline", &tr); err == nil {
		for _, s := range tr.Samples {
			sc.merger.Add(n.Key(), n.Role, s)
		}
		return nil
	}
	// No sampling session on this gateway — synthesize from /stats.
	var snap gateway.Snapshot
	if err := sc.getJSON(n.Addr, "/stats", &snap); err != nil {
		return err
	}
	sc.mu.Lock()
	s := snap.Sample(sc.window(n))
	sc.mu.Unlock()
	sc.merger.Add(n.Key(), n.Role, s)
	return nil
}

// scrapeBackend turns the backend's cumulative /stats into windowed
// samples: requests become Messages deltas, the latency histogram
// (cumulative, like the gateway's) supplies the percentiles.
func (sc *scraper) scrapeBackend(n *Node) error {
	var bs upstream.BackendStats
	if err := sc.getJSON(n.Addr, "/stats", &bs); err != nil {
		return err
	}
	s := session.Sample{
		TMS:          int64(bs.UptimeSec * 1000),
		LatencyP50US: bs.Latency.P50US,
		LatencyP99US: bs.Latency.P99US,
	}
	sc.mu.Lock()
	sc.window(n).Window(&s, bs.Requests, bs.BytesIn, bs.Dropped)
	sc.mu.Unlock()
	sc.merger.Add(n.Key(), n.Role, s)
	return nil
}

// window returns the node's /stats delta state; the first observation
// lands as a zero-window sample that pins the node's epoch in the merged
// session. Callers hold sc.mu.
func (sc *scraper) window(n *Node) *session.Windower {
	w := sc.windows[n.Key()]
	if w == nil {
		w = new(session.Windower)
		sc.windows[n.Key()] = w
	}
	return w
}

// gatewaySnapshot fetches a gateway's full /stats view — the report
// builder reads throughput, latency, and the capacity model-error
// section from it at each sweep point.
func (sc *scraper) gatewaySnapshot(n *Node) (*gateway.Snapshot, error) {
	var snap gateway.Snapshot
	if err := sc.getJSON(n.Addr, "/stats", &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}
