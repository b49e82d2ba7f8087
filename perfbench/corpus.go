package main

import (
	"bytes"
	"fmt"
	"strconv"

	"repro/internal/dtrace"
	"repro/internal/httpmsg"
	"repro/internal/workload"
	"repro/internal/xj"
	"repro/internal/xmldom"
)

// corpusSize is the number of distinct messages per workload. It is a
// multiple of every pattern period below (3 use cases, every third SV
// message invalid, 1 in 16 requests traced, FR/CBR blocks of four), so
// each period is equally represented when the client cycles the corpus.
const corpusSize = 144

// traceEvery is the fwd-traced client's trace-origination period, and
// the gateway's -trace-every stage-sampling period on that workload.
const traceEvery = 16

// backendRespBytes is the aonback -resp-size the forwarding workload
// runs with; an ack body is then exactly backendRespBytes+1 bytes.
const backendRespBytes = 128

// spec describes one workload: the traffic mix and how the gateway runs.
type spec struct {
	name    string
	size    int  // approximate SOAP body bytes handed to the generator
	forward bool // run two aonback endpoints and forward to them
	traced  bool // gateway -trace/-trace-every, client injects X-AON-Trace
	mix     func(i int) workload.UseCase
}

var specs = []spec{
	{
		name: "fr-min",
		size: 0,
		mix:  func(int) workload.UseCase { return workload.FR },
	},
	{
		name: "xml-mix",
		size: workload.MessageBytes,
		mix: func(i int) workload.UseCase {
			return [...]workload.UseCase{workload.CBR, workload.SV, workload.XJ}[i%3]
		},
	},
	{
		name:    "fwd-traced",
		size:    workload.MessageBytes,
		forward: true,
		traced:  true,
		// Blocks of four (FR, FR, CBR, CBR) put CBR on both generator
		// index parities, so both routes are hit.
		mix: func(i int) workload.UseCase {
			if i&2 == 0 {
				return workload.FR
			}
			return workload.CBR
		},
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// message is one corpus entry: the exact request bytes the client sends
// and the response the oracle expects for it.
type message struct {
	uc      workload.UseCase
	body    []byte // the SOAP body inside req
	req     []byte // the full HTTP request
	status  int
	outcome string // X-AON-Outcome
	route   string // X-AON-Route
	// want is the exact response body for in-place answers. Forwarded
	// answers are backend acks, whose sequence numbers depend on arrival
	// order; they are checked by shape (see ackOK).
	want []byte
}

// buildCorpus generates the workload's messages from seed. The same seed
// gives byte-identical requests and expectations.
func buildCorpus(s spec, seed uint64) ([]message, error) {
	out := make([]message, corpusSize)
	nsv := 0
	ids := splitmix(seed ^ 0xA0761D6478BD642F)
	for i := range out {
		uc := s.mix(i)
		body := workload.SOAPMessageSeeded(i, s.size, seed)
		valid := true
		if uc == workload.SV {
			if nsv%3 == 2 {
				body = workload.InvalidSOAPMessageSeeded(i, s.size, seed)
				valid = false
			}
			nsv++
		}
		m := message{uc: uc, body: body, req: formatRequest(uc, body), status: 200}
		if s.traced && i%traceEvery == traceEvery-1 {
			m.req = dtrace.InjectHeader(nil, m.req, dtrace.ID(ids.next()|1), dtrace.ID(ids.next()|1))
		}
		if err := expect(&m, valid, s.forward); err != nil {
			return nil, fmt.Errorf("corpus %s message %d: %w", s.name, i, err)
		}
		out[i] = m
	}
	return out, nil
}

// formatRequest wraps body in the POST the gateway's clients send,
// selecting the use case by path.
func formatRequest(uc workload.UseCase, body []byte) []byte {
	return httpmsg.FormatRequest(&httpmsg.Request{
		Method: "POST",
		Target: "/service/" + uc.String(),
		Proto:  "HTTP/1.1",
		Headers: []httpmsg.Header{
			{Name: "Host", Value: "aon-gw.example.com"},
			{Name: "Content-Type", Value: "text/xml; charset=utf-8"},
			{Name: "SOAPAction", Value: `"urn:purchaseOrder"`},
			{Name: "Content-Length", Value: strconv.Itoa(len(body))},
		},
		Body: body,
	})
}

// expect fills in the oracle for m. Routing is derived from the message
// itself (the first <quantity> text for CBR, the generator's validity for
// SV), not from the gateway's evaluator; the XJ body is xj.Translate over
// the DOM parser's tree, the reference the live stream-parser path must
// reproduce byte for byte.
func expect(m *message, valid, forward bool) error {
	switch m.uc {
	case workload.FR:
		m.outcome, m.route = "forwarded", "order"
	case workload.CBR:
		if firstQuantity(m.body) == "1" {
			m.outcome, m.route = "match", "order"
		} else {
			m.outcome, m.route = "error", "error"
		}
	case workload.SV:
		if valid {
			m.outcome, m.route = "valid", "order"
		} else {
			m.outcome, m.route = "error", "error"
		}
	case workload.XJ:
		m.outcome, m.route = "translated", "order"
		doc, err := xmldom.Parse(m.body)
		if err != nil {
			return fmt.Errorf("reference parse: %w", err)
		}
		if m.want, err = xj.Translate(doc); err != nil {
			return fmt.Errorf("reference translate: %w", err)
		}
		return nil
	default:
		return fmt.Errorf("use case %v has no oracle", m.uc)
	}
	if !forward {
		m.want = []byte(`{"usecase":"` + m.uc.String() + `","outcome":"` + m.outcome + `","route":"` + m.route + `"}`)
	}
	return nil
}

// firstQuantity returns the text of the first <quantity> element, the
// value //quantity/text() selects on the generator's messages.
func firstQuantity(body []byte) string {
	const open, close = "<quantity>", "</quantity>"
	i := bytes.Index(body, []byte(open))
	if i < 0 {
		return ""
	}
	rest := body[i+len(open):]
	j := bytes.Index(rest, []byte(close))
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}

// ackOK reports whether body is the ack aonback -name route -resp-size
// backendRespBytes sends: {"backend":"<route>","seq":…,"pad":"x…"},
// padded to exactly backendRespBytes+1 bytes.
func ackOK(body []byte, route string) bool {
	const prefix, seq = `{"backend":"`, `","seq":`
	if len(body) != backendRespBytes+1 || !bytes.HasSuffix(body, []byte(`"}`)) {
		return false
	}
	if !bytes.HasPrefix(body, []byte(prefix)) {
		return false
	}
	rest := body[len(prefix):]
	return len(rest) > len(route) && string(rest[:len(route)]) == route &&
		bytes.HasPrefix(rest[len(route):], []byte(seq))
}

// splitmix is a seeded 64-bit generator for the benchmark's own draws
// (trace IDs); the message bytes come from the workload generator.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
