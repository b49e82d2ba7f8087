package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// conn is one closed-loop keep-alive client connection. It writes a
// request, reads the whole response into a fixed buffer and checks it
// against the oracle before sending the next one; in steady state a
// round trip allocates nothing, so the client's GC does not compete with
// the gateway for the host's cores.
type conn struct {
	c        net.Conn
	buf      []byte
	backends map[string]string // route → backend address (forwarding only)
}

func dial(addr string, backends map[string]string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, buf: make([]byte, 64<<10), backends: backends}, nil
}

func (k *conn) Close() error { return k.c.Close() }

var errProtocol = errors.New("malformed response")

// roundTrip sends m and returns the response status and whether the
// response matched the oracle. A transport or framing error is returned
// as err; the connection is then unusable.
func (k *conn) roundTrip(m *message) (status int, ok bool, err error) {
	if _, err := k.c.Write(m.req); err != nil {
		return 0, false, err
	}
	r, body, err := k.read()
	if err != nil {
		return 0, false, err
	}
	return r.status, k.check(&r, body, m), nil
}

// read reads one whole response into the connection's buffer and returns
// its parsed header and a view of its body.
func (k *conn) read() (respHead, []byte, error) {
	n := 0
	hdrEnd := -1
	for hdrEnd < 0 {
		if n == len(k.buf) {
			return respHead{}, nil, errProtocol
		}
		r, err := k.c.Read(k.buf[n:])
		if err != nil {
			return respHead{}, nil, err
		}
		n += r
		hdrEnd = bytes.Index(k.buf[:n], crlf2)
	}
	r, err := parseHead(k.buf[:hdrEnd])
	if err != nil {
		return r, nil, err
	}
	total := hdrEnd + 4 + r.clen
	if total > len(k.buf) {
		return r, nil, errProtocol
	}
	for n < total {
		m, err := k.c.Read(k.buf[n:total])
		if err != nil {
			return r, nil, err
		}
		n += m
	}
	if n != total {
		return r, nil, errProtocol // unsolicited bytes after the response
	}
	return r, k.buf[hdrEnd+4 : total], nil
}

func (k *conn) check(r *respHead, body []byte, m *message) bool {
	if r.status != m.status || string(r.outcome) != m.outcome || string(r.route) != m.route {
		return false
	}
	if k.backends == nil {
		return bytes.Equal(body, m.want)
	}
	return string(r.backend) == k.backends[m.route] && ackOK(body, m.route)
}

var crlf2 = []byte("\r\n\r\n")

// respHead holds views into a response header block.
type respHead struct {
	status  int
	clen    int
	outcome []byte
	route   []byte
	backend []byte
}

// parseHead parses a status line and header block (without the final
// blank line) into views, allocating nothing.
func parseHead(b []byte) (respHead, error) {
	var r respHead
	line, rest, _ := bytes.Cut(b, crlf)
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) || line[8] != ' ' {
		return r, errProtocol
	}
	for _, c := range line[9:12] {
		if c < '0' || c > '9' {
			return r, errProtocol
		}
		r.status = r.status*10 + int(c-'0')
	}
	r.clen = -1
	for len(rest) > 0 {
		line, rest, _ = bytes.Cut(rest, crlf)
		name, val, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return r, errProtocol
		}
		val = bytes.TrimSpace(val)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			n, ok := atoi(val)
			if !ok {
				return r, errProtocol
			}
			r.clen = n
		case bytes.EqualFold(name, []byte("X-AON-Outcome")):
			r.outcome = val
		case bytes.EqualFold(name, []byte("X-AON-Route")):
			r.route = val
		case bytes.EqualFold(name, []byte("X-AON-Backend")):
			r.backend = val
		}
	}
	if r.clen < 0 {
		return r, errProtocol
	}
	return r, nil
}

var crlf = []byte("\r\n")

func atoi(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 9 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// loadResult is what one closed-loop phase observed.
type loadResult struct {
	attempted, correct, wrong, shed int
	// samples packs each correct response as completion offset from the
	// phase start in µs (high 32 bits) and latency in ns (low 32 bits).
	samples [][]uint64 // one slice per connection
	elapsed time.Duration
	err     error
}

// runLoad drives every connection in a closed loop from start for d.
// Connection i walks the corpus from its own offset. Errors stop the
// phase: a closed loop that lost a connection no longer measures the same
// load.
func runLoad(conns []*conn, corpus []message, start time.Time, d time.Duration, keep bool) loadResult {
	type part struct {
		attempted, correct, wrong, shed int
		samples                         []uint64
		err                             error
	}
	parts := make([]part, len(conns))
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, k := range conns {
		wg.Add(1)
		go func(p *part, k *conn, off int) {
			defer wg.Done()
			if keep {
				p.samples = make([]uint64, 0, int(d.Seconds()*60000)/len(conns)+1024)
			}
			for j := off; ; j++ {
				m := &corpus[j%len(corpus)]
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				p.attempted++
				status, ok, err := k.roundTrip(m)
				if err != nil {
					p.err = err
					return
				}
				t1 := time.Now()
				if !ok {
					p.wrong++
					if status == 503 {
						p.shed++
					}
					continue
				}
				p.correct++
				if keep {
					lat := t1.Sub(t0)
					if lat > 0xFFFFFFFF {
						lat = 0xFFFFFFFF
					}
					p.samples = append(p.samples, uint64(t1.Sub(start)/time.Microsecond)<<32|uint64(lat))
				}
			}
		}(&parts[i], k, i*len(corpus)/len(conns))
	}
	wg.Wait()
	res := loadResult{elapsed: time.Since(start)}
	for _, p := range parts {
		res.attempted += p.attempted
		res.correct += p.correct
		res.wrong += p.wrong
		res.shed += p.shed
		res.samples = append(res.samples, p.samples)
		if p.err != nil && res.err == nil {
			res.err = fmt.Errorf("load connection: %w", p.err)
		}
	}
	return res
}
