package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/dtrace"
	"repro/internal/gateway"
	"repro/internal/httpmsg"
	"repro/internal/workload"
)

func TestCorpusDeterministicPerSeed(t *testing.T) {
	for _, s := range specs {
		a, err := buildCorpus(s, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildCorpus(s, 7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := buildCorpus(s, 8)
		if err != nil {
			t.Fatal(err)
		}
		differs := false
		for i := range a {
			if !bytes.Equal(a[i].req, b[i].req) || !bytes.Equal(a[i].want, b[i].want) ||
				a[i].outcome != b[i].outcome || a[i].route != b[i].route {
				t.Fatalf("%s: message %d differs between two builds with seed 7", s.name, i)
			}
			differs = differs || !bytes.Equal(a[i].req, c[i].req)
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 gave identical corpora", s.name)
		}
	}
}

// TestOracleCoversEveryVerdict checks that each workload's corpus holds
// the use cases and verdicts it was chosen for.
func TestOracleCoversEveryVerdict(t *testing.T) {
	want := map[string][]string{
		"fr-min":     {"FR forwarded order"},
		"xml-mix":    {"CBR match order", "CBR error error", "SV valid order", "SV error error", "XJ translated order"},
		"fwd-traced": {"FR forwarded order", "CBR match order", "CBR error error"},
	}
	for _, s := range specs {
		corpus, err := buildCorpus(s, 3)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]int{}
		traced := 0
		for _, m := range corpus {
			seen[m.uc.String()+" "+m.outcome+" "+m.route]++
			if bytes.Contains(m.req, []byte(dtrace.Header+": ")) {
				traced++
			}
		}
		if len(seen) != len(want[s.name]) {
			t.Errorf("%s: verdicts %v, want exactly %v", s.name, seen, want[s.name])
		}
		for _, v := range want[s.name] {
			if seen[v] == 0 {
				t.Errorf("%s: no message with verdict %q (have %v)", s.name, v, seen)
			}
		}
		if wantTraced := b2i(s.traced) * len(corpus) / traceEvery; traced != wantTraced {
			t.Errorf("%s: %d traced requests, want %d", s.name, traced, wantTraced)
		}
	}
}

// TestOracleAgreesWithPipeline runs every corpus message through the
// gateway's pipeline and checks the oracle's outcome, and for XJ the
// exact translated body.
func TestOracleAgreesWithPipeline(t *testing.T) {
	pipe, err := gateway.NewPipeline(workload.FR, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		corpus, err := buildCorpus(s, 5)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range corpus {
			var req httpmsg.Request
			if err := httpmsg.ParseRequestInto(m.req, &req); err != nil {
				t.Fatalf("%s %d: %v", s.name, i, err)
			}
			out := pipe.Process(pipe.SelectUseCase(req.Target), &req)
			if out.String() != m.outcome {
				t.Errorf("%s %d (%v): pipeline says %s, oracle %s", s.name, i, m.uc, out, m.outcome)
			}
			if m.uc == workload.XJ && !bytes.Equal(req.Body, m.want) {
				t.Errorf("%s %d: XJ body differs from the oracle", s.name, i)
			}
		}
	}
}

func TestOracleRejectsWrongAnswers(t *testing.T) {
	corpus, err := buildCorpus(specs[1], 1)
	if err != nil {
		t.Fatal(err)
	}
	m := &corpus[0]
	k := &conn{}
	good := respHead{status: 200, outcome: []byte(m.outcome), route: []byte(m.route)}
	if !k.check(&good, m.want, m) {
		t.Fatal("correct response rejected")
	}
	for name, r := range map[string]respHead{
		"status":  {status: 503, outcome: good.outcome, route: good.route},
		"outcome": {status: 200, outcome: []byte("valid"), route: good.route},
		"route":   {status: 200, outcome: good.outcome, route: []byte("nowhere")},
	} {
		if k.check(&r, m.want, m) {
			t.Errorf("wrong %s accepted", name)
		}
	}
	if k.check(&good, append(bytes.Clone(m.want), ' '), m) {
		t.Error("wrong body accepted")
	}

	fwd := &conn{backends: map[string]string{"order": "127.0.0.1:1", "error": "127.0.0.1:2"}}
	ack := []byte(`{"backend":"order","seq":12,"requests":13,"pad":"`)
	ack = append(ack, bytes.Repeat([]byte("x"), backendRespBytes+1-len(ack)-2)...)
	ack = append(ack, `"}`...)
	fm := &message{status: 200, outcome: "forwarded", route: "order"}
	fr := respHead{status: 200, outcome: []byte("forwarded"), route: []byte("order"), backend: []byte("127.0.0.1:1")}
	if !fwd.check(&fr, ack, fm) {
		t.Fatalf("correct ack rejected: %s", ack)
	}
	fr.backend = []byte("127.0.0.1:2")
	if fwd.check(&fr, ack, fm) {
		t.Error("ack from the wrong backend accepted")
	}
	if ackOK(ack[:len(ack)-1], "order") || ackOK(ack, "error") {
		t.Error("malformed or misrouted ack accepted")
	}
}

func TestParseHead(t *testing.T) {
	head := []byte("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nX-AON-Route: order\r\n" +
		"x-aon-outcome:  match \r\nContent-Length: 51")
	r, err := parseHead(head)
	if err != nil {
		t.Fatal(err)
	}
	if r.status != 200 || r.clen != 51 || string(r.outcome) != "match" || string(r.route) != "order" {
		t.Errorf("parsed %+v", r)
	}
	for _, bad := range []string{"HTTP/1.1 2x0 OK\r\nContent-Length: 1", "HTTP/1.1 200 OK", "HTTP/1.1 200 OK\r\nbroken"} {
		if _, err := parseHead([]byte(bad)); err == nil {
			t.Errorf("%q parsed", bad)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = parseHead(head) }); n != 0 {
		t.Errorf("parseHead allocates %v times", n)
	}
}

func TestPercentileAndSampleCount(t *testing.T) {
	v := make([]int64, 1000)
	for i := range v {
		v[i] = int64(i + 1)
	}
	for _, c := range []struct {
		q      float64
		want   int64
		beyond int
	}{{0.5, 500, 500}, {0.99, 990, 10}, {0.999, 999, 1}, {1, 1000, 0}} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("p%v = %d, want %d", c.q, got, c.want)
		}
		if got := beyond(len(v), c.q); got != c.beyond {
			t.Errorf("beyond(p%v) = %d, want %d", c.q, got, c.beyond)
		}
	}
	if percentile([]int64{7}, 0.99) != 7 || percentile(nil, 0.5) != 0 {
		t.Error("degenerate inputs")
	}
	if median([]float64{3, 1, 2}) != 2 || median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Error("median")
	}
}

func TestWindows(t *testing.T) {
	pack := func(at, lat time.Duration) uint64 { return uint64(at/time.Microsecond)<<32 | uint64(lat) }
	parts := [][]uint64{
		{pack(100*time.Millisecond, 10), pack(900*time.Millisecond, 30)},
		{pack(1500*time.Millisecond, 50), pack(2500*time.Millisecond, 70)}, // last is past the span
	}
	w := windows(parts, 2*time.Second, time.Second)
	if len(w) != 2 {
		t.Fatalf("%d windows", len(w))
	}
	if w[0].n != 2 || w[0].rps != 2 || w[0].p50 != 10 || w[0].p99 != 30 {
		t.Errorf("window 0: %+v", w[0])
	}
	if w[1].n != 1 || w[1].p50 != 50 {
		t.Errorf("window 1: %+v", w[1])
	}
}

func TestProcParsing(t *testing.T) {
	stat := []byte("4242 (aon gate (x)) S 1 4242 4242 0 -1 4194560 915 0 0 0 123 45 0 0 20 0 7 0 100 0 0\n")
	cpu, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 168 * time.Second / clockTicks; cpu != want {
		t.Errorf("cpu %v, want %v", cpu, want)
	}
	if _, err := parseStatCPU([]byte("4242 (x) S 1 2")); err == nil {
		t.Error("short stat line parsed")
	}

	io := []byte("rchar: 3980\nwchar: 0\nsyscr: 9\nsyscw: 4\nread_bytes: 0\n")
	if n, err := parseIOSyscalls(io); err != nil || n != 13 {
		t.Errorf("syscalls %d, %v", n, err)
	}
	if _, err := parseIOSyscalls([]byte("syscr: 9\n")); err == nil {
		t.Error("io without syscw parsed")
	}

	status := []byte("Name:\taongate\nVmPeak:\t  720000 kB\nVmHWM:\t   11692 kB\nVmRSS:\t   11000 kB\n")
	if kb, err := parseStatusKB(status, "VmHWM"); err != nil || kb != 11692 {
		t.Errorf("VmHWM %d, %v", kb, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("missing key parsed")
	}
}

func TestListenAddr(t *testing.T) {
	for line, want := range map[string]string{
		"aongate: listening on 127.0.0.1:40017 (usecase=FR workers=2)\n":      "127.0.0.1:40017",
		"aonback: order endpoint listening on 127.0.0.1:40019 (resp-size=128": "127.0.0.1:40019",
	} {
		if got, ok := listenAddr(line); !ok || got != want {
			t.Errorf("%q → %q %v", line, got, ok)
		}
	}
	if _, ok := listenAddr("aongate: draining..."); ok {
		t.Error("non-startup line matched")
	}
}

// TestReadSelf exercises readProc on the test process itself.
func TestReadSelf(t *testing.T) {
	s, err := readProc(os.Getpid())
	if err != nil {
		t.Skipf("/proc unavailable: %v", err)
	}
	if s.hwmKB == 0 || s.syscalls == 0 {
		t.Errorf("implausible self sample %+v", s)
	}
}

// TestClientRoundTripAllocatesNothing drives the client against a
// minimal loopback server that answers every request with the oracle's
// response, and checks the steady-state round trip makes no allocation.
func TestClientRoundTripAllocatesNothing(t *testing.T) {
	corpus, err := buildCorpus(specs[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	m := &corpus[0]
	resp := []byte("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nX-AON-Route: " + m.route +
		"\r\nX-AON-Outcome: " + m.outcome + "\r\nContent-Length: " + strconv.Itoa(len(m.want)) + "\r\n\r\n" + string(m.want))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, len(m.req))
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
			if _, err := c.Write(resp); err != nil {
				return
			}
		}
	}()
	k, err := dial(ln.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var rtErr error
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok, err := k.roundTrip(m); err != nil || !ok {
			rtErr = fmt.Errorf("ok=%v err=%v", ok, err)
		}
	})
	k.Close()
	<-done
	if rtErr != nil {
		t.Fatal(rtErr)
	}
	if allocs != 0 {
		t.Errorf("round trip allocates %v times", allocs)
	}
}

func TestCalmWindows(t *testing.T) {
	mk := func(steals ...float64) []windowStats {
		ws := make([]windowStats, len(steals))
		for i, s := range steals {
			ws[i] = windowStats{n: i, steal: s}
		}
		return ws
	}
	ids := func(ws []windowStats) []int {
		var out []int
		for _, w := range ws {
			out = append(out, w.n)
		}
		return out
	}
	// Enough calm windows: exactly those are used.
	got := ids(calmWindows(mk(0, 0.005, 0.2, 0.01, 0, 0.03, 0, 0)))
	if fmt.Sprint(got) != "[0 1 3 4 6 7]" {
		t.Errorf("calm windows %v", got)
	}
	// Too few calm windows: the minCalm least-stolen ones, stably.
	got = ids(calmWindows(mk(0.3, 0, 0.05, 0.2, 0.05, 0.1, 0.4)))
	if fmt.Sprint(got) != "[1 2 4 5 3]" {
		t.Errorf("least-stolen windows %v", got)
	}
	// Fewer windows than minCalm: all of them.
	if got := ids(calmWindows(mk(0.5, 0.2))); len(got) != 2 {
		t.Errorf("short run %v", got)
	}
}

func TestParseHostCPU(t *testing.T) {
	a, err := parseHostCPU([]byte("cpu  100 10 50 800 5 0 20 15 7 0\ncpu0 50 5 25 400 2 0 10 8 0 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if a.total != 1000 || a.steal != 15 {
		t.Errorf("parsed %+v", a)
	}
	b := hostCPU{total: 1200, steal: 25}
	if s := stealShare(a, b); s != 0.05 {
		t.Errorf("steal share %v", s)
	}
	if _, err := parseHostCPU([]byte("intr 1 2 3\n")); err == nil {
		t.Error("no cpu line parsed")
	}
}
