package gateway

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestRunLoadDeterministicRequestChoice pins the shared request counter:
// a Messages-bounded run sends pool[j mod 64] for j = 0..Messages-1
// whichever connection sends it, so the CBR route split over 120
// messages (even pool indices match, odd ones do not) is exact.
func TestRunLoadDeterministicRequestChoice(t *testing.T) {
	srv := startServer(t, Config{Workers: 2})
	rep, err := RunLoad(LoadConfig{Addr: srv.Addr().String(), UseCase: workload.CBR, Conns: 3, Messages: 120})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent != 120 || rep.OK != 120 {
		t.Fatalf("sent=%d ok=%d, want 120/120 (%+v)", rep.Sent, rep.OK, rep)
	}
	if rep.Match != 60 || rep.RoutedError != 60 {
		t.Fatalf("match=%d routed_error=%d, want exactly 60/60", rep.Match, rep.RoutedError)
	}
}

// waitLive waits until exactly n senders of s are running.
func waitLive(t *testing.T, s *Senders, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.live.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("live senders: %d, want %d", s.live.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSendersResize walks the set 0→4→1→0, as the campaign envelope
// does, and checks the live sender count after each step.
func TestSendersResize(t *testing.T) {
	srv := startServer(t, Config{Workers: 2})
	s := NewSenders(LoadConfig{Addr: srv.Addr().String(), UseCase: workload.FR, Timeout: 5 * time.Second})
	for _, n := range []int{0, 4, 1, 0} {
		s.Resize(n)
		waitLive(t, s, int64(n))
	}
	s.Stop()
	rep := s.Report()
	if rep.NetErrors != 0 {
		t.Fatalf("net errors against a live gateway: %+v", rep.Tally)
	}
	if rep.Sent != rep.OK+rep.Shed+rep.HTTPErrors {
		t.Fatalf("sent %d != ok+shed+http_errors: %+v", rep.Sent, rep.Tally)
	}
}

// TestRunLoadClosedPortFailsFast pins the dead-address contract: every
// sender's first dial fails, so the run ends at once with an error
// rather than redialing until its budget drains.
func TestRunLoadClosedPortFailsFast(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	start := time.Now()
	_, err = RunLoad(LoadConfig{Addr: addr, Conns: 4, Messages: 1000})
	if took := time.Since(start); took > time.Second {
		t.Fatalf("RunLoad against a closed port took %v, want < 1s", took)
	}
	if err == nil || !strings.Contains(err.Error(), "no messages delivered") {
		t.Fatalf("err = %v, want \"no messages delivered\"", err)
	}
}
