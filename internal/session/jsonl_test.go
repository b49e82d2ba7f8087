package session

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// failAfter accepts n writes, then fails every later one.
type failAfter struct {
	n    int
	buf  bytes.Buffer
	errs int
}

var errDiskFull = errors.New("disk full")

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n == 0 {
		w.errs++
		return 0, errDiskFull
	}
	w.n--
	return w.buf.Write(p)
}

// TestJSONLWritesLinesAndSurfacesErrors pins the writer contract: one
// whole line per Write, reaching the underlying writer before Write
// returns, and a failed write reported to that caller and every later
// one.
func TestJSONLWritesLinesAndSurfacesErrors(t *testing.T) {
	w := &failAfter{n: 2}
	j := NewJSONL[Sample](w)
	for i := int64(1); i <= 2; i++ {
		if err := j.Write(Sample{TMS: i, Messages: uint64(10 * i)}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if got := strings.Count(w.buf.String(), "\n"); got != int(i) {
			t.Fatalf("after write %d the writer holds %d lines", i, got)
		}
	}
	for i := 0; i < 2; i++ {
		if err := j.Write(Sample{TMS: 3}); !errors.Is(err, errDiskFull) {
			t.Fatalf("write after failure: err = %v, want %v", err, errDiskFull)
		}
	}
	if w.errs != 1 {
		t.Fatalf("underlying writer saw %d failed writes, want 1 (the error is sticky)", w.errs)
	}
	lines := strings.Split(strings.TrimSpace(w.buf.String()), "\n")
	for i, line := range lines {
		var s Sample
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if s.TMS != int64(i+1) || s.Messages != uint64(10*(i+1)) {
			t.Fatalf("line %d round trip: %+v", i, s)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close of a writer-backed JSONL: %v", err)
	}
}

// TestWindower pins the cumulative→windowed contract shared by the
// campaign sampler and the fleet scraper: the first observation primes
// a zero window, later ones carry deltas over their own axis, and a
// counter that went backwards (a restarted node) yields a zero delta.
func TestWindower(t *testing.T) {
	var w Windower
	s := Sample{TMS: 1000}
	w.Window(&s, 100, 5000, 1)
	if s.WindowSec != 0 || s.Messages != 0 || s.MsgsPerSec != 0 {
		t.Fatalf("priming sample carries a window: %+v", s)
	}
	s = Sample{TMS: 1500}
	w.Window(&s, 150, 7000, 3)
	if s.WindowSec != 0.5 || s.Messages != 50 || s.BytesIn != 2000 || s.Shed != 2 || s.MsgsPerSec != 100 {
		t.Fatalf("window: %+v", s)
	}
	s = Sample{TMS: 2000}
	w.Window(&s, 10, 8000, 3)
	if s.WindowSec != 0.5 || s.Messages != 0 || s.BytesIn != 1000 || s.Shed != 0 {
		t.Fatalf("counter reset: %+v", s)
	}
	s = Sample{TMS: 2000} // same instant re-read: no window
	w.Window(&s, 20, 8000, 3)
	if s.WindowSec != 0 || s.Messages != 0 {
		t.Fatalf("zero-length window: %+v", s)
	}
}
