package session

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// JSONL appends one JSON value per line to an artifact. Each line
// reaches the underlying writer in a single Write before Write returns
// (the crash-safety contract: a killed run keeps every line up to its
// last returned Write). Safe for concurrent use.
type JSONL[T any] struct {
	mu   sync.Mutex
	enc  *json.Encoder
	f    *os.File // nil unless opened by CreateJSONL
	name string
}

// NewJSONL writes lines to w.
func NewJSONL[T any](w io.Writer) *JSONL[T] {
	return &JSONL[T]{enc: json.NewEncoder(w), name: "jsonl"}
}

// CreateJSONL creates (truncating) the file at path.
func CreateJSONL[T any](path string) (*JSONL[T], error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	return &JSONL[T]{enc: json.NewEncoder(f), f: f, name: path}, nil
}

// Write appends v as one line. After a failed write every later Write
// returns the same error.
func (j *JSONL[T]) Write(v T) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.enc.Encode(v); err != nil {
		return fmt.Errorf("session: %s: %w", j.name, err)
	}
	return nil
}

// Close closes the file CreateJSONL opened. Idempotent.
func (j *JSONL[T]) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
