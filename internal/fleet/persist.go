package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/session"
)

// Artifact names inside Config.OutDir.
const (
	JSONLName     = "merged-session.jsonl"
	MergedCSVName = "merged-session.csv"
	ReportName    = "fleet-report.txt"
)

// ReadJSONL loads a persisted merged session back — the round-trip half
// of the format, used by tests and by offline report tooling.
func ReadJSONL(path string) ([]NodeSample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("fleet: session jsonl: %w", err)
	}
	defer f.Close()
	var out []NodeSample
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 8<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ns NodeSample
		if err := json.Unmarshal(sc.Bytes(), &ns); err != nil {
			return nil, fmt.Errorf("fleet: session jsonl line %d: %w", line, err)
		}
		out = append(out, ns)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fleet: session jsonl: %w", err)
	}
	return out, nil
}

// WriteCSVs renders the merged session to CSV: one session-<role>-<id>.csv
// per node in the plain session schema (readable by session.ReadCSV and
// every existing tool), plus merged-session.csv with node, role, and
// aligned rel_ms columns prefixed — session.ReadCSV resolves columns by
// header name, so the merged file stays readable by the same parser.
func WriteCSVs(outDir string, m *Merger) error {
	for node, samples := range m.PerNode() {
		path := filepath.Join(outDir, "session-"+sanitize(node)+".csv")
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("fleet: %s: %w", path, err)
		}
		err = session.WriteCSV(f, samples)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("fleet: %s: %w", path, err)
		}
	}
	path := filepath.Join(outDir, MergedCSVName)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("fleet: %s: %w", path, err)
	}
	err = writeMergedCSV(f, m.Merged())
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("fleet: %s: %w", path, err)
	}
	return nil
}

func writeMergedCSV(f *os.File, merged []NodeSample) error {
	w := bufio.NewWriter(f)
	header := append([]string{"node", "role", "rel_ms"}, session.CSVHeader()...)
	if err := writeCSVRow(w, header); err != nil {
		return err
	}
	for _, ns := range merged {
		row := append([]string{ns.Node, ns.Role, strconv.FormatInt(ns.RelMS, 10)},
			session.CSVRecord(ns.Sample)...)
		if err := writeCSVRow(w, row); err != nil {
			return err
		}
	}
	return w.Flush()
}

// writeCSVRow emits one comma-joined line. Fields here are numbers,
// role names, and sanitized node keys — never quoted material.
func writeCSVRow(w *bufio.Writer, fields []string) error {
	for i, fld := range fields {
		if i > 0 {
			if err := w.WriteByte(','); err != nil {
				return err
			}
		}
		if _, err := w.WriteString(fld); err != nil {
			return err
		}
	}
	return w.WriteByte('\n')
}
