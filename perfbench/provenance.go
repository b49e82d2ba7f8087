package main

import (
	"bufio"
	"bytes"
	"crypto/sha1"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// prov records what produced a result. The host reference rate is
// context only: it is never gated and never divided into a metric, since
// the host's speed drifts independently of the gateway's.
type prov struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    int     `json:"seconds"`
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	SourceHash string  `json:"source_sha256"`
	RefSHA1Ops float64 `json:"host_ref_sha1_1k_ops_per_s"`
}

func provenance(o options) prov {
	return prov{
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		SourceHash: sourceHash("."),
		RefSHA1Ops: refRate(200 * time.Millisecond),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checkout's git revision, or "unknown" outside a git
// work tree; source_sha256 identifies the build either way.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests go.mod and every .go file under cmd/ and internal/
// (paths and contents, in walk order).
func sourceHash(root string) string {
	h := sha256.New()
	add := func(p string) {
		b, err := os.ReadFile(p)
		if err != nil {
			return
		}
		h.Write([]byte(filepath.ToSlash(p)))
		h.Write(b)
	}
	add(filepath.Join(root, "go.mod"))
	for _, dir := range []string{"cmd", "internal"} {
		_ = filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				add(p)
			}
			return nil
		})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// refRate is the host-speed reference: SHA-1 digests of a 1 KiB buffer
// per second, measured for d on one core.
func refRate(d time.Duration) float64 {
	buf := bytes.Repeat([]byte("aon-reference-"), 74)[:1024]
	n := 0
	start := time.Now()
	for time.Since(start) < d {
		for i := 0; i < 64; i++ {
			sum := sha1.Sum(buf)
			buf[0] = sum[0]
		}
		n += 64
	}
	return float64(n) / time.Since(start).Seconds()
}
