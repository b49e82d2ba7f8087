// Command perfbench is the repository's end-to-end and per-layer
// benchmark of the live AON gateway.
//
// With -trace 0 it launches the real aongate (and, for fwd-traced, two
// aonback endpoints) over loopback, drives it with a closed loop of
// nproc keep-alive connections, checks every response against an oracle
// built from the seeded corpus, and reports the end-to-end metrics. With
// -trace 1 it makes the same untraced run for the gateway's syscall
// count, then replays the corpus in-process through each layer's public
// functions with benchmark-side spans around every call and reports the
// per-layer metrics.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Build and run it from the repository root with perfbench/run.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	bin      string // directory holding the binaries; the span file goes there too
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: "+workloadNames())
	flag.Uint64Var(&o.seed, "seed", 1, "corpus seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds of closed-loop load")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced run")
	flag.StringVar(&o.bin, "bin", ".bench_build", "directory holding the aongate and aonback binaries")
	flag.Parse()
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, _ := json.Marshal(res)
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return strings.Join(names, ", ")
}

func run(o options) (*result, error) {
	s, ok := specByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, workloadNames())
	}
	if o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		return nil, fmt.Errorf("bad -seconds %d or -trace %d", o.seconds, o.trace)
	}
	for _, b := range []string{"aongate", "aonback"} {
		if _, err := os.Stat(filepath.Join(o.bin, b)); err != nil {
			return nil, fmt.Errorf("missing binary (build with perfbench/run.sh): %w", err)
		}
	}
	corpus, err := buildCorpus(s, o.seed)
	if err != nil {
		return nil, err
	}
	prov := provenance(o)
	pb, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", pb)

	e2e, err := runE2E(s, corpus, o)
	if err != nil {
		return nil, err
	}
	e2e.print(os.Stdout)
	res := &result{
		Correct:   e2e.wrong == 0 && e2e.statsErr == nil,
		Attempted: e2e.attempted,
		Failed:    e2e.wrong,
	}
	if e2e.statsErr != nil {
		fmt.Println("stats check FAILED:", e2e.statsErr)
	}
	if o.trace == 0 {
		res.Metrics = e2e.metrics()
		return res, nil
	}
	lr, err := runLayers(s, corpus, o)
	if err != nil {
		return nil, err
	}
	lr.print(os.Stdout)
	res.Correct = res.Correct && lr.wrong == 0
	res.Failed += lr.wrong
	res.Attempted += lr.attempted
	res.Metrics = lr.metrics()
	res.Metrics["gateway.syscalls_per_req"] = metric{e2e.syscallsPerReq, "count"}
	return res, nil
}
