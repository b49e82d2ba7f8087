package aon

import (
	"hash/fnv"
	"testing"

	"repro/internal/perf/trace"
	"repro/internal/workload"
	"repro/internal/xmldom"
	"repro/internal/xpath"
	"repro/internal/xsd"
)

// opStream summarizes the micro-ops a kernel emitted into a trace.Buffer:
// counts per kind, taken branches, and an FNV-64a digest over every op
// (kind, address or PC, burst size, outcome) in emission order.
type opStream struct {
	ALU, Loads, Stores, Branches, Taken uint64
	Digest                              uint64
}

func summarize(b *trace.Buffer) opStream {
	s := opStream{
		ALU:      b.Instr - b.Loads - b.Stores - b.Branches,
		Loads:    b.Loads,
		Stores:   b.Stores,
		Branches: b.Branches,
	}
	h := fnv.New64a()
	var rec [18]byte
	for _, op := range b.Ops {
		if op.Kind == trace.Branch && op.Taken {
			s.Taken++
		}
		rec[0] = byte(op.Kind)
		rec[1] = 0
		if op.Taken {
			rec[1] = 1
		}
		for i := 0; i < 8; i++ {
			rec[2+i] = byte(op.Addr >> (8 * i))
			rec[10+i] = byte(uint64(op.N) >> (8 * i))
		}
		h.Write(rec[:])
	}
	s.Digest = h.Sum64()
	return s
}

// instrumentedDoc parses msg the way the simulated worker does: into a
// fresh scratch arena at a fixed body address, so node SimAddrs (and with
// them every load the kernels emit) are reproducible.
func instrumentedDoc(t *testing.T, msg []byte) *xmldom.Node {
	t.Helper()
	doc, err := xmldom.ParseInstrumented(msg, trace.NewBuffer(0), 0x4000_0000, trace.NewArena(1<<40, 512<<10))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestKernelMicroOpStreamPinned pins the micro-op stream of the CBR XPath
// evaluation and the SV schema validation — the streams contentRoute and
// validate hand to the simulated CPU — on seeded workload messages: one
// CBR message per route, one valid and one invalid SV message. Any change
// to which nodes the evaluator visits or tests, or to the validator's
// automaton walk, moves the simulator's paper tables and shows up here.
func TestKernelMicroOpStreamPinned(t *testing.T) {
	const seed = 7
	expr := xpath.MustCompile(RouteExprSource)
	schema := workload.OrderSchema()

	cases := []struct {
		name string
		msg  []byte
		cbr  bool
		ok   bool // CBR: routes to the match endpoint; SV: valid
		want opStream
	}{
		{"CBR/match", workload.SOAPMessageSeeded(0, workload.MessageBytes, seed), true, true,
			opStream{ALU: 5891, Loads: 1649, Stores: 0, Branches: 709, Taken: 184, Digest: 3104451079794011582}},
		{"CBR/nomatch", workload.SOAPMessageSeeded(1, workload.MessageBytes, seed), true, false,
			opStream{ALU: 6141, Loads: 1719, Stores: 0, Branches: 739, Taken: 190, Digest: 2011124883047329704}},
		{"SV/valid", workload.SOAPMessageSeeded(2, workload.MessageBytes, seed), false, true,
			opStream{ALU: 9639, Loads: 267, Stores: 0, Branches: 657, Taken: 507, Digest: 14714214450081675296}},
		{"SV/invalid", workload.InvalidSOAPMessageSeeded(3, workload.MessageBytes, seed), false, false,
			opStream{ALU: 9082, Loads: 219, Stores: 0, Branches: 605, Taken: 476, Digest: 5351483397555813364}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc := instrumentedDoc(t, tc.msg)
			buf := trace.NewBuffer(1 << 12)
			var ok bool
			if tc.cbr {
				val, err := xpath.NewEvaluator(buf).EvalString(expr, doc)
				if err != nil {
					t.Fatal(err)
				}
				ok = val == RouteMatchValue
			} else {
				ok = xsd.NewValidator(schema, buf).Valid(doc)
			}
			if ok != tc.ok {
				t.Fatalf("verdict = %v, want %v", ok, tc.ok)
			}
			if got := summarize(buf); got != tc.want {
				t.Fatalf("micro-op stream moved:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}
