package gateway

import (
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/dtrace"
	"repro/internal/lhist"
	"repro/internal/workload"
)

// Stage names one segment of a request's path through the gateway —
// the live analogue of the paper's per-phase VTune breakdown: where the
// end-to-end latency histogram says how long a message took, the stage
// trace says where it went. Each stage runs between two of the
// request's boundary stamps.
type Stage int

const (
	// StageRead: read start → enqueue — framing the request off the
	// socket, first byte to complete body (keep-alive idle time excluded).
	StageRead Stage = iota
	// StageQueue: enqueue → dequeue — the admission queue wait, the
	// paper's thread-pool queueing delay made visible.
	StageQueue
	// StageParse: dequeue → parsed — the full HTTP parse on the worker.
	StageParse
	// StageProcess: parsed → processed — route/validate/inspect.
	StageProcess
	// StageForward: processed → forwarded — the upstream request header
	// build plus the round trip (forwarding mode only).
	StageForward
	// StageWrite: write start → write end — the response write.
	StageWrite
	numStages
)

var stageNames = [numStages]string{
	"read", "queue", "parse", "process", "forward", "write",
}

func (s Stage) String() string {
	if s < 0 || s >= numStages {
		return "invalid"
	}
	return stageNames[s]
}

// numTraceUseCases covers FR/CBR/SV plus the DPI/AUTH/XJ extensions.
const numTraceUseCases = 6

// traceSlotControl is the tracer slot for control-plane GETs (/stats,
// /timeline, /traces): they bypass the worker pool but still cost
// read/process/write time on the connection readers, shown as row "GET".
const traceSlotControl = numTraceUseCases

// numTraceSlots is every use case plus the control-plane slot.
const numTraceSlots = numTraceUseCases + 1

// traceSlotName labels a tracer slot for snapshots and tables.
func traceSlotName(slot int) string {
	if slot == traceSlotControl {
		return "GET"
	}
	return workload.UseCase(slot).String()
}

// stageTracer aggregates cheap monotonic stamps into per-use-case,
// per-stage latency histograms. Requests are sampled 1-in-every so the
// stamps stay off most messages' paths (BenchmarkGatewayTracing guards
// the overhead at <= 3%); the histograms themselves are lock-free, so
// traced requests pay only a handful of time.Now calls and atomic adds.
type stageTracer struct {
	every uint32
	seq   atomic.Uint32
	hists [numTraceSlots][numStages]lhist.Hist
}

// newStageTracer samples one request in every (minimum 1 = every
// request).
func newStageTracer(every int) *stageTracer {
	if every < 1 {
		every = 1
	}
	return &stageTracer{every: uint32(every)}
}

// sample decides whether the next request is traced.
func (t *stageTracer) sample() bool {
	return t.seq.Add(1)%t.every == 0
}

// observe records one stage duration of a sampled request into slot
// (a use case, or traceSlotControl).
func (t *stageTracer) observe(slot int, st Stage, d time.Duration) {
	if slot < 0 || slot >= numTraceSlots {
		return
	}
	t.hists[slot][st].Observe(d)
}

// stageCounts reads one slot+stage histogram's raw counts — the
// capacity control loop's windowing primitive for service demands.
func (t *stageTracer) stageCounts(slot int, st Stage) lhist.Counts {
	return t.hists[slot][st].Counts()
}

// StageSnapshot is the /stats "stages" section: per use case, per stage
// percentile reads of the sampled trace population.
type StageSnapshot map[string]map[string]lhist.Snapshot

// snapshot renders every slot (use case or control plane) that traced
// at least one request.
func (t *stageTracer) snapshot() StageSnapshot {
	out := StageSnapshot{}
	for slot := 0; slot < numTraceSlots; slot++ {
		var stages map[string]lhist.Snapshot
		for st := Stage(0); st < numStages; st++ {
			s := t.hists[slot][st].Snapshot()
			if s.Count == 0 {
				continue
			}
			if stages == nil {
				stages = map[string]lhist.Snapshot{}
			}
			stages[st.String()] = s
		}
		if stages != nil {
			out[traceSlotName(slot)] = stages
		}
	}
	return out
}

// StageNames lists the trace stages in pipeline order, for table
// renderers that want stable column order.
func StageNames() []string { return slices.Clone(stageNames[:]) }

// boundary indexes a request's stamps. Each is read from the clock once
// and shared by the stage it ends and the stage it begins, so the stage
// histograms and the trace spans of one request agree exactly.
type boundary int

const (
	bRead       boundary = iota // first request byte available
	bEnqueue                    // framed and admitted (a control-plane GET starts its handling here)
	bDequeue                    // a worker took the job
	bParsed                     // HTTP parse done (a control-plane GET: same as bEnqueue)
	bProcessed                  // use-case pipeline done
	bForwarded                  // upstream round trip done (forwarded requests only)
	bWriteStart                 // response write begins
	bWriteEnd                   // response write done
	numBoundaries
)

// stamps holds one request's boundaries; a zero entry was never reached.
type stamps [numBoundaries]time.Time

// stageBounds maps each stage to the boundaries that open and close it.
var stageBounds = [numStages][2]boundary{
	StageRead:    {bRead, bEnqueue},
	StageQueue:   {bEnqueue, bDequeue},
	StageParse:   {bDequeue, bParsed},
	StageProcess: {bParsed, bProcessed},
	StageForward: {bProcessed, bForwarded},
	StageWrite:   {bWriteStart, bWriteEnd},
}

// emitStages is a stamped request's one exit point: each stage with both
// boundaries reached becomes a histogram observation in slot when
// sampled, and a span in rec when non-nil (forward under its pre-minted
// fwdID, the backend serve span's parent). rec is then closed at the
// write end and offered to the tail sampler, which recycles it.
func (s *Server) emitStages(b *stamps, slot int, sampled bool, rec *dtrace.Recorder, fwdID dtrace.ID) {
	for st := Stage(0); st < numStages; st++ {
		from, to := b[stageBounds[st][0]], b[stageBounds[st][1]]
		if from.IsZero() || to.IsZero() {
			continue
		}
		d := to.Sub(from)
		if sampled {
			s.tracer.observe(slot, st, d)
		}
		if rec != nil {
			if st == StageForward {
				rec.Child(fwdID, stageNames[st], from, d)
			} else {
				rec.Add(stageNames[st], from, d)
			}
		}
	}
	if rec != nil {
		rec.Finish(b[bWriteEnd])
		s.dtr.offer(rec)
	}
}
