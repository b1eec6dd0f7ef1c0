package main

// The store-mix workload: one process on two connections sends an open
// loop of activation-frame lifecycles to an in-process activation
// store. Each simulated step PUTs mixFrames JPEG-ACT frames, GETs them
// in reverse order and then DELETEs them, the traffic one training
// step's offload sends. It isolates transport and netstore from nn and
// codec compute, and mixes writes, reads and deletes of small frames.
//
// Operations are due on a fixed schedule whatever the store does (an
// open loop, as independent trainers sharing a store would send them),
// and each is timed from its due time, so a stall also counts against
// the operations queued behind it. A step's lifecycle stays on one
// connection, because the store orders requests only within one.
// The run measures one fixed offered rate, then every rate of a ladder
// for the highest one that meets mixLimit at the 99th percentile without
// a growing backlog.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"jpegact/internal/compress"
	"jpegact/internal/data"
	"jpegact/internal/frame"
	"jpegact/internal/offload/codec"
	"jpegact/internal/offload/transport"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

const (
	mixConns    = 2
	mixFrames   = 8  // frames per simulated step
	mixFrameSet = 32 // distinct frames, built at set-up
	mixRate     = 10000.0
	mixLimit    = 50 * time.Millisecond
	mixWindow   = 8
	mixDeleters = 4 // synchronous deleters per connection
	mixMaxLate  = 250 * time.Millisecond
	// The fixed-rate tail is the median of the 99th percentiles of
	// windows of this many consecutive completions (half a second).
	mixWindowOps = 5000
	mixStepBatch = pcieBatch // samples whose activations one simulated step carries
)

// mixLadder is the fixed ladder of offered rates, ops/s over both
// connections.
var mixLadder = []float64{5000, 10000, 20000, 40000, 80000}

// mixShapes are the activation shapes of the frame set, small enough
// that a frame is a few kilobytes.
var mixShapes = [][4]int{{1, 8, 16, 16}, {1, 16, 16, 16}, {1, 16, 8, 8}, {1, 32, 8, 8}}

type mixFrame struct {
	f     *frame.Frame
	bytes []byte
	orig  int // activation bytes before compression
}

// buildFrames encodes the frame set from seeded activation tensors.
func buildFrames(seed uint64) []mixFrame {
	rng := tensor.NewRNG(seed)
	pipe := codec.New(quant.OptL())
	out := make([]mixFrame, mixFrameSet)
	for i := range out {
		sh := mixShapes[i%len(mixShapes)]
		x := data.ActivationTensor(rng, sh[0], sh[1], sh[2], sh[3], 0.3, 1)
		enc, err := pipe.Encode(compress.KindConv, x)
		if err != nil {
			panic(fmt.Sprintf("encode frame %d: %v", i, err))
		}
		out[i] = mixFrame{f: enc.Frame, bytes: frame.EncodeFrame(enc.Frame), orig: x.Bytes()}
	}
	return out
}

// sameFrame reports whether got is the frame want was built from, field
// by field — the fields are all a frame's bytes hold.
func sameFrame(got, want *frame.Frame) bool {
	if got.Codec != want.Codec || got.Kind != want.Kind || got.Shape != want.Shape ||
		len(got.Scales) != len(want.Scales) || !bytes.Equal(got.Payload, want.Payload) {
		return false
	}
	for i := range got.Scales {
		if math.Float32bits(got.Scales[i]) != math.Float32bits(want.Scales[i]) {
			return false
		}
	}
	return true
}

type mixRig struct {
	store    *storeServer
	clients  []*transport.NetClient
	counters *transport.Counters
	frames   []mixFrame
	lat      *opLog
	nextStep []int // per connection, so keys are never reused
}

func newMixRig(seed uint64) *mixRig {
	r := &mixRig{store: startStoreServer(), counters: &transport.Counters{}, frames: buildFrames(seed), lat: newOpLog(0)}
	// Wire latencies are per-layer figures; they are kept only while a
	// traced phase runs, so the log does not weigh on peak_heap_mb.
	r.lat.on.Store(false)
	for c := 0; c < mixConns; c++ {
		cl := transport.NewNetClient(r.store.dial, r.counters)
		cl.Window = mixWindow
		r.lat.hook(cl)
		r.clients = append(r.clients, cl)
	}
	r.nextStep = make([]int, mixConns)
	// Warm up: a few lifecycles per connection at a low rate.
	if ph := r.run(1000, 100*time.Millisecond, nil); ph.failedOps > 0 {
		panic(fmt.Sprintf("warm-up: %v", ph.problems))
	}
	return r
}

func (r *mixRig) close() {
	for _, c := range r.clients {
		c.Close()
	}
	r.store.close()
}

var errFrameMismatch = errors.New("bytes differ from the PUT")

var mixRetry = transport.Retry{Attempts: 3, Backoff: time.Millisecond}

// mixPhase is the outcome of one stretch at one offered rate.
type mixPhase struct {
	opMS       []float64
	stepMS     []float64
	ops        int64
	failedOps  int64
	steps      int
	origBytes  int64
	frameBytes int64
	lateMax    time.Duration
	tailLate   []float64 // generator lateness over the last tenth of the schedule, ms
	start, end time.Time // first due time, last completion
	backlog    bool      // the generator fell mixMaxLate behind
	problems   []string
}

func (p *mixPhase) achieved() float64 { return float64(p.ops) / p.end.Sub(p.start).Seconds() }

// mixStep tracks one simulated step's lifecycle.
type mixStep struct {
	due    time.Time // first PUT due
	mu     sync.Mutex
	left   int // operations not yet completed
	done   time.Time
	failed bool
}

func (s *mixStep) finish(at time.Time, ok bool) {
	s.mu.Lock()
	s.left--
	if !ok {
		s.failed = true
	}
	if at.After(s.done) {
		s.done = at
	}
	s.mu.Unlock()
}

type mixOp struct {
	kind  uint8
	key   uint64
	frame int
	due   time.Time
	step  *mixStep
	stepN int32
	p     *transport.Pending
}

// run offers rate ops/s for d and waits for every operation to finish.
func (r *mixRig) run(rate float64, d time.Duration, rec *recorder) *mixPhase {
	perConn := rate / mixConns
	opsPerStep := 3 * mixFrames
	stepsPerConn := max(1, int(d.Seconds()*perConn)/opsPerStep)
	ph := &mixPhase{opMS: make([]float64, 0, mixConns*stepsPerConn*opsPerStep)}
	start := time.Now().Add(time.Millisecond)
	ph.start = start

	var mu sync.Mutex // guards ph's slices and counters
	record := func(op mixOp, at time.Time, err error) {
		lat := at.Sub(op.due)
		mu.Lock()
		ph.opMS = append(ph.opMS, ms(lat))
		if at.After(ph.end) {
			ph.end = at
		}
		if err != nil && len(ph.problems) < 5 {
			ph.problems = append(ph.problems, fmt.Sprintf("%s %d: %v", opNames[op.kind], op.key, err))
		}
		mu.Unlock()
		if rec != nil {
			rec.add("transport."+opNames[op.kind], 0, op.stepN, at, lat)
		}
		op.step.finish(at, err == nil)
	}

	var steps []*mixStep
	var stepsMu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < mixConns; c++ {
		cl := r.clients[c]
		// Room for a few windows of issued operations, and for one step's
		// deletes, so a slow completion does not stall the generator at
		// once; a longer stall shows as lateness.
		pending := make(chan mixOp, 4*mixWindow)
		deletes := make(chan mixOp, opsPerStep)
		var workers sync.WaitGroup
		workers.Add(1 + mixDeleters)
		go func() { // completes PUTs and GETs in issue order
			defer workers.Done()
			for op := range pending {
				<-op.p.Done()
				at := time.Now()
				if op.kind == transport.OpPut {
					_, err := op.p.PutResult()
					record(op, at, err)
					continue
				}
				f, err := op.p.GetResult()
				if err == nil && !sameFrame(f, r.frames[op.frame].f) {
					err = errFrameMismatch
				}
				record(op, at, err)
			}
		}()
		for i := 0; i < mixDeleters; i++ {
			go func() {
				defer workers.Done()
				for op := range deletes {
					err := cl.Delete(op.key)
					record(op, time.Now(), err)
				}
			}()
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer func() {
				close(pending)
				close(deletes)
				workers.Wait()
			}()
			offset := time.Duration(float64(c) / rate * float64(time.Second))
			for k := 0; k < stepsPerConn; k++ {
				stepN := r.nextStep[c]
				r.nextStep[c]++
				base := (k * opsPerStep)
				st := &mixStep{left: opsPerStep}
				stepsMu.Lock()
				steps = append(steps, st)
				stepsMu.Unlock()
				behind := false
				for j := 0; j < opsPerStep; j++ {
					due := start.Add(offset + time.Duration(float64(base+j)/perConn*float64(time.Second)))
					if j == 0 {
						st.due = due
					}
					late := waitUntil(due)
					mu.Lock()
					ph.lateMax = max(ph.lateMax, late)
					if 10*k >= 9*stepsPerConn {
						ph.tailLate = append(ph.tailLate, ms(late))
					}
					mu.Unlock()
					if late > mixMaxLate {
						behind = true
					}
					i := j % mixFrames
					if j >= mixFrames {
						i = mixFrames - 1 - i // GETs and DELETEs in reverse order
					}
					fi := (stepN*mixFrames + i) % mixFrameSet
					op := mixOp{key: uint64(c)<<40 | uint64(stepN)<<8 | uint64(i), frame: fi, due: due, step: st, stepN: int32(stepN)}
					switch {
					case j < mixFrames:
						op.kind = transport.OpPut
						op.p = cl.PutAsync(op.key, r.frames[fi].bytes, mixRetry)
						mu.Lock()
						ph.origBytes += int64(r.frames[fi].orig)
						ph.frameBytes += int64(len(r.frames[fi].bytes))
						mu.Unlock()
						pending <- op
					case j < 2*mixFrames:
						op.kind = transport.OpGet
						op.p = cl.GetAsync(op.key, mixRetry, false)
						pending <- op
					default:
						op.kind = transport.OpDelete
						deletes <- op
					}
				}
				if behind {
					mu.Lock()
					ph.backlog = true
					mu.Unlock()
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, st := range steps {
		ph.ops += int64(opsPerStep)
		if st.failed || st.left != 0 {
			ph.failedOps += int64(opsPerStep)
			continue
		}
		ph.steps++
		ph.stepMS = append(ph.stepMS, ms(st.done.Sub(st.due)))
	}
	return ph
}

// waitUntil holds the caller until t and returns how late it is then.
// time.Sleep rounds short waits up to about a millisecond, so the
// generator issues in bursts and its lateness counts in the latencies;
// a nanosleep would be more precise but holds a scheduler P while the
// store's goroutines need it.
func waitUntil(t time.Time) time.Duration {
	if wait := time.Until(t); wait > 0 {
		time.Sleep(wait)
	}
	return max(0, time.Since(t))
}

func runStoreMix(cfg runConfig) *outcome {
	o := &outcome{details: map[string]any{}}
	rig, setupS := timedSetup(setupRepeats, func() *mixRig { return newMixRig(cfg.seed) }, (*mixRig).close)
	defer rig.close()

	d := time.Duration(cfg.seconds * float64(time.Second))
	fixedD, ladderD := d/2, d/2/time.Duration(len(mixLadder))
	if cfg.trace {
		fixedD, ladderD = d/2, 0
	}
	check := func(ph *mixPhase, label string) {
		o.attempted += ph.ops
		o.failed += ph.failedOps
		for _, p := range ph.problems {
			o.fail("%s: %s", label, p)
		}
	}

	heap := startHeapSampler()
	fixed := rig.run(mixRate, fixedD, nil)
	heap.finish()
	check(fixed, "fixed rate")
	if fixed.backlog {
		o.fail("fixed rate: the generator fell %v behind", fixed.lateMax)
	}

	maxRate := 0.0
	var ladder []map[string]any
	for _, rate := range mixLadder {
		if ladderD == 0 {
			break
		}
		ph := rig.run(rate, ladderD, nil)
		check(ph, fmt.Sprintf("ladder %v ops/s", rate))
		p99 := quantile(ph.opMS, 0.99)
		// A growing backlog shows as a generator still late at the end.
		tail := median(ph.tailLate)
		ok := !ph.backlog && tail <= ms(mixLimit) && p99 <= ms(mixLimit) && ph.failedOps == 0
		ladder = append(ladder, map[string]any{
			"rate": rate, "achieved": ph.achieved(), "op_ms_p50": median(ph.opMS), "op_ms_p99": p99,
			"late_ms_max": ms(ph.lateMax), "tail_late_ms": tail, "meets_limit": ok,
		})
		// Every rung runs: a burst of machine noise that fails one rung
		// does not hide the rungs above it.
		if ok {
			maxRate = ph.achieved()
		}
	}
	if n := rig.store.srv.Entries(); n != 0 {
		o.fail("%d entries left in the store", n)
	}
	o.details["ladder"] = ladder
	o.details["op_samples"] = len(fixed.opMS)
	o.details["step_samples"] = len(fixed.stepMS)
	o.details["config"] = map[string]any{
		"connections": mixConns, "frames_per_step": mixFrames, "frame_set": mixFrameSet,
		"rate": mixRate, "ladder": mixLadder, "limit_ms": ms(mixLimit), "window": mixWindow,
	}
	o.endToEnd = map[string]metric{
		"setup_s":             {setupS, "s"},
		"train_samples_per_s": {float64(fixed.steps*mixStepBatch) / fixed.end.Sub(fixed.start).Seconds(), "1/s"},
		"step_ms_p50":         {median(fixed.stepMS), "ms"},
		"compression_ratio":   {float64(fixed.origBytes) / float64(fixed.frameBytes), "ratio"},
		"peak_heap_mb":        {heap.peakMB(), "MB"},
		"op_ms_p50":           {median(fixed.opMS), "ms"},
		"op_ms_p99":           {windowed(fixed.opMS, mixWindowOps, 0.99), "ms"},
		"max_ops_per_s":       {maxRate, "1/s"},
	}
	addTail(o.endToEnd, "step_ms_p90", fixed.stepMS, 0.9)

	if cfg.trace {
		o.rec = newRecorder()
		rig.lat.on.Store(true)
		srv0 := rig.store.srv.Snapshot()
		c0 := rig.counters.Snapshot()
		poll := rig.store.poll()
		heap := startHeapSampler()
		traced := rig.run(mixRate, fixedD, o.rec)
		heap.finish()
		rig.lat.on.Store(false)
		peak := poll.stop()
		check(traced, "traced")
		srv1, c1 := rig.store.srv.Snapshot(), rig.counters.Snapshot()
		var putUS, getUS []float64
		for _, ev := range rig.lat.sorted() {
			switch ev.op {
			case transport.OpPut:
				putUS = append(putUS, float64(ev.d.Nanoseconds())/1e3)
			case transport.OpGet:
				getUS = append(getUS, float64(ev.d.Nanoseconds())/1e3)
			}
		}
		n := float64(max(traced.steps, 1))
		o.perLayer = map[string]metric{
			"transport.put_us_p50":   {median(putUS), "us"},
			"transport.put_us_p99":   {quantile(putUS, 0.99), "us"},
			"transport.get_us_p50":   {median(getUS), "us"},
			"transport.get_us_p99":   {quantile(getUS, 0.99), "us"},
			"transport.retried":      {float64(c1.Retried - c0.Retried), "count"},
			"transport.reconnects":   {float64(c1.Reconnects - c0.Reconnects), "count"},
			"netstore.ops":           {float64(srv1.Offloaded-srv0.Offloaded+srv1.Restored-srv0.Restored) / n, "ops/step"},
			"netstore.peak_entries":  {float64(peak.entries), "count"},
			"netstore.peak_host_mb":  {float64(peak.hostBytes) / 1e6, "MB"},
			"netstore.entries_after": {float64(peak.after), "count"},
			"gen.late_ms_max":        {ms(traced.lateMax), "ms"},
			"trace.overhead_pct":     {100 * (1 - traced.achieved()/fixed.achieved()), "%"},
		}
		for k, v := range heap.runtimeLayer(traced.steps) {
			o.perLayer[k] = v
		}
	}
	return o
}
