package main

// The dp-exchange workload: train.ClassifierDataParallel with K=2
// replicas (one per core), M=4 microbatches, the lossless raw gradient
// codec and a pipelining window of 8, exchanging gradients through an
// in-process activation store on a unix socket. It exercises nn's
// OnGrad bucketing, the pipelined NetClient with large gradient frames
// and netstore; it does no activation codec or offload-engine work.
//
// Each episode is one trainer call of dpSteps steps from a fresh model,
// so its final weights and loss are fixed by the seed. The trainer's
// step boundaries are read off its wire traffic: a step issues a fixed
// number of operations and the next step starts only after the last of
// them, so the k-th group of that many completions is step k.

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"jpegact/internal/data"
	"jpegact/internal/frame"
	"jpegact/internal/models"
	"jpegact/internal/nn"
	"jpegact/internal/offload/transport"
	"jpegact/internal/tensor"
	"jpegact/internal/train"
)

const (
	dpReplicas     = 2
	dpMicrobatches = 4
	dpBatch        = 8
	dpWidth        = 10
	dpWindow       = 8
	dpSteps        = 16 // per episode
	dpWarmSteps    = 2
)

func dpModel(seed uint64) *models.Model {
	return models.ResNet18(models.Scale{Width: dpWidth, Blocks: 1}, 2, tensor.NewRNG(seed))
}

func dpData(seed uint64) *data.Classification {
	return data.NewClassification(data.ClassificationConfig{Classes: 2, Channels: 3, H: 16, W: 16, Seed: seed + 1})
}

func dpConfig(seed uint64, steps int) train.Config {
	return train.Config{Epochs: 1, BatchesPerEpoch: steps, BatchSize: dpBatch, LR: trainLR, Seed: seed}
}

func dpOptions(replicas int, dial transport.Dialer, hook func(*transport.NetClient)) train.DPOptions {
	return train.DPOptions{
		Replicas: replicas, Microbatches: dpMicrobatches, GradCodec: frame.CodecGradRaw,
		Window: dpWindow, StoreDial: dial, ClientHook: hook,
	}
}

// opEvent is one completed wire operation as the client's Latency hook
// reports it.
type opEvent struct {
	at time.Time
	op uint8
	d  time.Duration
}

// opLog collects the Latency hooks of every client it is hooked into,
// while it is on.
type opLog struct {
	on     atomic.Bool
	mu     sync.Mutex
	events []opEvent
}

func newOpLog(capacity int) *opLog {
	l := &opLog{events: make([]opEvent, 0, capacity)}
	l.on.Store(true)
	return l
}

func (l *opLog) hook(c *transport.NetClient) {
	c.Latency = func(op uint8, d time.Duration) {
		if !l.on.Load() {
			return
		}
		now := time.Now()
		l.mu.Lock()
		l.events = append(l.events, opEvent{now, op, d})
		l.mu.Unlock()
	}
}

func (l *opLog) sorted() []opEvent {
	l.mu.Lock()
	ev := append([]opEvent(nil), l.events...)
	l.mu.Unlock()
	sort.Slice(ev, func(i, j int) bool { return ev[i].at.Before(ev[j].at) })
	return ev
}

type dpEpisode struct {
	weights   []float32
	finalLoss float64
	snap      transport.Snapshot
	events    []opEvent
	stepEnds  []time.Time
	err       error
}

// runDPEpisode trains one episode and splits its wire traffic into steps.
func runDPEpisode(seed uint64, steps int, dial transport.Dialer) dpEpisode {
	var first *models.Model
	factory := func() *models.Model {
		m := dpModel(seed)
		if first == nil {
			first = m
		}
		return m
	}
	log := newOpLog(64 * steps)
	rep, snap, err := train.ClassifierDataParallel(factory, dpData(seed), dpConfig(seed, steps), dpOptions(dpReplicas, dial, log.hook))
	ep := dpEpisode{snap: snap, events: log.sorted(), err: err}
	if err != nil {
		return ep
	}
	if rep.Diverged || len(rep.Epochs) == 0 {
		ep.err = fmt.Errorf("training diverged")
		return ep
	}
	ep.finalLoss = rep.Epochs[len(rep.Epochs)-1].Loss
	ep.weights = train.DPFinalWeights(first)
	if len(ep.events)%steps != 0 {
		ep.err = fmt.Errorf("%d wire operations do not split into %d equal steps", len(ep.events), steps)
		return ep
	}
	per := len(ep.events) / steps
	for s := 1; s <= steps; s++ {
		ep.stepEnds = append(ep.stepEnds, ep.events[s*per-1].at)
	}
	return ep
}

func runDPExchange(cfg runConfig) *outcome {
	o := &outcome{details: map[string]any{}}
	rig, setupS := timedSetup(setupRepeats, func() *storeServer {
		s := startStoreServer()
		if ep := runDPEpisode(cfg.seed^0x5eed, dpWarmSteps, s.dial); ep.err != nil {
			panic(fmt.Sprintf("warm-up episode: %v", ep.err))
		}
		return s
	}, (*storeServer).close)
	defer rig.close()

	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		d /= 2
	}
	plain := runDPSegment(cfg.seed, rig, d, 0, nil)
	ref := plain.episodes[0]
	plain.check(o, ref, rig, "untraced")
	o.details["episodes"] = len(plain.episodes)
	o.details["steps"] = plain.steps
	o.details["step_samples"] = len(plain.stepMS)
	o.details["op_samples"] = len(plain.opMS)
	o.details["config"] = map[string]any{
		"model": fmt.Sprintf("ResNet18/w%d", dpWidth), "replicas": dpReplicas,
		"microbatches": dpMicrobatches, "batch": dpBatch, "grad_codec": "raw",
		"window": dpWindow, "steps_per_episode": dpSteps,
	}
	_, opsPerSec := plain.rates()
	o.endToEnd = map[string]metric{
		"setup_s":             {setupS, "s"},
		"train_samples_per_s": {plain.samplesPerSec(), "1/s"},
		"step_ms_p50":         {median(plain.stepMS), "ms"},
		"compression_ratio":   {plain.gradRatio, "ratio"},
		"peak_heap_mb":        {plain.heap.peakMB(), "MB"},
		"op_ms_p50":           {median(plain.opMS), "ms"},
		"max_ops_per_s":       {opsPerSec, "1/s"},
		"final_loss":          {ref.finalLoss, "loss"},
	}
	addTail(o.endToEnd, "step_ms_p90", plain.stepMS, 0.9)
	addTail(o.endToEnd, "op_ms_p99", plain.opMS, 0.99)

	if cfg.trace {
		o.rec = newRecorder()
		traced := runDPSegment(cfg.seed, rig, 0, len(plain.episodes), o.rec)
		traced.check(o, ref, rig, "traced")
		o.perLayer = traced.layers(o.rec.snapshot())
		o.perLayer["trace.overhead_pct"] = metric{100 * (1 - traced.samplesPerSec()/plain.samplesPerSec()), "%"}
	}
	return o
}

type dpSegment struct {
	episodes   []dpEpisode
	steps      int
	stepMS     []float64 // timed steps: every step but each episode's first
	opMS       []float64 // wire ops of the timed steps
	putUS      []float64
	getUS      []float64
	snap       transport.Snapshot
	srv0, srv1 transport.Snapshot
	gradRatio  float64
	heap       *heapSampler
	peak       storePeak
}

// runDPSegment trains episodes until the deadline (at least one), or
// exactly n when n > 0. With a recorder it adds the episode, step and
// wire-operation spans.
func runDPSegment(seed uint64, s *storeServer, d time.Duration, n int, rec *recorder) dpSegment {
	seg := dpSegment{srv0: s.srv.Snapshot()}
	var poll *storePoller
	if rec != nil {
		poll = s.poll()
	}
	seg.heap = startHeapSampler()
	deadline := time.Now().Add(d)
	var rawBytes, frameBytes float64
	gradSize := float64(nn.GradSize(dpModel(seed).Net))
	// A gradient frame carries one bucket of the flat gradient (the
	// trainer's default 256 KiB buckets); all of them whole gradients.
	bucketsPer := math.Ceil(gradSize / (1 << 16))
	for i := 0; n > 0 && i < n || n <= 0 && (i == 0 || time.Now().Before(deadline)); i++ {
		t0 := time.Now()
		ep := runDPEpisode(seed, dpSteps, s.dial)
		seg.episodes = append(seg.episodes, ep)
		if ep.err != nil {
			break
		}
		seg.steps += dpSteps
		addSnap(&seg.snap, ep.snap)
		per := len(ep.events) / dpSteps
		for k := 1; k < dpSteps; k++ {
			seg.stepMS = append(seg.stepMS, ms(ep.stepEnds[k].Sub(ep.stepEnds[k-1])))
		}
		for _, ev := range ep.events[per:] {
			seg.opMS = append(seg.opMS, ms(ev.d))
		}
		for _, ev := range ep.events {
			switch ev.op {
			case transport.OpPut:
				seg.putUS = append(seg.putUS, float64(ev.d.Nanoseconds())/1e3)
			case transport.OpGet:
				seg.getUS = append(seg.getUS, float64(ev.d.Nanoseconds())/1e3)
			}
		}
		rawBytes += float64(ep.snap.GradPuts+ep.snap.GradGets) / bucketsPer * gradSize * 4
		frameBytes += float64(ep.snap.BytesGrad)
		if rec != nil {
			dpSpans(rec, ep, int32(seg.steps-dpSteps), t0)
		}
	}
	seg.heap.finish()
	if poll != nil {
		seg.peak = poll.stop()
	}
	seg.srv1 = s.srv.Snapshot()
	seg.gradRatio = rawBytes / frameBytes
	return seg
}

// dpSpans records an episode's spans: the trainer call, its steps and
// their wire operations.
func dpSpans(rec *recorder, ep dpEpisode, firstStep int32, start time.Time) {
	end := ep.stepEnds[len(ep.stepEnds)-1]
	root := rec.add("train.classifier_data_parallel", 0, firstStep, end, end.Sub(start))
	per := len(ep.events) / dpSteps
	prev := start
	for s, e := range ep.stepEnds {
		stepID := rec.add("train.dp_step", root, firstStep+int32(s), e, e.Sub(prev))
		for _, ev := range ep.events[s*per : (s+1)*per] {
			rec.add("transport."+opNames[ev.op], stepID, firstStep+int32(s), ev.at, ev.d)
		}
		prev = e
	}
}

var opNames = map[uint8]string{transport.OpPut: "put", transport.OpGet: "get", transport.OpDelete: "delete"}

func addSnap(dst *transport.Snapshot, s transport.Snapshot) {
	dst.Retried += s.Retried
	dst.Reconnects += s.Reconnects
	dst.GradPuts += s.GradPuts
	dst.GradGets += s.GradGets
	dst.BytesGrad += s.BytesGrad
}

// rates returns the medians over episodes of each episode's timed steps
// and wire operations per second: a slow stretch of the machine moves
// one episode, not the figures.
func (s dpSegment) rates() (stepsPerSec, opsPerSec float64) {
	var steps, ops []float64
	for _, ep := range s.episodes {
		if ep.err != nil {
			continue
		}
		sec := ep.stepEnds[dpSteps-1].Sub(ep.stepEnds[0]).Seconds()
		steps = append(steps, float64(dpSteps-1)/sec)
		ops = append(ops, float64(len(ep.events)-len(ep.events)/dpSteps)/sec)
	}
	return median(steps), median(ops)
}

func (s dpSegment) samplesPerSec() float64 {
	steps, _ := s.rates()
	return steps * dpMicrobatches * dpBatch
}

// check verifies every episode against the reference: identical final
// weights and loss, and an empty store afterwards.
func (s dpSegment) check(o *outcome, ref dpEpisode, store *storeServer, label string) {
	for i, ep := range s.episodes {
		ops := int64(len(ep.events))
		o.attempted += ops
		bad := true
		switch {
		case ep.err != nil:
			o.fail("%s episode %d: %v", label, i, ep.err)
		case !sameWeights(ep.weights, ref.weights):
			o.fail("%s episode %d: final weights differ from the reference", label, i)
		case math.Float64bits(ep.finalLoss) != math.Float64bits(ref.finalLoss):
			o.fail("%s episode %d: final loss %v differs from %v", label, i, ep.finalLoss, ref.finalLoss)
		default:
			bad = false
		}
		if bad {
			o.failed += ops
		}
	}
	if n := store.srv.Entries(); n != 0 {
		o.fail("%s: %d entries left in the store", label, n)
	}
}

func sameWeights(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func (s dpSegment) layers(spans []span) map[string]metric {
	n := float64(max(s.steps, 1))
	dur, _, count := spanTotals(spans)
	stepMS := 0.0
	if c := count["train.dp_step"]; c > 0 {
		stepMS = ms(dur["train.dp_step"]) / float64(c)
	}
	m := map[string]metric{
		"train.dp_step_ms":         {stepMS, "ms"},
		"train.grad_puts_per_step": {float64(s.snap.GradPuts) / n, "count"},
		"train.grad_gets_per_step": {float64(s.snap.GradGets) / n, "count"},
		"train.grad_mb_per_step":   {float64(s.snap.BytesGrad) / 1e6 / n, "MB"},
		"transport.put_us_p50":     {median(s.putUS), "us"},
		"transport.put_us_p99":     {quantile(s.putUS, 0.99), "us"},
		"transport.get_us_p50":     {median(s.getUS), "us"},
		"transport.get_us_p99":     {quantile(s.getUS, 0.99), "us"},
		"transport.retried":        {float64(s.snap.Retried), "count"},
		"transport.reconnects":     {float64(s.snap.Reconnects), "count"},
		"netstore.ops":             {float64(s.srv1.Offloaded-s.srv0.Offloaded+s.srv1.Restored-s.srv0.Restored) / n, "ops/step"},
		"netstore.peak_entries":    {float64(s.peak.entries), "count"},
		"netstore.peak_host_mb":    {float64(s.peak.hostBytes) / 1e6, "MB"},
		"netstore.entries_after":   {float64(s.peak.after), "count"},
	}
	for k, v := range s.heap.runtimeLayer(s.steps) {
		m[k] = v
	}
	return m
}
