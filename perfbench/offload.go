package main

// The offload-pcie workload: one trainer runs training steps back to
// back (a closed loop) on mini ResNet18 with the async offload engine
// and restore prefetch, sending JPEG-ACT frames over the simulated PCIe
// link through the in-process transport. It is the paper's mechanism:
// nn compute on the parallel pool, the codec, and the engine's overlap
// of transfers with compute do the work; no socket is involved.
//
// Training runs in fixed-length episodes, each from a fresh model, so
// the loss trajectory is fixed by the seed and every episode must
// reproduce it bit for bit. The per-step code mirrors the trainer in
// internal/train (ClassifierOffloaded); the package tests hold the two
// to identical per-epoch losses.

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"jpegact/internal/compress"
	"jpegact/internal/data"
	"jpegact/internal/models"
	"jpegact/internal/nn"
	"jpegact/internal/offload"
	"jpegact/internal/offload/codec"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

const (
	pcieBatch    = 8
	pcieWidth    = 10
	pcieEpochs   = 2
	pcieBatches  = 8 // per epoch
	pciePrefetch = 4
	// The link is calibrated so that its modelled busy time is about two
	// thirds of a step with a free link: both a faster compute path and
	// better overlap then move the step time.
	pcieLinkBytesPerSec = 20e6
	pcieLinkSetup       = 20 * time.Microsecond
	pcieWarmSteps       = 2
	setupRepeats        = 5
	// The link's blocked time may differ from its modelled busy time by
	// at most this share before the run counts as failed.
	linkTolerance = 0.1
)

// Training hyper-parameters: the internal/train defaults, so the
// trainer's Config needs only the sizes to match this loop.
const (
	trainLR          = 0.05
	trainMomentum    = 0.9
	trainWeightDecay = 1e-4
)

// pcieInputs builds the model and data stream one episode trains on.
func pcieInputs(seed uint64) (*models.Model, *data.Classification) {
	m := models.ResNet18(models.Scale{Width: pcieWidth, Blocks: 1}, 2, tensor.NewRNG(seed))
	ds := data.NewClassification(data.ClassificationConfig{Classes: 2, Channels: 3, H: 16, W: 16, Seed: seed + 1})
	return m, ds
}

// pcieTrainer owns one run's offload stack: link, store and engine.
type pcieTrainer struct {
	link  *pcieLink
	store *offload.Store
	eng   *offload.Engine
	rec   *recorder

	// The span the save/restore hooks nest under, and the step id.
	parent, step int32
	// root packs the current step's root span and step id for the link,
	// whose transfers run on the engine's goroutines.
	root atomic.Int64
	// linkRec is rec as the engine's goroutines see it.
	linkRec              atomic.Pointer[recorder]
	saveHooks, needHooks *nn.Hooks
}

func newPCIeTrainer() *pcieTrainer {
	t := &pcieTrainer{link: newPCIeLink(pcieLinkBytesPerSec, pcieLinkSetup)}
	t.store = offload.NewStore(quant.OptL())
	t.store.Channel = &tracedLink{t}
	t.eng = offload.NewEngine(t.store, offload.EngineConfig{Async: true, Prefetch: pciePrefetch})
	t.saveHooks = &nn.Hooks{OnSave: t.onSave}
	t.needHooks = &nn.Hooks{OnNeed: t.onNeed}
	return t
}

// setRecorder turns tracing on (rec) or off (nil) between steps.
func (t *pcieTrainer) setRecorder(rec *recorder) {
	t.rec = rec
	t.linkRec.Store(rec)
}

func (t *pcieTrainer) close() {
	t.eng.Close()
	t.store.Close()
}

// tracedLink wraps the link's transfers in spans when tracing is on.
type tracedLink struct{ t *pcieTrainer }

func (l *tracedLink) Send(b []byte) []byte { return l.xfer("transport.send", b) }
func (l *tracedLink) Recv(b []byte) []byte { return l.xfer("transport.recv", b) }

func (l *tracedLink) xfer(name string, b []byte) []byte {
	t := l.t
	rec := t.linkRec.Load()
	if rec == nil {
		t.link.xfer(len(b))
		return b
	}
	ctx := t.root.Load()
	id := rec.begin(name, int32(ctx>>32), int32(ctx))
	t.link.xfer(len(b))
	rec.end(id)
	return b
}

func (t *pcieTrainer) onSave(r *nn.ActRef) {
	id := t.rec.begin("offload.issue", t.parent, t.step)
	t.eng.Offload(r)
	t.rec.end(id)
}

// restoreAbort carries a restore failure out of the backward pass.
type restoreAbort struct{ err error }

func (t *pcieTrainer) onNeed(r *nn.ActRef) {
	id := t.rec.begin("offload.restore", t.parent, t.step)
	err := t.eng.Restore(r)
	t.rec.end(id)
	if err != nil {
		panic(restoreAbort{err})
	}
}

func backward(m *models.Model, grad *tensor.Tensor) (err error) {
	defer func() {
		if r := recover(); r != nil {
			ra, ok := r.(restoreAbort)
			if !ok {
				panic(r)
			}
			err = ra.err
		}
	}()
	m.Net.Backward(grad)
	return nil
}

type stepResult struct {
	loss       float64
	orig, comp int
	wall       time.Duration
}

// trainStep runs one offloaded training step: forward with the save
// hooks streaming activations to the engine, the commit barrier,
// backward restoring through the prefetcher, and the optimizer update.
func (t *pcieTrainer) trainStep(m *models.Model, opt nn.Optimizer, x *tensor.Tensor, labels []int, step int32) (stepResult, error) {
	rec := t.rec
	t0 := time.Now()
	root := rec.begin("step", 0, step)
	t.step = step
	t.root.Store(int64(root)<<32 | int64(uint32(step)))
	t.eng.BeginStep()
	nn.SetHooks(m.Net, t.saveHooks)
	t.parent = rec.begin("nn.forward", root, step)
	out := m.Net.Forward(&nn.ActRef{Kind: compress.KindConv, T: x}, true)
	rec.end(t.parent)
	loss, grad := nn.SoftmaxCrossEntropy(out.T, labels)

	id := rec.begin("offload.end_forward", root, step)
	orig, comp, err := t.eng.EndForward(m.Net.SavedRefs())
	rec.end(id)
	if err == nil {
		id = rec.begin("offload.prepare_backward", root, step)
		err = t.eng.PrepareBackward()
		rec.end(id)
	}
	if err == nil {
		nn.SetHooks(m.Net, t.needHooks)
		t.parent = rec.begin("nn.backward", root, step)
		err = backward(m, grad)
		rec.end(t.parent)
	}
	nn.SetHooks(m.Net, nil)
	if err != nil {
		t.eng.Abort()
		rec.end(root)
		return stepResult{}, err
	}
	id = rec.begin("offload.end_step", root, step)
	err = t.eng.EndStep()
	rec.end(id)
	if err != nil {
		rec.end(root)
		return stepResult{}, err
	}
	id = rec.begin("nn.optimizer", root, step)
	opt.Step(m.Net.Params())
	rec.end(id)
	rec.end(root)
	return stepResult{loss: loss, orig: orig, comp: comp, wall: time.Since(t0)}, nil
}

// episodeResult is one fixed-length training run from a fresh model.
type episodeResult struct {
	losses     []float64 // per step
	epochLoss  []float64 // per epoch mean, as train.Report holds it
	walls      []float64 // step wall times, ms
	orig, comp int64
	err        error
}

// runEpisode trains pcieEpochs × pcieBatches steps from a fresh model,
// drawing data in the trainer's order (the validation batch first).
func (t *pcieTrainer) runEpisode(seed uint64, firstStep int32) episodeResult {
	m, ds := pcieInputs(seed)
	opt := nn.NewSGD(trainLR, trainMomentum, trainWeightDecay)
	ds.Batch(pcieBatch * 8)
	var ep episodeResult
	step := firstStep
	for e := 0; e < pcieEpochs; e++ {
		var sum float64
		for b := 0; b < pcieBatches; b++ {
			x, labels := ds.Batch(pcieBatch)
			r, err := t.trainStep(m, opt, x, labels, step)
			step++
			if err == nil && (math.IsNaN(r.loss) || math.IsInf(r.loss, 0)) {
				err = fmt.Errorf("step %d: loss %v", step-1, r.loss)
			}
			if err == nil && t.store.Stored() != 0 {
				err = fmt.Errorf("step %d: %d activations left in the store", step-1, t.store.Stored())
			}
			if err != nil {
				ep.err = err
				return ep
			}
			sum += r.loss
			ep.losses = append(ep.losses, r.loss)
			ep.walls = append(ep.walls, ms(r.wall))
			ep.orig += int64(r.orig)
			ep.comp += int64(r.comp)
		}
		ep.epochLoss = append(ep.epochLoss, sum/float64(pcieBatches))
	}
	return ep
}

// warmUp runs a few steps on a throwaway model so pools, scratch
// buffers and the engine's goroutines exist before timing starts.
func (t *pcieTrainer) warmUp(seed uint64) {
	m, ds := pcieInputs(seed ^ 0x5eed)
	opt := nn.NewSGD(trainLR, trainMomentum, trainWeightDecay)
	for i := 0; i < pcieWarmSteps; i++ {
		x, labels := ds.Batch(pcieBatch)
		if _, err := t.trainStep(m, opt, x, labels, -1); err != nil {
			panic(fmt.Sprintf("warm-up step: %v", err))
		}
	}
	t.link.take()
}

// pcieSegment is the aggregate of a run of episodes.
type pcieSegment struct {
	episodes   []episodeResult
	steps      int
	walls      []float64
	orig, comp int64
	link       linkTotals
	heap       *heapSampler
	eng0, eng1 offload.EngineStats
	ops        uint64
}

// runSegment trains whole episodes until the deadline (at least one),
// or exactly n episodes when n > 0.
func (t *pcieTrainer) runSegment(seed uint64, d time.Duration, n int) pcieSegment {
	seg := pcieSegment{eng0: t.eng.Stats()}
	st0 := t.store.Stats()
	t.link.take()
	seg.heap = startHeapSampler()
	deadline := time.Now().Add(d)
	for i := 0; n > 0 && i < n || n <= 0 && (i == 0 || time.Now().Before(deadline)); i++ {
		ep := t.runEpisode(seed, int32(seg.steps))
		seg.episodes = append(seg.episodes, ep)
		seg.steps += len(ep.losses)
		seg.walls = append(seg.walls, ep.walls...)
		seg.orig += ep.orig
		seg.comp += ep.comp
		if ep.err != nil {
			break
		}
	}
	seg.heap.finish()
	seg.link = t.link.take()
	seg.eng1 = t.eng.Stats()
	st1 := t.store.Stats()
	seg.ops = st1.Offloaded - st0.Offloaded + st1.Restored - st0.Restored
	return seg
}

// stepsPerSec is the median over episodes of each episode's timed steps
// per second of step wall time: a slow stretch of the machine moves one
// episode, not the figure.
func (s pcieSegment) stepsPerSec() float64 {
	var rates []float64
	for _, ep := range s.episodes {
		wall := 0.0
		for _, w := range ep.walls {
			wall += w
		}
		if wall > 0 {
			rates = append(rates, float64(len(ep.walls))/(wall/1e3))
		}
	}
	return median(rates)
}

func (s pcieSegment) samplesPerSec() float64 { return s.stepsPerSec() * pcieBatch }

// check verifies every episode against the reference trajectory and
// the link's blocked time against its model, and counts the operations
// of failed steps.
func (s pcieSegment) check(o *outcome, ref []float64, label string) {
	opsPerStep := int64(0)
	if s.steps > 0 {
		opsPerStep = int64(s.ops) / int64(s.steps)
	}
	o.attempted += int64(s.ops)
	for i, ep := range s.episodes {
		bad := ep.err != nil
		if ep.err != nil {
			o.fail("%s episode %d: %v", label, i, ep.err)
		} else if !sameLosses(ep.losses, ref) {
			o.fail("%s episode %d: loss trajectory differs from the reference", label, i)
			bad = true
		}
		if bad {
			o.failed += opsPerStep * int64(pcieEpochs*pcieBatches)
		}
	}
	model, block := ms(s.link.model), ms(s.link.block)
	if math.Abs(block-model) > linkTolerance*model {
		o.fail("%s: link blocked %.1f ms against %.1f ms modelled (more than %.0f%% apart)", label, block, model, linkTolerance*100)
	}
}

func sameLosses(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func runOffloadPCIe(cfg runConfig) *outcome {
	o := &outcome{details: map[string]any{}}
	t, setupS := timedSetup(setupRepeats, func() *pcieTrainer {
		t := newPCIeTrainer()
		t.warmUp(cfg.seed)
		return t
	}, (*pcieTrainer).close)
	defer t.close()

	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		d /= 2
	}
	plain := t.runSegment(cfg.seed, d, 0)
	ref := plain.episodes[0].losses
	plain.check(o, ref, "untraced")

	finalLoss := 0.0
	if el := plain.episodes[0].epochLoss; len(el) == pcieEpochs {
		finalLoss = el[pcieEpochs-1]
	}
	o.details["episodes"] = len(plain.episodes)
	var epMed []float64
	for _, ep := range plain.episodes {
		epMed = append(epMed, median(ep.walls))
	}
	o.details["episode_step_ms_p50"] = epMed
	o.details["steps"] = plain.steps
	o.details["step_samples"] = len(plain.walls)
	o.details["link_samples"] = len(plain.link.lat)
	o.details["config"] = map[string]any{
		"model": fmt.Sprintf("ResNet18/w%d", pcieWidth), "batch": pcieBatch,
		"epochs": pcieEpochs, "batches_per_epoch": pcieBatches, "prefetch": pciePrefetch,
		"link_bytes_per_s": pcieLinkBytesPerSec, "link_setup_us": pcieLinkSetup.Microseconds(),
	}

	o.endToEnd = map[string]metric{
		"setup_s":             {setupS, "s"},
		"train_samples_per_s": {plain.samplesPerSec(), "1/s"},
		"step_ms_p50":         {median(plain.walls), "ms"},
		"compression_ratio":   {float64(plain.orig) / float64(plain.comp), "ratio"},
		"peak_heap_mb":        {plain.heap.peakMB(), "MB"},
		"op_ms_p50":           {median(plain.link.lat), "ms"},
		"max_ops_per_s":       {plain.stepsPerSec() * float64(plain.link.transfers) / float64(plain.steps), "1/s"},
		"final_loss":          {finalLoss, "loss"},
	}
	addTail(o.endToEnd, "step_ms_p90", plain.walls, 0.9)
	addTail(o.endToEnd, "op_ms_p99", plain.link.lat, 0.99)

	if cfg.trace {
		o.rec = newRecorder()
		t.setRecorder(o.rec)
		traced := t.runSegment(cfg.seed, 0, len(plain.episodes))
		t.setRecorder(nil)
		traced.check(o, ref, "traced")
		o.perLayer = pcieLayers(traced, o.rec.snapshot())
		o.perLayer["trace.overhead_pct"] = metric{100 * (1 - traced.samplesPerSec()/plain.samplesPerSec()), "%"}
		enc, dec := codecReplay(cfg.seed, o.rec)
		o.perLayer["codec.encode_mb_s"] = metric{enc, "MB/s"}
		o.perLayer["codec.decode_mb_s"] = metric{dec, "MB/s"}
		o.details["breakdown"] = breakdownRows(o.perLayer)
	}
	return o
}

// stepRows are the step breakdown rows, in step order; with
// step.unattributed_ms they sum to step.wall_ms.
var stepRows = []string{
	"step.forward_self_ms", "step.end_forward_wait_ms", "step.backward_self_ms",
	"step.restore_wait_ms", "step.end_step_ms", "step.optimizer_ms", "step.unattributed_ms",
}

func breakdownRows(m map[string]metric) []map[string]any {
	rows := make([]map[string]any, 0, len(stepRows)+1)
	for _, name := range append(stepRows, "step.wall_ms") {
		rows = append(rows, map[string]any{"row": name, "ms": m[name].Value})
	}
	return rows
}

// pcieLayers derives the per-layer metrics of a traced segment.
func pcieLayers(s pcieSegment, spans []span) map[string]metric {
	dur, self, count := spanTotals(spans)
	n := float64(max(s.steps, 1))
	per := func(d time.Duration) float64 { return ms(d) / n }

	wall := per(dur["step"])
	rows := map[string]float64{
		"step.forward_self_ms":     per(self["nn.forward"]),
		"step.end_forward_wait_ms": per(dur["offload.end_forward"]),
		"step.backward_self_ms":    per(self["nn.backward"]),
		"step.restore_wait_ms":     per(dur["offload.restore"]),
		"step.end_step_ms":         per(dur["offload.end_step"]),
		"step.optimizer_ms":        per(dur["nn.optimizer"]),
	}
	attributed := 0.0
	for _, v := range rows {
		attributed += v
	}
	rows["step.unattributed_ms"] = wall - attributed
	rows["step.wall_ms"] = wall

	e0, e1 := s.eng0, s.eng1
	hits := float64(e1.PrefetchHits - e0.PrefetchHits)
	tries := hits + float64(e1.PrefetchWaits-e0.PrefetchWaits) + float64(e1.DemandFetches-e0.DemandFetches)
	issueUS := 0.0
	if c := count["offload.issue"]; c > 0 {
		issueUS = float64(dur["offload.issue"].Microseconds()) / float64(c)
	}
	m := map[string]metric{
		"nn.forward_ms":                {rows["step.forward_self_ms"], "ms"},
		"nn.backward_self_ms":          {rows["step.backward_self_ms"], "ms"},
		"nn.optimizer_ms":              {rows["step.optimizer_ms"], "ms"},
		"codec.frame_bytes_per_step":   {float64(s.comp) / n, "bytes"},
		"offload.issue_us":             {issueUS, "us"},
		"offload.end_forward_wait_ms":  {rows["step.end_forward_wait_ms"], "ms"},
		"offload.restore_wait_ms":      {rows["step.restore_wait_ms"], "ms"},
		"offload.end_step_ms":          {rows["step.end_step_ms"], "ms"},
		"offload.prefetch_hit_ratio":   {ratio(hits, tries), "ratio"},
		"offload.max_inflight_mb":      {float64(e1.MaxInFlight) / 1e6, "MB"},
		"transport.link_model_ms":      {ms(s.link.model) / n, "ms"},
		"transport.link_block_ms":      {ms(s.link.block) / n, "ms"},
		"transport.transfers_per_step": {float64(s.link.transfers) / n, "count"},
		"transport.bytes_per_step":     {float64(s.link.bytes) / n, "bytes"},
	}
	for k, v := range rows {
		m[k] = metric{v, "ms"}
	}
	for k, v := range s.heap.runtimeLayer(s.steps) {
		m[k] = v
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// codecReplay times codec.Pipeline Encode and Decode over one step's
// saved activations (a fresh model's first training forward) and
// returns MB/s of original activation bytes, the median of five passes.
func codecReplay(seed uint64, rec *recorder) (encMBs, decMBs float64) {
	m, ds := pcieInputs(seed)
	x, _ := ds.Batch(pcieBatch)
	m.Net.Forward(&nn.ActRef{Kind: compress.KindConv, T: x}, true)
	seen := map[*nn.ActRef]bool{}
	var refs []*nn.ActRef
	bytes := 0
	for _, r := range m.Net.SavedRefs() {
		if r == nil || r.T == nil || seen[r] {
			continue
		}
		seen[r] = true
		refs = append(refs, r)
		bytes += r.T.Bytes()
	}
	pipe := codec.New(quant.OptL())
	var encT, decT []float64
	for pass := int32(0); pass < 5; pass++ {
		id := rec.begin("codec.encode", 0, -1-pass)
		t0 := time.Now()
		encs := make([]codec.Encoded, len(refs))
		for i, r := range refs {
			e, err := pipe.Encode(r.Kind, r.T)
			if err != nil {
				panic(fmt.Sprintf("codec replay: encode %q: %v", r.Name, err))
			}
			encs[i] = e
		}
		encT = append(encT, time.Since(t0).Seconds())
		rec.end(id)
		id = rec.begin("codec.decode", 0, -1-pass)
		t0 = time.Now()
		for i := range encs {
			if _, err := pipe.Decode(encs[i].Frame); err != nil {
				panic(fmt.Sprintf("codec replay: decode: %v", err))
			}
		}
		decT = append(decT, time.Since(t0).Seconds())
		rec.end(id)
	}
	mb := float64(bytes) / 1e6
	return mb / median(encT), mb / median(decT)
}
