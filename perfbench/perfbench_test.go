package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"jpegact/internal/models"
	"jpegact/internal/quant"
	"jpegact/internal/train"
)

// The offload-pcie loop must be the trainer users run: for the same
// seed, model, link and options its per-epoch mean losses equal
// train.ClassifierOffloaded's bit for bit.
func TestOffloadLoopMatchesTrainer(t *testing.T) {
	const seed = 3
	tr := newPCIeTrainer()
	defer tr.close()
	ep := tr.runEpisode(seed, 0)
	if ep.err != nil {
		t.Fatal(ep.err)
	}

	m, ds := pcieInputs(seed)
	rep, _, err := train.ClassifierOffloaded(m, ds,
		train.Config{Epochs: pcieEpochs, BatchesPerEpoch: pcieBatches, BatchSize: pcieBatch,
			LR: trainLR, Momentum: trainMomentum, WeightDecay: trainWeightDecay},
		train.OffloadOptions{DQT: quant.OptL(), Channel: newPCIeLink(pcieLinkBytesPerSec, pcieLinkSetup),
			Async: true, Prefetch: pciePrefetch})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Epochs) != len(ep.epochLoss) {
		t.Fatalf("trainer ran %d epochs, benchmark loop %d", len(rep.Epochs), len(ep.epochLoss))
	}
	for i, e := range rep.Epochs {
		if math.Float64bits(e.Loss) != math.Float64bits(ep.epochLoss[i]) {
			t.Errorf("epoch %d: trainer loss %v, benchmark loop %v", i, e.Loss, ep.epochLoss[i])
		}
	}
}

// The dp-exchange run (K=2) must land on the weights of a K=1 run.
func TestDPExchangeMatchesOneReplica(t *testing.T) {
	const seed, steps = 5, 3
	s := startStoreServer()
	defer s.close()
	ep := runDPEpisode(seed, steps, s.dial)
	if ep.err != nil {
		t.Fatal(ep.err)
	}

	first := dpModel(seed) // K=1 builds a single replica
	_, _, err := train.ClassifierDataParallel(func() *models.Model { return first }, dpData(seed), dpConfig(seed, steps), dpOptions(1, s.dial, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !sameWeights(train.DPFinalWeights(first), ep.weights) {
		t.Error("K=2 final weights differ from K=1")
	}
	if n := s.srv.Entries(); n != 0 {
		t.Errorf("%d entries left in the store", n)
	}
}

// Tracing off must cost no allocations at the call sites.
func TestRecorderOffAllocatesNothing(t *testing.T) {
	var rec *recorder
	now := time.Now()
	allocs := testing.AllocsPerRun(1000, func() {
		id := rec.begin("nn.forward", 0, 1)
		rec.end(id)
		rec.add("transport.put", id, 1, now, time.Millisecond)
	})
	if allocs != 0 {
		t.Errorf("recorder off: %v allocations per call site", allocs)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "parent", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "b", ID: 3, Parent: 1, Start: 20, End: 40},  // overlaps a
		{Name: "c", ID: 4, Parent: 1, Start: 90, End: 120}, // clipped at 100
	}
	self := selfTimes(spans)
	if got, want := self[0], time.Duration(100-30-10); got != want {
		t.Errorf("parent self time %v, want %v", got, want)
	}
	if self[1] != 20 {
		t.Errorf("leaf self time %v, want its duration", self[1])
	}
}

// BENCHMARK.json must declare exactly the workloads and metrics the
// command reports, with the same units.
func TestBenchmarkJSONMatchesReportedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var b struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, declared []named, units map[string]string) {
		if len(declared) != len(units) {
			t.Errorf("%s: BENCHMARK.json declares %d, the command reports %d", what, len(declared), len(units))
		}
		for _, d := range declared {
			if u, ok := units[d.Name]; !ok || u != d.Unit {
				t.Errorf("%s %s: declared unit %q, reported %q (present %v)", what, d.Name, d.Unit, u, ok)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEndUnits)
	same("per_layer", b.PerLayer, perLayerUnits)
	wl := map[string]string{}
	for name := range workloads {
		wl[name] = ""
	}
	same("workload", b.Workloads, wl)
}
