package jpegact

import (
	"testing"

	"jpegact/internal/compress"
	"jpegact/internal/data"
	"jpegact/internal/frame"
	"jpegact/internal/nn"
	"jpegact/internal/offload/codec"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

// TestCompressActivationAllocs guards the allocation budget of the hot
// compression path. The seed implementation allocated 4123 objects per
// CompressActivation call (per-block DCT temporaries escaping through an
// indirect transform call, a flat ZVC copy, a codes tensor, fresh padded
// planes); pooled scratch buffers and devirtualized DCT kernels brought
// that down to ~23. The bound leaves slack for benign churn but fails
// loudly if per-block allocations ever creep back in.
func TestCompressActivationAllocs(t *testing.T) {
	r := tensor.NewRNG(1)
	x := data.ActivationTensor(r, 4, 16, 32, 32, 0.5, 1.0)
	m := JPEGACT()

	// Pin to one worker: goroutine spawns would otherwise count as
	// allocations and vary with GOMAXPROCS.
	prev := SetParallelWorkers(1)
	defer SetParallelWorkers(prev)

	// Warm the sync.Pools so the steady state is measured.
	CompressActivation(m, x, KindConv, 10)

	allocs := testing.AllocsPerRun(10, func() {
		CompressActivation(m, x, KindConv, 10)
	})
	const maxAllocs = 200 // seed: 4123; current: ~23
	if allocs > maxAllocs {
		t.Fatalf("CompressActivation allocates %.0f objects/op, budget %d (seed was 4123)",
			allocs, maxAllocs)
	}
}

// TestGradExchangeAllocs guards the data-parallel gradient exchange hot
// path: one encode+decode round trip per chunk per microbatch per step,
// driven exactly as the trainer drives it — a pooled staging tensor
// into EncodeGradient, the frame across the wire codec, and
// DecodeGradientInto a pooled destination. The only per-op allocations
// allowed are the wire artifacts that must be fresh (the payload and
// frame the transport retains for resends, the decoded frame's slices)
// — a small constant per chunk, never per element. The budget fails
// loudly if a fresh tensor or staging copy ever sneaks back in.
func TestGradExchangeAllocs(t *testing.T) {
	const n = 1 << 14 // one quarter-size chunk: enough to expose per-element churn
	r := tensor.NewRNG(3)
	grad := make([]float32, n)
	for i := range grad {
		grad[i] = float32(r.Norm()) * 0.01
	}

	prev := SetParallelWorkers(1)
	defer SetParallelWorkers(prev)

	p := codec.Pipeline{}
	staging := &tensor.Tensor{Shape: tensor.Shape{N: 1, C: 1, H: 1, W: n}, Data: make([]float32, n)}
	dst := make([]float32, n)

	for _, gc := range []frame.Codec{frame.CodecGradRaw, frame.CodecGradQuant} {
		gc := gc
		roundTrip := func() {
			copy(staging.Data, grad)
			enc, err := p.EncodeGradient(gc, staging)
			if err != nil {
				t.Fatal(err)
			}
			wire := frame.EncodeFrame(enc.Frame)
			f, err := frame.DecodeFrame(wire)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.DecodeGradientInto(f, dst); err != nil {
				t.Fatal(err)
			}
		}
		roundTrip() // warm any pools below the codec
		allocs := testing.AllocsPerRun(10, roundTrip)
		const maxAllocs = 24
		if allocs > maxAllocs {
			t.Fatalf("%s gradient chunk round trip allocates %.0f objects/op, budget %d",
				gc, allocs, maxAllocs)
		}
	}
}

// TestDecodeCoefficientsAllocs guards the coefficient-restore hot path:
// DecodeCoefficients runs once per qualifying saved activation per
// backward step, so per-block allocations there would undo the win of
// skipping the inverse transform. With the plane and its block storage
// drawn from pools, a steady-state decode+release cycle costs only the
// plane bookkeeping (~a dozen objects); the budget fails loudly if
// per-block temporaries ever start escaping.
func TestDecodeCoefficientsAllocs(t *testing.T) {
	r := tensor.NewRNG(2)
	x := data.ActivationTensor(r, 2, 4, 16, 16, 0.5, 1.0)

	p := codec.New(quant.OptL())
	enc, err := p.Encode(compress.KindConv, x)
	if err != nil {
		t.Fatal(err)
	}
	f, err := frame.DecodeFrame(frame.EncodeFrame(enc.Frame))
	if err != nil {
		t.Fatal(err)
	}

	prev := SetParallelWorkers(1)
	defer SetParallelWorkers(prev)

	// Warm the plane/block pools so the steady state is measured.
	if pl, err := p.DecodeCoefficients(f); err != nil {
		t.Fatal(err)
	} else {
		pl.Release()
	}

	allocs := testing.AllocsPerRun(10, func() {
		pl, err := p.DecodeCoefficients(f)
		if err != nil {
			t.Fatal(err)
		}
		pl.Release()
	})
	const maxAllocs = 16
	if allocs > maxAllocs {
		t.Fatalf("DecodeCoefficients+Release allocates %.0f objects/op, budget %d",
			allocs, maxAllocs)
	}
}

// raceEnabled is set in race builds, where sync.Pool drops a random
// share of its puts.
var raceEnabled bool

// TestConvStepAllocs guards one Conv2D forward+backward, the unit the
// training step repeats per conv layer. The layer forks once per pass
// over the batch and runs each element's im2col, GEMMs and col2im on
// one goroutine with pooled scratch, so its allocations are the output
// tensors, the ∇x tensor and a few closures and goroutines per pass —
// a constant per call, never per batch element or per GEMM. One budget
// holds at 1 and 2 workers: it does not depend on GOMAXPROCS.
func TestConvStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random, so the count is not the layer's")
	}
	r := tensor.NewRNG(4)
	c := nn.NewConv2D("c", 10, 10, 3, nn.ConvOpts{Pad: 1}, r)
	x := data.ActivationTensor(r, 8, 10, 16, 16, 0.5, 1.0)
	grad := tensor.New(8, 10, 16, 16)
	grad.FillNormal(r, 0, 1)
	step := func() {
		c.Forward(&nn.ActRef{Name: "x", T: x}, true)
		c.Backward(grad)
	}
	for _, w := range []int{1, 2} {
		prev := SetParallelWorkers(w)
		step() // warm the scratch pools
		allocs := testing.AllocsPerRun(10, step)
		SetParallelWorkers(prev)
		const maxAllocs = 48 // per-element loop: 55 at 1 worker; now 10 and 19
		if allocs > maxAllocs {
			t.Fatalf("workers=%d: conv forward+backward allocates %.0f objects/op, budget %d",
				w, allocs, maxAllocs)
		}
		t.Logf("workers=%d: %.0f allocs/op", w, allocs)
	}
}
