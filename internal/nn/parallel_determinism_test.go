package nn

import (
	"fmt"
	"runtime"
	"testing"

	"jpegact/internal/parallel"
	"jpegact/internal/tensor"
)

// The parallel GEMMs partition output rows so each element is still
// accumulated in the serial k-order; the result must therefore be
// exactly (bit-for-bit) equal to the single-worker result, not merely
// close. These tests pin that for all three kernels.

func gemmTestOperands(m, k, n int, seed uint64) (a, b, c []float32) {
	r := tensor.NewRNG(seed)
	a = make([]float32, m*k)
	b = make([]float32, k*n)
	c = make([]float32, m*n)
	for i := range a {
		a[i] = float32(r.Norm())
	}
	for i := range b {
		b[i] = float32(r.Norm())
	}
	return
}

func TestGemmDeterministicAcrossWorkers(t *testing.T) {
	const m, k, n = 33, 47, 29
	kernels := []struct {
		name string
		run  func(a, b, c []float32)
	}{
		// Gemm/GemmTB index (m,k)×(k,n); GemmTA reads a as (k,m) and
		// GemmTB reads b as (n,k) — same element counts, reinterpreted.
		{"Gemm", func(a, b, c []float32) { Gemm(m, k, n, a, b, c) }},
		{"GemmTA", func(a, b, c []float32) { GemmTA(m, k, n, a, b, c) }},
		{"GemmTB", func(a, b, c []float32) { GemmTB(m, k, n, a, b, c) }},
	}
	for _, kr := range kernels {
		a, b, ref := gemmTestOperands(m, k, n, 42)
		old := parallel.SetWorkers(1)
		kr.run(a, b, ref)
		parallel.SetWorkers(old)
		for _, w := range []int{2, 3, runtime.GOMAXPROCS(0)} {
			got := make([]float32, m*n)
			old := parallel.SetWorkers(w)
			kr.run(a, b, got)
			parallel.SetWorkers(old)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("%s workers=%d: element %d = %v, serial %v (must be bit-identical)",
						kr.name, w, i, got[i], ref[i])
				}
			}
		}
	}
}

// convDetOperands fills x and grad with ReLU-like data (exact +0 and −0
// among normal values) and returns the gradients the layer starts from:
// ∇W and ∇b pre-seeded with values, +0 and −0, so that accumulation
// into an existing gradient, signs of zero included, is checked too.
func convDetOperands(c *Conv2D, x, grad *tensor.Tensor, seed uint64) (wGrad0, bGrad0 []float32) {
	r := tensor.NewRNG(seed)
	fill := func(d []float32) {
		for i := range d {
			switch r.Intn(4) {
			case 0:
				d[i] = 0
			case 1:
				d[i] = negZero
			default:
				d[i] = float32(r.Norm())
			}
		}
	}
	fill(x.Data)
	fill(grad.Data)
	wGrad0 = make([]float32, len(c.Weight.Grad.Data))
	fill(wGrad0)
	wGrad0[0] = negZero
	if c.Bias != nil {
		bGrad0 = make([]float32, len(c.Bias.Grad.Data))
		fill(bGrad0)
		bGrad0[0] = negZero
	}
	return
}

// TestConv2DDeterministicAcrossWorkers pins Conv2D's batch-parallel
// forward and backward to the per-element reference loop in
// conv_ref_test.go, bit for bit, at every worker count: output, ∇x, ∇W
// and ∇b.
func TestConv2DDeterministicAcrossWorkers(t *testing.T) {
	cfgs := []struct {
		name                   string
		inC, outC, k, str, pad int
		h, w                   int
		bias                   bool
	}{
		{"1x1", 12, 7, 1, 1, 0, 8, 8, true},
		{"1x1-narrow", 3, 5, 1, 1, 0, 6, 6, false}, // k2 < 8: the saxpy fallback
		{"3x3", 5, 9, 3, 1, 0, 9, 7, false},
		{"3x3-pad", 10, 10, 3, 1, 1, 16, 16, true},
		{"3x3-stride2-pad", 6, 11, 3, 2, 1, 9, 10, true},
	}
	for _, cfg := range cfgs {
		for _, batch := range []int{1, 3, 8} {
			c := NewConv2D("det", cfg.inC, cfg.outC, cfg.k,
				ConvOpts{Stride: cfg.str, Pad: cfg.pad, Bias: cfg.bias}, tensor.NewRNG(7))
			if c.Bias != nil {
				for i := range c.Bias.W.Data {
					c.Bias.W.Data[i] = float32(i) * 0.125
				}
			}
			x := tensor.New(batch, cfg.inC, cfg.h, cfg.w)
			ho, wo := c.outDims(x.Shape)
			grad := tensor.New(batch, cfg.outC, ho, wo)
			wGrad0, bGrad0 := convDetOperands(c, x, grad, uint64(batch))

			var wantOut, wantDx *tensor.Tensor
			wantW := append([]float32(nil), wGrad0...)
			wantB := append([]float32(nil), bGrad0...)
			runAtWorkers(1, func() {
				wantOut = convForwardRef(c, x)
				wantDx = convBackwardRef(c, x, grad, wantW, wantB)
			})
			name := fmt.Sprintf("%s/N=%d", cfg.name, batch)
			for _, w := range []int{1, 2, 3, runtime.GOMAXPROCS(0)} {
				copy(c.Weight.Grad.Data, wGrad0)
				if c.Bias != nil {
					copy(c.Bias.Grad.Data, bGrad0)
				}
				var out, dx *tensor.Tensor
				runAtWorkers(w, func() {
					out = c.Forward(&ActRef{Name: "x", T: x}, true).T
					dx = c.Backward(grad)
				})
				bitsEqual(t, name+" out", w, out.Data, wantOut.Data)
				bitsEqual(t, name+" dx", w, dx.Data, wantDx.Data)
				bitsEqual(t, name+" dW", w, c.Weight.Grad.Data, wantW)
				if c.Bias != nil {
					bitsEqual(t, name+" db", w, c.Bias.Grad.Data, wantB)
				}
			}
		}
	}
}
