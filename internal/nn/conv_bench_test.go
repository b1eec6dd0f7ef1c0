package nn

import (
	"runtime"
	"testing"

	"jpegact/internal/parallel"
	"jpegact/internal/tensor"
)

// BenchmarkConvStep runs one forward and one backward through every
// convolution of the offload-pcie workload's mini ResNet18 (width 10,
// one basic block per stage, 16×16 inputs, batch 8): the stem, the two
// stage-0 3×3s, the stride-2 stage-1 3×3, its 3×3 successor and the 1×1
// projection. The worker count follows GOMAXPROCS, so `-cpu 1,2` shows
// the conv layers' 2-core scaling.
func BenchmarkConvStep(b *testing.B) {
	const batch, width = 8, 10
	shapes := []struct {
		inC, outC, k, stride, pad, hw int
	}{
		{3, width, 3, 1, 1, 16},
		{width, width, 3, 1, 1, 16},
		{width, width, 3, 1, 1, 16},
		{width, 2 * width, 3, 2, 1, 16},
		{2 * width, 2 * width, 3, 1, 1, 8},
		{width, 2 * width, 1, 2, 0, 16},
	}
	r := tensor.NewRNG(5)
	convs := make([]*Conv2D, len(shapes))
	xs := make([]*tensor.Tensor, len(shapes))
	grads := make([]*tensor.Tensor, len(shapes))
	for i, s := range shapes {
		convs[i] = NewConv2D("bench", s.inC, s.outC, s.k, ConvOpts{Stride: s.stride, Pad: s.pad}, r)
		xs[i] = tensor.New(batch, s.inC, s.hw, s.hw)
		xs[i].FillNormal(r, 0, 1)
		ho, wo := convs[i].outDims(xs[i].Shape)
		grads[i] = tensor.New(batch, s.outC, ho, wo)
		grads[i].FillNormal(r, 0, 1)
	}
	defer parallel.SetWorkers(parallel.SetWorkers(runtime.GOMAXPROCS(0)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, c := range convs {
			c.Forward(&ActRef{Name: "x", T: xs[j]}, true)
			c.Backward(grads[j])
		}
	}
}
