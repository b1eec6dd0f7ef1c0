package nn

import "jpegact/internal/tensor"

// The reference im2col lowering: one loop over batch elements, each
// running the row-parallel GEMMs against a single cols buffer and
// accumulating its ∇W term straight into the gradient. Conv2D spreads
// the batch over the worker pool instead; per output element it must
// run the same float32 op sequence as this loop, so the two agree bit
// for bit.

// convForwardRef returns the layer's forward output for x.
func convForwardRef(c *Conv2D, x *tensor.Tensor) *tensor.Tensor {
	ho, wo := c.outDims(x.Shape)
	spatial := ho * wo
	k2 := c.InC * c.Kernel * c.Kernel
	out := tensor.New(x.Shape.N, c.OutC, ho, wo)
	cols := make([]float32, k2*spatial)
	for n := 0; n < x.Shape.N; n++ {
		c.im2col(x, n, cols)
		Gemm(c.OutC, k2, spatial, c.Weight.W.Data, cols, out.Data[n*c.OutC*spatial:(n+1)*c.OutC*spatial])
	}
	if c.Bias != nil {
		for n := 0; n < x.Shape.N; n++ {
			for oc := 0; oc < c.OutC; oc++ {
				base := (n*c.OutC + oc) * spatial
				for i := 0; i < spatial; i++ {
					out.Data[base+i] += c.Bias.W.Data[oc]
				}
			}
		}
	}
	return out
}

// convBackwardRef returns ∇x for input x and output gradient grad, and
// accumulates ∇W into wGrad and ∇b into bGrad (nil without bias).
func convBackwardRef(c *Conv2D, x, grad *tensor.Tensor, wGrad, bGrad []float32) *tensor.Tensor {
	ho, wo := c.outDims(x.Shape)
	spatial := ho * wo
	k2 := c.InC * c.Kernel * c.Kernel
	dx := tensor.NewLike(x)
	cols := make([]float32, k2*spatial)
	dcols := make([]float32, k2*spatial)
	for n := 0; n < x.Shape.N; n++ {
		gout := grad.Data[n*c.OutC*spatial : (n+1)*c.OutC*spatial]
		c.im2col(x, n, cols)
		GemmTB(c.OutC, spatial, k2, gout, cols, wGrad)
		clear(dcols)
		GemmTA(k2, c.OutC, spatial, c.Weight.W.Data, gout, dcols)
		c.col2im(dcols, dx, n)
	}
	if bGrad != nil {
		for n := 0; n < x.Shape.N; n++ {
			for oc := 0; oc < c.OutC; oc++ {
				base := (n*c.OutC + oc) * spatial
				var sum float32
				for i := 0; i < spatial; i++ {
					sum += grad.Data[base+i]
				}
				bGrad[oc] += sum
			}
		}
	}
	return dx
}
