package nn

import (
	"math"
	"sync"
	"sync/atomic"

	"jpegact/internal/parallel"
)

// Cache-blocked GEMM with packed B panels and register-tiled
// micro-kernels.
//
// The saxpy kernels in gemm_ref.go load and store a C element for every
// multiply-add. The kernels here instead hold a 2×4 tile of C in
// registers for the whole k loop: per k step they issue 6 loads for 8
// multiply-adds and no stores, roughly halving the instruction count per
// flop — the win register blocking buys on a scalar ISA. B is packed
// once per call into 4-column panels laid out k-major, so the
// micro-kernel's B loads are a single contiguous stream instead of an
// n-strided column walk; edge panels are zero-padded to width 4.
//
// Determinism contract (the repo-wide invariant): every C element must
// accumulate in exactly the order the reference kernel uses, at any
// worker count. The micro-kernels seed each accumulator with the
// incoming C value, run the FULL k range ascending with no partial sums,
// and replicate the reference zero-skip on A (Gemm/GemmTA skip av == 0,
// which matters for ±0 signs; GemmTB sums from zero with no skip and
// adds into C once). Row blocking, column paneling, and worker sharding
// only reorder work BETWEEN C elements, never the float32 op sequence
// WITHIN one, so the output is bit-identical to gemm_ref.go and to
// itself at any worker count. Tests in gemm_equiv_test.go pin this.

// gemmMinWork is the minimum number of multiply-adds one parallel chunk
// should carry; below it the goroutine overhead dominates and the
// kernels fall back to the serial path.
const gemmMinWork = 1 << 15

// gemmNR is the packed panel width and micro-tile width: 4 C columns.
const gemmNR = 4

// gemmMR is the micro-tile height: 2 C rows. 2×4 accumulators plus the
// per-step A and B temporaries fit the 16 scalar float registers of
// amd64 without spilling; anything larger spills the accumulators and
// loses the whole point of the tile.
const gemmMR = 2

// scratchPool recycles float32 scratch buffers across calls. New
// buffers are allocated at the high-water mark of requested sizes:
// calls of different shapes interleave, and a popped buffer that is too
// small for the current call would otherwise be discarded and
// re-allocated forever. At the high-water capacity every pooled buffer
// serves every request, so steady state allocates nothing.
type scratchPool struct {
	pool sync.Pool
	max  atomic.Int64
}

func (s *scratchPool) get(n int) *[]float32 {
	if p, ok := s.pool.Get().(*[]float32); ok && cap(*p) >= n {
		*p = (*p)[:n]
		return p
	}
	hw := int(s.max.Load())
	for hw < n {
		if s.max.CompareAndSwap(int64(hw), int64(n)) {
			hw = n
			break
		}
		hw = int(s.max.Load())
	}
	buf := make([]float32, n, hw)
	return &buf
}

func (s *scratchPool) put(p *[]float32) { s.pool.Put(p) }

// packPool holds the packed-B and transposed-A buffers of in-flight
// GEMMs (workers share the read-only packed panels), and the conv
// layers' im2col scratch and transposed weights, which are of the same
// size class.
var packPool scratchPool

// packB lays B (row-major K×N) out as ceil(n/4) panels of K rows × 4
// columns, k-major within a panel; edge panels are zero-padded. Packing
// is a serial O(k·n) copy: parallelizing it would cost a closure
// allocation and a pool barrier per GEMM call to speed up ~1/m of the
// O(m·k·n) total work.
func packB(k, n int, b, packed []float32) {
	np := (n + gemmNR - 1) / gemmNR
	for p := 0; p < np; p++ {
		j0 := p * gemmNR
		nr := n - j0
		dst := packed[p*k*gemmNR:]
		if nr >= gemmNR {
			for kk := 0; kk < k; kk++ {
				src := b[kk*n+j0 : kk*n+j0+gemmNR]
				d := dst[kk*gemmNR : kk*gemmNR+gemmNR]
				d[0], d[1], d[2], d[3] = src[0], src[1], src[2], src[3]
			}
			continue
		}
		for kk := 0; kk < k; kk++ {
			d := dst[kk*gemmNR : kk*gemmNR+gemmNR]
			d[0], d[1], d[2], d[3] = 0, 0, 0, 0
			copy(d, b[kk*n+j0:kk*n+j0+nr])
		}
	}
}

// gemmMicro2x4 updates the 2×4 C tile (c0[0:4], c1[0:4]) against a
// packed panel: accumulators seeded from C, full-k ascending, per-row
// zero-skip, one store per element at the end. B values are consumed as
// indexed loads rather than hoisted temporaries — eight accumulators
// plus four B temps spill on amd64's sixteen scalar float registers,
// and a spilled accumulator costs more than a reloaded L1-hot operand.
// nonZero reports whether v is neither +0 nor -0 — exactly the
// reference kernels' `av == 0 { continue }` guard (NaN counts as
// non-zero there too, since NaN == 0 is false). The bit test compiles
// to one integer branch instead of ucomiss plus a parity branch.
func nonZero(v float32) bool {
	return math.Float32bits(v)<<1 != 0
}

func gemmMicro2x4(k int, a0, a1, pb []float32, c0, c1 []float32) {
	a0 = a0[:k]
	a1 = a1[:k]
	s00, s01, s02, s03 := c0[0], c0[1], c0[2], c0[3]
	s10, s11, s12, s13 := c1[0], c1[1], c1[2], c1[3]
	for kk := 0; kk < k; kk++ {
		bp := (*[gemmNR]float32)(pb[kk*gemmNR:])
		if av := a0[kk]; nonZero(av) {
			s00 += av * bp[0]
			s01 += av * bp[1]
			s02 += av * bp[2]
			s03 += av * bp[3]
		}
		if av := a1[kk]; nonZero(av) {
			s10 += av * bp[0]
			s11 += av * bp[1]
			s12 += av * bp[2]
			s13 += av * bp[3]
		}
	}
	c0[0], c0[1], c0[2], c0[3] = s00, s01, s02, s03
	c1[0], c1[1], c1[2], c1[3] = s10, s11, s12, s13
}

func gemmMicro1x4(k int, a0, pb []float32, c0 []float32) {
	a0 = a0[:k]
	s00, s01, s02, s03 := c0[0], c0[1], c0[2], c0[3]
	for kk := 0; kk < k; kk++ {
		if av := a0[kk]; nonZero(av) {
			bp := (*[gemmNR]float32)(pb[kk*gemmNR:])
			s00 += av * bp[0]
			s01 += av * bp[1]
			s02 += av * bp[2]
			s03 += av * bp[3]
		}
	}
	c0[0], c0[1], c0[2], c0[3] = s00, s01, s02, s03
}

// gemmEdgePanel handles the zero-padded last panel (nr < 4 real
// columns) for rows [i0, i1): same ascending-k skip-zero order, scalar
// stores restricted to the real columns.
func gemmEdgePanel(k, n, nr, i0, i1, j0 int, a, pb, c []float32) {
	for i := i0; i < i1; i++ {
		arow := a[i*k : (i+1)*k]
		crow := c[i*n+j0 : i*n+j0+nr]
		for kk := 0; kk < k; kk++ {
			av := arow[kk]
			if av == 0 {
				continue
			}
			b := pb[kk*gemmNR : kk*gemmNR+gemmNR][:nr]
			for j := range b {
				crow[j] += av * b[j]
			}
		}
	}
}

// gemmMicroDense2x4 is gemmMicro2x4 without the zero guards, for A rows
// the caller has verified contain no ±0 value: on such rows the guards
// can never fire, so dropping them changes nothing — it only removes two
// branches per k step from the hottest loop in the package. Weight
// matrices (the A of every forward conv/linear lowering) are dense in
// practice; the guarded kernel earns its keep on ReLU-sparse gradients.
func gemmMicroDense2x4(k int, a0, a1, pb []float32, c0, c1 []float32) {
	a0 = a0[:k]
	a1 = a1[:k]
	s00, s01, s02, s03 := c0[0], c0[1], c0[2], c0[3]
	s10, s11, s12, s13 := c1[0], c1[1], c1[2], c1[3]
	for kk := 0; kk < k; kk++ {
		bp := (*[gemmNR]float32)(pb[kk*gemmNR:])
		av0, av1 := a0[kk], a1[kk]
		s00 += av0 * bp[0]
		s01 += av0 * bp[1]
		s02 += av0 * bp[2]
		s03 += av0 * bp[3]
		s10 += av1 * bp[0]
		s11 += av1 * bp[1]
		s12 += av1 * bp[2]
		s13 += av1 * bp[3]
	}
	c0[0], c0[1], c0[2], c0[3] = s00, s01, s02, s03
	c1[0], c1[1], c1[2], c1[3] = s10, s11, s12, s13
}

func gemmMicroDense1x4(k int, a0, pb []float32, c0 []float32) {
	a0 = a0[:k]
	s00, s01, s02, s03 := c0[0], c0[1], c0[2], c0[3]
	for kk := 0; kk < k; kk++ {
		bp := (*[gemmNR]float32)(pb[kk*gemmNR:])
		av := a0[kk]
		s00 += av * bp[0]
		s01 += av * bp[1]
		s02 += av * bp[2]
		s03 += av * bp[3]
	}
	c0[0], c0[1], c0[2], c0[3] = s00, s01, s02, s03
}

// rowDensePool recycles the per-call row density flags.
var rowDensePool sync.Pool

func getDense(n int) *[]bool {
	if p, ok := rowDensePool.Get().(*[]bool); ok && cap(*p) >= n {
		*p = (*p)[:n]
		return p
	}
	buf := make([]bool, n)
	return &buf
}

func putDense(p *[]bool) { rowDensePool.Put(p) }

// scanDense marks which rows of row-major A contain no ±0 element, the
// precondition for the unguarded micro-kernels. Serial like packB: a
// single O(m·k) read pass, typically exiting each sparse row early.
func scanDense(m, k int, a []float32, dense []bool) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		d := true
		for _, v := range arow {
			if !nonZero(v) {
				d = false
				break
			}
		}
		dense[i] = d
	}
}

// gemmRowGrain is the row grain of a row-parallel GEMM whose rows each
// carry perRow multiply-adds: enough rows for gemmMinWork, rounded up
// to whole gemmMR-row tiles, so only the matrix's own last row can fall
// to the 1-row kernels.
func gemmRowGrain(perRow int) int {
	g := parallel.Grain(perRow, gemmMinWork)
	return (g + gemmMR - 1) / gemmMR * gemmMR
}

// gemmPackedBody runs the packed register-tiled kernels for C += A·B
// with row-major A and pre-packed B panels: split into whole-tile row
// chunks over the worker pool when fork is set, inline otherwise.
func gemmPackedBody(m, k, n, np int, a, pk, c []float32, dense []bool, fork bool) {
	if !fork {
		gemmPackedRows(0, m, k, n, np, a, pk, c, dense)
		return
	}
	parallel.For(m, gemmRowGrain(k*n), func(lo, hi int) {
		gemmPackedRows(lo, hi, k, n, np, a, pk, c, dense)
	})
}

// gemmPackedRows computes rows [lo, hi) of C, picking the dense or
// guarded micro-kernel per row pair.
func gemmPackedRows(lo, hi, k, n, np int, a, pk, c []float32, dense []bool) {
	for p := 0; p < np; p++ {
		j0 := p * gemmNR
		pb := pk[p*k*gemmNR : (p+1)*k*gemmNR]
		if n-j0 < gemmNR {
			gemmEdgePanel(k, n, n-j0, lo, hi, j0, a, pb, c)
			continue
		}
		i := lo
		for ; i+gemmMR <= hi; i += gemmMR {
			a0 := a[i*k : (i+1)*k]
			a1 := a[(i+1)*k : (i+2)*k]
			c0 := c[i*n+j0 : i*n+j0+gemmNR]
			c1 := c[(i+1)*n+j0 : (i+1)*n+j0+gemmNR]
			if dense[i] && dense[i+1] {
				gemmMicroDense2x4(k, a0, a1, pb, c0, c1)
			} else {
				gemmMicro2x4(k, a0, a1, pb, c0, c1)
			}
		}
		if i < hi {
			a0 := a[i*k : (i+1)*k]
			c0 := c[i*n+j0 : i*n+j0+gemmNR]
			if dense[i] {
				gemmMicroDense1x4(k, a0, pb, c0)
			} else {
				gemmMicro1x4(k, a0, pb, c0)
			}
		}
	}
}

// Gemm computes C += A·B for row-major matrices: A is M×K, B is K×N,
// C is M×N. Large shapes run the packed register-tiled kernels; small
// ones fall back to the (bit-identical) saxpy reference. Rows of C are
// spread over the worker pool.
func Gemm(m, k, n int, a, b, c []float32) { gemm(m, k, n, a, b, c, true) }

// gemm is Gemm, run inline on the calling goroutine unless fork is set.
func gemm(m, k, n int, a, b, c []float32, fork bool) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic("nn: gemm size mismatch")
	}
	if m < gemmMR || n < gemmNR || k < 8 {
		if fork {
			gemmSaxpy(m, k, n, a, b, c)
		} else {
			gemmSaxpyRows(0, m, k, n, a, b, c)
		}
		return
	}
	np := (n + gemmNR - 1) / gemmNR
	packed := packPool.get(np * k * gemmNR)
	packB(k, n, b, *packed)
	dense := getDense(m)
	scanDense(m, k, a, *dense)
	gemmPackedBody(m, k, n, np, a, *packed, c, *dense, fork)
	putDense(dense)
	packPool.put(packed)
}

// packAT transposes A (stored K×M) into row-major M×K, in 32×32 tiles so
// both sides stay within a few cache lines per step. One transpose pass
// replaces the m/2 strided column walks the micro-kernels would
// otherwise do, and lets GemmTA share Gemm's entire packed body.
func packAT(k, m int, a, at []float32) {
	const tile = 32
	for i0 := 0; i0 < m; i0 += tile {
		i1 := i0 + tile
		if i1 > m {
			i1 = m
		}
		for k0 := 0; k0 < k; k0 += tile {
			k1 := k0 + tile
			if k1 > k {
				k1 = k
			}
			for i := i0; i < i1; i++ {
				row := at[i*k:]
				for kk := k0; kk < k1; kk++ {
					row[kk] = a[kk*m+i]
				}
			}
		}
	}
}

// GemmTA computes C += Aᵀ·B where A is K×M (so Aᵀ is M×K), B is K×N,
// C is M×N. A is transposed once into a pooled buffer and the call runs
// Gemm's packed body; the reference accumulation order per C element
// (ascending k, skip zero) is unchanged by either packing.
func GemmTA(m, k, n int, a, b, c []float32) {
	if len(a) < k*m || len(b) < k*n || len(c) < m*n {
		panic("nn: gemmTA size mismatch")
	}
	if m < gemmMR || n < gemmNR || k < 8 {
		gemmTASaxpy(m, k, n, a, b, c)
		return
	}
	np := (n + gemmNR - 1) / gemmNR
	packed := packPool.get(np * k * gemmNR)
	packB(k, n, b, *packed)
	atp := packPool.get(m * k)
	packAT(k, m, a, *atp)
	dense := getDense(m)
	scanDense(m, k, *atp, *dense)
	gemmPackedBody(m, k, n, np, *atp, *packed, c, *dense, true)
	putDense(dense)
	packPool.put(atp)
	packPool.put(packed)
}

// gemmTBMicro2x4 computes the 2×4 tile of A·Bᵀ dot products: eight
// independent full-k sums from zero sharing six loads per k step, then
// one add into C per element — the reference per-element sequence
// (GemmTB has no zero-skip).
func gemmTBMicro2x4(k int, a0, a1, b0, b1, b2, b3, c0, c1 []float32) {
	var s00, s01, s02, s03 float32
	var s10, s11, s12, s13 float32
	for kk := 0; kk < k; kk++ {
		av0, av1 := a0[kk], a1[kk]
		bv0, bv1, bv2, bv3 := b0[kk], b1[kk], b2[kk], b3[kk]
		s00 += av0 * bv0
		s01 += av0 * bv1
		s02 += av0 * bv2
		s03 += av0 * bv3
		s10 += av1 * bv0
		s11 += av1 * bv1
		s12 += av1 * bv2
		s13 += av1 * bv3
	}
	c0[0] += s00
	c0[1] += s01
	c0[2] += s02
	c0[3] += s03
	c1[0] += s10
	c1[1] += s11
	c1[2] += s12
	c1[3] += s13
}

func gemmTBDot(k int, arow, brow []float32) float32 {
	var sum float32
	for kk := 0; kk < k; kk++ {
		sum += arow[kk] * brow[kk]
	}
	return sum
}

// GemmTB computes C += A·Bᵀ where A is M×K, B is N×K (so Bᵀ is K×N),
// C is M×N. Both operands are row-contiguous in k, so no packing is
// needed; the 2×4 dot tile reuses every load where the one-dot-at-a-time
// reference cannot. Rows of C are spread over the worker pool.
func GemmTB(m, k, n int, a, b, c []float32) {
	if len(a) < m*k || len(b) < n*k || len(c) < m*n {
		panic("nn: gemmTB size mismatch")
	}
	parallel.For(m, gemmRowGrain(k*n), func(lo, hi int) {
		gemmTBRows(lo, hi, k, n, a, b, c)
	})
}

// gemmTBRows computes rows [lo, hi) of GemmTB's C += A·Bᵀ.
func gemmTBRows(lo, hi, k, n int, a, b, c []float32) {
	i := lo
	for ; i+2 <= hi; i += 2 {
		a0 := a[i*k : (i+1)*k]
		a1 := a[(i+1)*k : (i+2)*k]
		c0 := c[i*n : (i+1)*n]
		c1 := c[(i+1)*n : (i+2)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			gemmTBMicro2x4(k, a0, a1,
				b[j*k:(j+1)*k], b[(j+1)*k:(j+2)*k], b[(j+2)*k:(j+3)*k], b[(j+3)*k:(j+4)*k],
				c0[j:j+4], c1[j:j+4])
		}
		for ; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			c0[j] += gemmTBDot(k, a0, brow)
			c1[j] += gemmTBDot(k, a1, brow)
		}
	}
	for ; i < hi; i++ {
		arow := a[i*k : (i+1)*k]
		crow := c[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			crow[j] += gemmTBDot(k, arow, b[j*k:(j+1)*k])
		}
	}
}
