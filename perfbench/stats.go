package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the p-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted. Empty input gives NaN.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// addTail sets m[name] to the p-quantile of xs in ms when at least ten
// samples lie beyond it, the fewest a tail percentile is reported from.
func addTail(m map[string]metric, name string, xs []float64, p float64) {
	if float64(len(xs))*(1-p) >= 10 {
		m[name] = metric{quantile(xs, p), "ms"}
	}
}

// windowed returns the median over consecutive windows of n values of
// each window's p-quantile: a tail percentile that one burst of machine
// noise cannot move by itself. A short last window is dropped.
func windowed(vals []float64, n int, p float64) float64 {
	var qs []float64
	for i := 0; i+n <= len(vals); i += n {
		qs = append(qs, quantile(vals[i:i+n], p))
	}
	if len(qs) == 0 {
		return quantile(vals, p)
	}
	return median(qs)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// heapSampler reads /gc/heap/live:bytes every few milliseconds between
// start and finish and keeps the maximum of each heapWindow; the peak it
// reports is the median of those maxima, which one stray collection
// cannot move by itself. It also notes the runtime allocation and GC
// counters at both ends.
type heapSampler struct {
	stop    chan struct{}
	wg      sync.WaitGroup
	windows []float64 // maximum live heap of each window, bytes

	allocs0, gcs0 uint64
	pause0        uint64
	allocs, gcs   uint64 // deltas, set by finish
	pause         time.Duration
}

const heapWindow = time.Second

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/live:bytes"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readRuntime() (live, allocs, gcs uint64) {
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()
}

func pauseTotal() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.PauseTotalNs
}

// startHeapSampler begins sampling; finish stops it and waits for the
// sampling goroutine to exit.
func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.pause0 = pauseTotal()
	var live uint64
	live, h.allocs0, h.gcs0 = readRuntime()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		peak, n, since := live, 1, time.Now()
		for {
			select {
			case <-h.stop:
				if n > 0 {
					h.windows = append(h.windows, float64(peak))
				}
				return
			case now := <-t.C:
				metrics.Read(s)
				peak, n = max(peak, s[0].Value.Uint64()), n+1
				if now.Sub(since) >= heapWindow {
					h.windows = append(h.windows, float64(peak))
					peak, n, since = 0, 0, now
				}
			}
		}
	}()
	return h
}

func (h *heapSampler) finish() {
	close(h.stop)
	h.wg.Wait()
	_, allocs, gcs := readRuntime()
	h.allocs, h.gcs = allocs-h.allocs0, gcs-h.gcs0
	h.pause = time.Duration(pauseTotal() - h.pause0)
}

func (h *heapSampler) peakMB() float64 { return median(h.windows) / 1e6 }

// runtimeLayer returns the Go runtime's per-layer metrics over a window
// of the given number of steps.
func (h *heapSampler) runtimeLayer(steps int) map[string]metric {
	n := float64(max(steps, 1))
	return map[string]metric{
		"runtime.alloc_mb_per_step": {float64(h.allocs) / 1e6 / n, "MB"},
		"runtime.gc_per_step":       {float64(h.gcs) / n, "count"},
		"runtime.gc_pause_ms":       {ms(h.pause) / n, "ms"},
	}
}
