package main

import (
	"sync"
	"time"
)

// pcieLink is the benchmark's simulated host link, installed as the
// offload store's Channel. A transfer costs a fixed set-up time plus
// bytes/bandwidth, charged on a virtual link clock that serialises all
// transfers in both directions; the caller is held until its transfer
// completes on that clock, as a DMA completion would hold it.
//
// Timers overshoot: time.Sleep rounds sub-millisecond waits up to about
// a millisecond. Whatever a hold overshoots is kept as credit and taken
// off the following transfers, so overshoot does not add up over a run
// and the time callers spend held tracks the modelled busy time.
type pcieLink struct {
	bytesPerSec float64
	setup       time.Duration

	mu        sync.Mutex
	clock     time.Time     // the link is busy until clock
	credit    time.Duration // overshoot not yet taken off a transfer
	model     time.Duration // modelled busy time
	block     time.Duration // time callers were held
	transfers int64
	bytes     int64
	lat       []float64 // per transfer: queueing plus service on the link clock, ms
}

func newPCIeLink(bytesPerSec float64, setup time.Duration) *pcieLink {
	return &pcieLink{bytesPerSec: bytesPerSec, setup: setup}
}

// Send implements transport.Channel (the offload direction).
func (l *pcieLink) Send(b []byte) []byte { l.xfer(len(b)); return b }

// Recv implements transport.Channel (the restore direction).
func (l *pcieLink) Recv(b []byte) []byte { l.xfer(len(b)); return b }

func (l *pcieLink) xfer(n int) {
	cost := l.setup + time.Duration(float64(n)/l.bytesPerSec*float64(time.Second))
	now := time.Now()
	l.mu.Lock()
	start := l.clock
	if start.Before(now) {
		start = now
	}
	due := start.Add(cost)
	l.lat = append(l.lat, ms(due.Sub(now)))
	repay := min(l.credit, due.Sub(now))
	l.credit -= repay
	due = due.Add(-repay)
	l.clock = due
	l.model += cost
	l.transfers++
	l.bytes += int64(n)
	l.mu.Unlock()

	if wait := due.Sub(now); wait > 0 {
		time.Sleep(wait)
	}
	end := time.Now()
	l.mu.Lock()
	if end.After(due) {
		l.credit += end.Sub(due)
	}
	l.block += end.Sub(now)
	l.mu.Unlock()
}

// linkTotals is a snapshot of the link counters.
type linkTotals struct {
	model, block     time.Duration
	transfers, bytes int64
	lat              []float64
}

// take returns the counters accumulated since the last take and resets
// them; the link clock keeps running.
func (l *pcieLink) take() linkTotals {
	l.mu.Lock()
	defer l.mu.Unlock()
	t := linkTotals{model: l.model, block: l.block, transfers: l.transfers, bytes: l.bytes, lat: l.lat}
	l.model, l.block, l.transfers, l.bytes, l.lat = 0, 0, 0, 0, nil
	return t
}
