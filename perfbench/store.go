package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"jpegact/internal/offload/netstore"
	"jpegact/internal/offload/transport"
)

// storeServer is an in-process activation store with default settings
// (one replica, no hedging) listening on an abstract unix socket, which
// leaves no file behind.
type storeServer struct {
	srv  *netstore.Server
	dial transport.Dialer
	done chan struct{}
}

var storeSeq atomic.Int64

func startStoreServer() *storeServer {
	addr := fmt.Sprintf("unix:@jpegact-perfbench-%d-%d", os.Getpid(), storeSeq.Add(1))
	srv := netstore.New(netstore.Config{})
	ln, err := srv.Listen(addr)
	if err != nil {
		panic(fmt.Sprintf("start store: %v", err))
	}
	dial, err := transport.DialAddr(addr)
	if err != nil {
		panic(fmt.Sprintf("store address: %v", err))
	}
	s := &storeServer{srv: srv, dial: dial, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		// Serve returns nil once close stops the server; a listener that
		// fails earlier shows as failed operations.
		_ = srv.Serve(ln)
	}()
	return s
}

// close stops the server and waits for it to exit.
func (s *storeServer) close() {
	s.srv.Close()
	<-s.done
}

// storePeak is what a storePoller saw.
type storePeak struct {
	entries   int
	hostBytes int64
	after     int // entries left when polling stopped
}

// storePoller samples the store's resident entries and bytes every two
// milliseconds; it runs only in traced runs, since it takes the shard
// locks.
type storePoller struct {
	s    *storeServer
	quit chan struct{}
	wg   sync.WaitGroup
	peak storePeak
}

func (s *storeServer) poll() *storePoller {
	p := &storePoller{s: s, quit: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.quit:
				return
			case <-t.C:
				p.peak.entries = max(p.peak.entries, s.srv.Entries())
				p.peak.hostBytes = max(p.peak.hostBytes, s.srv.HostBytes())
			}
		}
	}()
	return p
}

func (p *storePoller) stop() storePeak {
	close(p.quit)
	p.wg.Wait()
	p.peak.after = p.s.srv.Entries()
	return p.peak
}
