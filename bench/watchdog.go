package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// watchdog turns a hang into a counted failure. Every op and probe is
// bracketed by begin/end; when ops are in flight and none has started or
// finished for limit, onHang runs once (on the watchdog's goroutine). A
// hung op never returns, so onHang must end the workload itself.
type watchdog struct {
	limit    time.Duration
	onHang   func()
	inflight atomic.Int64
	last     atomic.Int64 // UnixNano of the latest begin or end
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

func startWatchdog(limit time.Duration, onHang func()) *watchdog {
	w := &watchdog{limit: limit, onHang: onHang, stop: make(chan struct{}), done: make(chan struct{})}
	w.last.Store(time.Now().UnixNano())
	go w.watch()
	return w
}

func (w *watchdog) begin() {
	w.last.Store(time.Now().UnixNano())
	w.inflight.Add(1)
}

func (w *watchdog) end() {
	w.inflight.Add(-1)
	w.last.Store(time.Now().UnixNano())
}

func (w *watchdog) watch() {
	defer close(w.done)
	tick := time.NewTicker(max(w.limit/20, time.Millisecond))
	defer tick.Stop()
	for {
		select {
		case <-w.stop:
			return
		case now := <-tick.C:
			if w.inflight.Load() > 0 && now.UnixNano()-w.last.Load() > int64(w.limit) {
				w.onHang()
				return
			}
		}
	}
}

// close stops the watchdog and waits for its goroutine.
func (w *watchdog) close() {
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done
}
