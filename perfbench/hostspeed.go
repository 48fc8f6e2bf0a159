package main

// Host-speed correction. The benchmark may share its host with other
// tenants; on a shared 2-CPU cloud host they slowed every pass by up to
// half for minutes at a time, which no repetition inside one run can
// average out. A monitor goroutine therefore runs a fixed reference
// loop every probeEvery while the workload runs, and each timed stretch
// is scaled by how much slower the loop ran during it than it runs on
// an idle host (probeNominal). Interleaving the loop with the work
// matters: sampled only between passes it tracked the slowdown too
// loosely to help.
//
// The loop depends on nothing in the repository and allocates nothing,
// so no change to the program can move it directly; its cost is about
// half a percent of one CPU.

import (
	"sync"
	"time"
)

const (
	probeEvery = 50 * time.Millisecond
	// probeNominal is the loop's median time on an idle 2-CPU x86-64
	// cloud host; corrected figures read as if measured at that speed.
	probeNominal = 220 * time.Microsecond
	probeHeap    = 1000 // events kept in the loop's heap
	probeSpan    = 4096 // slots of the loop's live-job table
	probeEvents  = 3000 // events per sample
)

// probeLoop is a small discrete-event loop with the simulator's
// instruction mix: a binary heap of timed events and a table of live
// jobs, both allocated once.
type probeLoop struct {
	heap []uint64
	live []uint64
	x    uint64
	sink uint64
}

func newProbeLoop() *probeLoop {
	return &probeLoop{heap: make([]uint64, 0, probeHeap+1), live: make([]uint64, probeSpan), x: 1}
}

// run times one sample of the loop.
func (p *probeLoop) run() time.Duration {
	t0 := time.Now()
	h := p.heap[:0]
	var now uint64
	for i := uint64(0); i < probeEvents; i++ {
		p.x += 0x9E3779B97F4A7C15
		z := p.x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		h = append(h, (now+z%4096)<<20|i%probeSpan)
		for k := len(h) - 1; k > 0; {
			up := (k - 1) / 2
			if h[up] <= h[k] {
				break
			}
			h[k], h[up] = h[up], h[k]
			k = up
		}
		p.live[i%probeSpan] = now
		for len(h) > probeHeap {
			top := h[0]
			n := len(h) - 1
			h[0] = h[n]
			h = h[:n]
			for k := 0; ; {
				l, r, m := 2*k+1, 2*k+2, k
				if l < n && h[l] < h[m] {
					m = l
				}
				if r < n && h[r] < h[m] {
					m = r
				}
				if m == k {
					break
				}
				h[k], h[m] = h[m], h[k]
				k = m
			}
			now = top >> 20
			p.sink += now - p.live[top%probeSpan]
		}
	}
	p.heap = h
	return time.Since(t0)
}

type probeSample struct {
	at time.Time
	d  time.Duration
}

// hostMonitor samples the probe loop on its own goroutine until Stop.
type hostMonitor struct {
	mu      sync.Mutex
	samples []probeSample
	stop    chan struct{}
	done    chan struct{}
}

func startMonitor() *hostMonitor {
	m := &hostMonitor{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		loop := newProbeLoop()
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				d := loop.run()
				m.mu.Lock()
				m.samples = append(m.samples, probeSample{at: time.Now(), d: d})
				m.mu.Unlock()
			}
		}
	}()
	return m
}

// Stop ends the monitor and waits for its goroutine to exit.
func (m *hostMonitor) Stop() {
	close(m.stop)
	<-m.done
}

// slowdown is the median probe time of the samples that ended in
// [from, to] over probeNominal: 1 on an idle host, 1.3 when the host
// ran the loop 30% slower. With no sample in the window it is 1.
func (m *hostMonitor) slowdown(from, to time.Time) float64 {
	m.mu.Lock()
	var ds []float64
	for _, s := range m.samples {
		if !s.at.Before(from) && !s.at.After(to) {
			ds = append(ds, float64(s.d))
		}
	}
	m.mu.Unlock()
	if len(ds) == 0 {
		return 1
	}
	return median(ds) / float64(probeNominal)
}
