// Package latwindow is the sliding-window p99 estimator behind two
// latency-driven decisions: the worker pool's deadline-aware admission
// (service) and the SDK's p99-derived hedge delay (client).
package latwindow

import (
	"sort"
	"sync"
	"time"
)

const (
	// Size is the number of most recent samples the window keeps.
	Size = 256
	// MinSamples is how many samples P99 needs before it reports an
	// estimate; below it there is no basis for predicting latency.
	MinSamples = 16
)

// Window is a ring of the last Size observed durations. The zero value is
// an empty window; it is safe for concurrent use.
type Window struct {
	mu      sync.Mutex
	samples [Size]time.Duration
	next    int
	full    bool
}

// Observe records one duration, evicting the oldest once the ring is full.
func (w *Window) Observe(d time.Duration) {
	w.mu.Lock()
	w.samples[w.next] = d
	w.next = (w.next + 1) % Size
	if w.next == 0 {
		w.full = true
	}
	w.mu.Unlock()
}

// P99 returns the nearest-rank p99 (the ceil(0.99n)-th smallest) of the
// samples in the window. ok is false until MinSamples have been observed.
func (w *Window) P99() (d time.Duration, ok bool) {
	w.mu.Lock()
	n := w.next
	if w.full {
		n = Size
	}
	if n < MinSamples {
		w.mu.Unlock()
		return 0, false
	}
	sorted := append([]time.Duration(nil), w.samples[:n]...)
	w.mu.Unlock()
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[(99*n+99)/100-1], true
}
