package service

import (
	"sync"

	"cognicryptgen/wire"
)

// flight is one in-progress generation that concurrent identical requests
// attach to. resp and err are written exactly once, before done closes.
type flight struct {
	done chan struct{}
	resp wire.GenerateResponse
	err  error
}

// flightGroup coalesces duplicate in-flight generations (singleflight):
// the first goroutine to join a key becomes the leader and runs the
// generation; goroutines joining the same key while the leader is running
// wait for its result instead of submitting the identical work again. N
// concurrent identical cache misses therefore cost exactly one generation.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: map[string]*flight{}}
}

// join returns the flight for key, creating it when absent. leader reports
// whether the caller created the flight and therefore must call finish.
func (g *flightGroup) join(key string) (f *flight, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.m[key]; ok {
		return f, false
	}
	f = &flight{done: make(chan struct{})}
	g.m[key] = f
	return f, true
}

// finish publishes the leader's result and wakes every waiter. The flight
// is removed from the group before done closes, so a request arriving
// later starts fresh — and, on success, hits the result cache the leader
// populated before calling finish.
func (g *flightGroup) finish(key string, f *flight, resp wire.GenerateResponse, err error) {
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	f.resp, f.err = resp, err
	close(f.done)
}
