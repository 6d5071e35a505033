package loadgen

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cognicryptgen/client"
	"cognicryptgen/internal/clustertest"
	"cognicryptgen/templates"
	"cognicryptgen/wire"
)

// The failure drills (RunChaos, RunWarmRestart, RunHedge) run one fixed
// shape each: a 3-node cluster of 2-worker nodes with 64-entry result
// caches, a working set of distinct bodies derived from one template, and
// (where load runs across the fault) two closed-loop SDK clients. Each
// drill's result has a Check method that is its whole pass/fail contract.
const (
	drillNodes     = 3
	drillClients   = 2
	drillWorkers   = 2
	drillCacheSize = 64
	// drillProbeInterval is the peer health-probe period of the chaos and
	// warm-restart clusters (and the SDK's breaker open timeout there);
	// node-kill recovery is bounded at 2x this value.
	drillProbeInterval = 250 * time.Millisecond
	// drillStallLimit bounds each wait for load to progress or for the
	// survivors to notice a kill before the drill gives up.
	drillStallLimit = 30 * time.Second
	// drillConvergeLimit bounds each wait for health to converge after a
	// restart: survivors re-admitting the node, the node seeing its peers
	// healthy, the SDK's breaker for it closing.
	drillConvergeLimit = 5 * time.Second
)

// drillRequests returns the drill's working set: n requests whose template
// bodies differ only in a trailing comment, so each is a distinct cache
// entry and rendezvous key with deterministic output.
func drillRequests(tag string, n int) ([]wire.GenerateRequest, error) {
	src, err := templates.Source(templates.UseCases[2])
	if err != nil {
		return nil, err
	}
	reqs := make([]wire.GenerateRequest, n)
	for k := range reqs {
		reqs[k] = wire.GenerateRequest{
			Name:   fmt.Sprintf("%s%03d.go", tag, k),
			Source: src + fmt.Sprintf("\n// %s working-set key %03d\n", tag, k),
		}
	}
	return reqs, nil
}

// prime generates every working-set request once and returns each key's
// first answer, the reference every later response must match byte for
// byte. The drills fault a steady-state cluster (warm caches), so priming
// also keeps cold-start cost out of their measurements.
func prime(ctx context.Context, sdk *client.Client, reqs []wire.GenerateRequest) ([]string, error) {
	out := make([]string, len(reqs))
	for k, req := range reqs {
		resp, err := sdk.Generate(ctx, req)
		if err != nil {
			return nil, fmt.Errorf("loadgen: priming key %d: %w", k, err)
		}
		out[k] = resp.Output
	}
	return out, nil
}

// ownerIndex returns the index of the node that sdk routes req to: the
// rendezvous owner of the route key the SDK computes, so it must run after
// priming has taught the SDK the rule-set fingerprint. Drills fault this
// node. A fixed node index can own none of a small working set, and a
// fault on it then exercises nothing (no retries, no hedge wins, no
// restored hits).
func ownerIndex(cl *clustertest.Cluster, sdk *client.Client, req wire.GenerateRequest) int {
	urls := cl.URLs()
	owner := wire.RendezvousOwner(wire.RouteKey(sdk.Fingerprint(), req), urls)
	for i, u := range urls {
		if u == owner {
			return i
		}
	}
	panic("loadgen: rendezvous owner is not a cluster node")
}

// waitFor polls cond until it holds, failing with what after limit or
// when ctx ends.
func waitFor(ctx context.Context, limit time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(limit)
	for !cond() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("loadgen: %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// failoverClient is the SDK the chaos and warm-restart drills load the
// cluster through: retries with short backoff, breakers that half-open
// after one probe interval, and health from request outcomes alone.
func failoverClient(cl *clustertest.Cluster) (*client.Client, error) {
	return client.New(client.Config{
		Nodes:              cl.URLs(),
		MaxRetries:         4,
		BackoffBase:        5 * time.Millisecond,
		BackoffMax:         50 * time.Millisecond,
		BreakerOpenTimeout: drillProbeInterval,
		RetryBudget:        100,
		ProbeInterval:      -1,
	})
}

// plainClient is a fresh SDK (closed breakers, default backoff) for
// priming and post-fault passes.
func plainClient(cl *clustertest.Cluster) (*client.Client, error) {
	return client.New(client.Config{Nodes: cl.URLs(), MaxRetries: 4, ProbeInterval: -1})
}

// closedLoad is drillClients closed-loop clients cycling through a primed
// working set until stopped. Latencies of successful requests are filed
// under the chaos phase current when each request was sent; the
// warm-restart drill leaves the phase at 0 and ignores them, as one
// append per request costs it nothing it measures.
type closedLoad struct {
	requests   atomic.Int64
	errors     atomic.Int64
	divergence atomic.Int64
	phase      atomic.Int32

	mu   sync.Mutex
	lats [3][]time.Duration

	stop chan struct{}
	wg   sync.WaitGroup
}

func startLoad(ctx context.Context, sdk *client.Client, reqs []wire.GenerateRequest, firstOut []string) *closedLoad {
	l := &closedLoad{stop: make(chan struct{})}
	for c := 0; c < drillClients; c++ {
		l.wg.Add(1)
		go func(c int) {
			defer l.wg.Done()
			for i := c; ; i++ {
				select {
				case <-l.stop:
					return
				default:
				}
				k := i % len(reqs)
				ph := l.phase.Load()
				t0 := time.Now()
				resp, err := sdk.Generate(ctx, reqs[k])
				d := time.Since(t0)
				l.requests.Add(1)
				if err != nil {
					l.errors.Add(1)
					continue
				}
				if resp.Output != firstOut[k] {
					l.divergence.Add(1)
				}
				l.mu.Lock()
				l.lats[ph] = append(l.lats[ph], d)
				l.mu.Unlock()
			}
		}(c)
	}
	return l
}

// await returns once n more requests have completed: drill phases advance
// on completed requests, not wall time, so they exercise real load on any
// machine.
func (l *closedLoad) await(ctx context.Context, n int, what string) error {
	target := l.requests.Load() + int64(n)
	return waitFor(ctx, drillStallLimit, "load stalled during "+what, func() bool { return l.requests.Load() >= target })
}

// halt stops the clients and waits for them to return.
func (l *closedLoad) halt() {
	close(l.stop)
	l.wg.Wait()
}
