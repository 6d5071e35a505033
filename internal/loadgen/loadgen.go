// Package loadgen drives synthetic load through in-process cryptgend
// clusters (internal/clustertest) via the client SDK and reports
// throughput, latency quantiles, and per-node cache/forward/shed counters.
// It is the measurement engine behind cmd/loadgen and the cluster rows in
// cmd/benchtables, and it holds the failure drills (node kill, warm
// restart, hedging) that cmd/benchtables and the cluster chaos suite run.
//
// The default workload is the cluster's reason to exist in miniature: a
// working set of distinct templates larger than one node's LRU. A single
// node thrashes (every request is a full generation); a routed cluster
// shards the same set across its members' caches and serves hits. The
// per-node numbers in the result make that mechanism visible instead of
// just its effect.
package loadgen

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cognicryptgen/client"
	"cognicryptgen/internal/clustertest"
	"cognicryptgen/service"
	"cognicryptgen/templates"
	"cognicryptgen/wire"
)

// Options configures one load run. Zero values get workload defaults.
type Options struct {
	// Nodes is the cluster size (1 = standalone baseline).
	Nodes int
	// Clients is the closed-loop concurrency (ignored in open loop).
	Clients int
	// Requests is the closed-loop total request count.
	Requests int
	// Rate, when positive, switches to open loop: arrivals at Rate
	// requests/second for Duration, regardless of completions.
	Rate float64
	// Duration bounds the open-loop run (0 = 5s).
	Duration time.Duration
	// WorkingSet is the number of distinct template keys in the workload.
	// Make it larger than CacheSize to thrash one node and fit N.
	WorkingSet int
	// CacheSize is each node's result-LRU capacity.
	CacheSize int
	// Workers is each node's worker-pool size.
	Workers int
	// DisableRouting makes the SDK round-robin instead of hash-route, so
	// cache locality comes from the daemons' peer forwarding.
	DisableRouting bool
	// Seed makes the key sequence reproducible.
	Seed int64
}

// NodeStats is one node's counter diff over the run.
type NodeStats struct {
	URL              string  `json:"url"`
	CacheHits        int64   `json:"cache_hits"`
	CacheMisses      int64   `json:"cache_misses"`
	CacheHitRate     float64 `json:"cache_hit_rate"`
	Coalesced        int64   `json:"coalesced"`
	ShedTotal        int64   `json:"shed_total"`
	ForwardedTotal   int64   `json:"forwarded_total"`
	ForwardHits      int64   `json:"forward_hits"`
	ForwardFallbacks int64   `json:"forward_fallbacks"`
	ForwardHitRate   float64 `json:"forward_hit_rate"`
}

// Result is one run's measurement.
type Result struct {
	Nodes      int         `json:"nodes"`
	Mode       string      `json:"mode"` // "closed" | "open"
	Routed     bool        `json:"routed"`
	WorkingSet int         `json:"working_set"`
	CacheSize  int         `json:"cache_size"`
	Requests   int         `json:"requests"`
	Errors     int         `json:"errors"`
	DurationS  float64     `json:"duration_s"`
	RPS        float64     `json:"rps"`
	P50MS      float64     `json:"latency_p50_ms"`
	P99MS      float64     `json:"latency_p99_ms"`
	PerNode    []NodeStats `json:"per_node"`
}

// Run boots Options.Nodes in-process nodes, drives the workload through
// the SDK, and tears the cluster down.
func Run(ctx context.Context, opts Options) (Result, error) {
	if opts.Nodes <= 0 {
		opts.Nodes = 1
	}
	if opts.Clients <= 0 {
		opts.Clients = 8
	}
	if opts.Requests <= 0 {
		opts.Requests = 800
	}
	if opts.WorkingSet <= 0 {
		opts.WorkingSet = 160
	}
	if opts.CacheSize <= 0 {
		opts.CacheSize = 64
	}
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.Duration <= 0 {
		opts.Duration = 5 * time.Second
	}

	cl, err := clustertest.Start(opts.Nodes, service.Config{
		Workers:           opts.Workers,
		CacheSize:         opts.CacheSize,
		PeerProbeInterval: 250 * time.Millisecond,
	})
	if err != nil {
		return Result{}, err
	}
	defer cl.Close()

	sdk, err := client.New(client.Config{
		Nodes:          cl.URLs(),
		DisableRouting: opts.DisableRouting,
		BackoffBase:    5 * time.Millisecond,
		BackoffMax:     50 * time.Millisecond,
		ProbeInterval:  -1, // health from request outcomes; nodes are local
	})
	if err != nil {
		return Result{}, err
	}
	defer sdk.Close()

	// One real template per working-set key, made a distinct *body* by a
	// per-key comment: distinct Names alone stopped being a thrash
	// workload when the daemons learned to byte-splice one compiled plan
	// across any number of names — a result-cache miss must still cost a
	// full generation here, or the cluster's aggregate cache capacity has
	// nothing to save.
	uc := templates.UseCases[2]
	src, err := templates.Source(uc)
	if err != nil {
		return Result{}, err
	}
	reqFor := func(k int) wire.GenerateRequest {
		return wire.GenerateRequest{
			Name:   fmt.Sprintf("ws%04d.go", k),
			Source: src + fmt.Sprintf("\n// working-set key %04d\n", k),
		}
	}

	var (
		latMu     sync.Mutex
		latencies []time.Duration
		errCount  atomic.Int64
		completed atomic.Int64
	)
	oneRequest := func(r *rand.Rand) {
		req := reqFor(r.Intn(opts.WorkingSet))
		t0 := time.Now()
		_, err := sdk.Generate(ctx, req)
		d := time.Since(t0)
		if err != nil {
			errCount.Add(1)
			return
		}
		completed.Add(1)
		latMu.Lock()
		latencies = append(latencies, d)
		latMu.Unlock()
	}

	res := Result{
		Nodes:      opts.Nodes,
		Routed:     !opts.DisableRouting,
		WorkingSet: opts.WorkingSet,
		CacheSize:  opts.CacheSize,
	}
	start := time.Now()
	if opts.Rate > 0 {
		res.Mode = "open"
		interval := time.Duration(float64(time.Second) / opts.Rate)
		n := int(opts.Duration / interval)
		if n < 1 {
			n = 1
		}
		seq := rand.New(rand.NewSource(opts.Seed))
		lats, errs := openLoop(ctx, start, interval, n,
			func(int) int { return seq.Intn(opts.WorkingSet) },
			func(ctx context.Context, k int) error {
				_, err := sdk.Generate(ctx, reqFor(k))
				return err
			})
		latencies = lats
		completed.Store(int64(len(lats)))
		errCount.Store(errs)
	} else {
		res.Mode = "closed"
		var wg sync.WaitGroup
		per := opts.Requests / opts.Clients
		for c := 0; c < opts.Clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(opts.Seed + int64(c)*7919))
				for i := 0; i < per; i++ {
					if ctx.Err() != nil {
						return
					}
					oneRequest(r)
				}
			}(c)
		}
		wg.Wait()
	}
	res.DurationS = time.Since(start).Seconds()
	res.Requests = int(completed.Load())
	res.Errors = int(errCount.Load())
	res.RPS = float64(res.Requests) / res.DurationS
	res.P50MS, res.P99MS = quantilesMS(latencies)

	for _, n := range cl.Nodes {
		m := n.Srv.MetricsSnapshot()
		res.PerNode = append(res.PerNode, NodeStats{
			URL:              n.URL,
			CacheHits:        m.CacheHits,
			CacheMisses:      m.CacheMisses,
			CacheHitRate:     m.CacheHitRate,
			Coalesced:        m.Coalesced,
			ShedTotal:        m.ShedTotal,
			ForwardedTotal:   m.ForwardedTotal,
			ForwardHits:      m.ForwardHits,
			ForwardFallbacks: m.ForwardFallbacks,
			ForwardHitRate:   m.ForwardHitRate,
		})
	}
	return res, ctx.Err()
}

// openLoop issues n arrivals at a fixed interval and measures each
// completion against its *scheduled* send time, start + i*interval — not
// the moment the request actually left. The distinction is coordinated
// omission (Tene, "How NOT to Measure Latency"): an open-loop workload
// models arrivals that do not care whether the server is keeping up, so
// when the system stalls, the requests that should have been sent during
// the stall must still be charged their queueing delay. The previous
// ticker-based loop did the opposite twice over — a ticker coalesces
// missed ticks, silently *dropping* the arrivals scheduled during a
// stall, and the latency clock started at the goroutine's send, so p99
// reported only service time and hid exactly the delays an open-loop run
// exists to expose.
//
// key picks the workload key for arrival i (called in schedule order from
// one goroutine); send issues the request. The returned latencies are the
// successful completions (unsorted); errs counts failed sends.
func openLoop(ctx context.Context, start time.Time, interval time.Duration, n int,
	key func(i int) int, send func(ctx context.Context, k int) error) ([]time.Duration, int64) {
	var (
		mu   sync.Mutex
		lats []time.Duration
		errs atomic.Int64
		wg   sync.WaitGroup
	)
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
arrivals:
	for i := 0; i < n; i++ {
		sched := start.Add(time.Duration(i) * interval)
		// Wait out a future schedule slot; past-due arrivals (the engine
		// fell behind, or start itself is behind) are issued immediately
		// and their lateness is, deliberately, part of their latency.
		if d := time.Until(sched); d > 0 {
			timer.Reset(d)
			select {
			case <-ctx.Done():
				if !timer.Stop() {
					<-timer.C
				}
				break arrivals
			case <-timer.C:
			}
		} else if ctx.Err() != nil {
			break arrivals
		}
		k := key(i)
		wg.Add(1)
		go func(k int, sched time.Time) {
			defer wg.Done()
			if err := send(ctx, k); err != nil {
				errs.Add(1)
				return
			}
			d := time.Since(sched)
			mu.Lock()
			lats = append(lats, d)
			mu.Unlock()
		}(k, sched)
	}
	wg.Wait()
	return lats, errs.Load()
}

// AggregateForwardHitRate sums forward counters across nodes.
func (r Result) AggregateForwardHitRate() float64 {
	var fwd, hits int64
	for _, n := range r.PerNode {
		fwd += n.ForwardedTotal
		hits += n.ForwardHits
	}
	if fwd == 0 {
		return 0
	}
	return float64(hits) / float64(fwd)
}

// NodeHitRates returns each node's cache hit rate in node order.
func (r Result) NodeHitRates() []float64 {
	out := make([]float64, len(r.PerNode))
	for i, n := range r.PerNode {
		out[i] = n.CacheHitRate
	}
	return out
}

func quantilesMS(lats []time.Duration) (p50, p99 float64) {
	if len(lats) == 0 {
		return 0, 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	idx := func(q float64) int {
		i := int(q*float64(len(lats))+0.999999) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(lats) {
			i = len(lats) - 1
		}
		return i
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return ms(lats[idx(0.50)]), ms(lats[idx(0.99)])
}
