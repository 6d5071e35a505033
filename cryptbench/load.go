package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sync"
	"time"

	"cognicryptgen/client"
	"cognicryptgen/wire"
)

// newSDK returns a client for one daemon with retries and probing off, so
// a refused request counts as failed, over an HTTP transport holding at
// most conns connections. rt, when non-nil, wraps that transport.
func newSDK(url string, conns int, rt func(http.RoundTripper) http.RoundTripper) (*client.Client, error) {
	var base http.RoundTripper = &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	if rt != nil {
		base = rt(base)
	}
	return client.New(client.Config{
		Nodes:          []string{url},
		HTTPClient:     &http.Client{Transport: base},
		RequestTimeout: 30 * time.Second,
		MaxRetries:     -1,
		ProbeInterval:  -1,
	})
}

// refKey is a generate request as the daemon resolves it: a use-case
// reference becomes its template file name and source.
type refKey struct {
	name, src, pkg string
	verify         bool
}

func resolve(req wire.GenerateRequest) refKey {
	k := refKey{name: req.Name, src: req.Source, pkg: req.Package, verify: req.Verify}
	for i, uc := range allTemplates {
		if req.UseCase != 0 && uc.ID == req.UseCase {
			k.name, k.src = uc.File, templateSources[i]
		}
	}
	return k
}

// recorder runs ops, checks what can be checked inline, and keeps one
// output per distinct request for the check against the in-process
// generator after the timed window.
type recorder struct {
	sdk         *client.Client
	fingerprint string

	mu sync.Mutex
	// outputs maps each distinct request to the SHA-256 of the first
	// output received; every later response to it must be byte-identical.
	// Digests, not outputs, keep the load process's heap (and so its
	// garbage collector's share of the CPUs) small.
	outputs map[refKey][32]byte
	// samples holds the first output per template, in allTemplates order.
	samples    []string
	mismatches int64
	negSent    int64
	negFlagged int64
}

func newRecorder(sdk *client.Client, fingerprint string) *recorder {
	return &recorder{sdk: sdk, fingerprint: fingerprint, outputs: map[refKey][32]byte{}, samples: make([]string, len(allTemplates))}
}

func (r *recorder) run(ctx context.Context, o op) error {
	if o.kind == opAnalyze {
		return r.analyze(ctx, o)
	}
	resp, err := r.sdk.Generate(ctx, o.gen)
	if err != nil {
		return err
	}
	if resp.Output == "" || resp.Fingerprint != r.fingerprint {
		return fmt.Errorf("generate %s: empty output or fingerprint %.12s, want %.12s", o.gen.Name, resp.Fingerprint, r.fingerprint)
	}
	k := resolve(o.gen)
	sum := sha256.Sum256([]byte(resp.Output))
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.samples[o.tmpl] == "" {
		r.samples[o.tmpl] = resp.Output
	}
	if prev, ok := r.outputs[k]; !ok {
		r.outputs[k] = sum
	} else if prev != sum {
		r.mismatches++
		return fmt.Errorf("generate %s: output differs from an earlier response to the same request", k.name)
	}
	return nil
}

func (r *recorder) analyze(ctx context.Context, o op) error {
	req := o.an
	if req.Source == "" {
		r.mu.Lock()
		req.Source = r.samples[o.tmpl]
		r.mu.Unlock()
	}
	resp, err := r.sdk.Analyze(ctx, req)
	if err != nil {
		return err
	}
	flagged := len(resp.Findings) > 0
	if o.negative {
		r.mu.Lock()
		r.negSent++
		if flagged {
			r.negFlagged++
		}
		r.mu.Unlock()
	}
	if flagged != o.negative {
		r.mu.Lock()
		r.mismatches++
		r.mu.Unlock()
		return fmt.Errorf("analyze %s: %d findings, known misuse %t", req.Name, len(resp.Findings), o.negative)
	}
	return nil
}

// failed marks a failed op's latency: a failed or refused request misses
// every latency limit.
const failed = time.Duration(math.MaxInt64)

// phase is one timed window's outcome.
type phase struct {
	name    string
	elapsed time.Duration
	// sent, succeeded and failed count generate and analyze ops; reloads
	// are counted apart and are not in the latencies.
	sent, succeeded, failedOps int64
	reloads, reloadsFailed     int64
	lats                       []time.Duration // failed ops hold `failed`
	late                       []time.Duration // open loop: dispatch minus due time
	firstErr                   error
}

func (p *phase) add(lat time.Duration, err error) {
	p.sent++
	if err != nil {
		p.failedOps++
		if p.firstErr == nil {
			p.firstErr = err
		}
		lat = failed
	} else {
		p.succeeded++
	}
	p.lats = append(p.lats, lat)
}

// merge folds q's counts and samples into p.
func (p *phase) merge(q *phase) {
	p.sent += q.sent
	p.succeeded += q.succeeded
	p.failedOps += q.failedOps
	p.reloads += q.reloads
	p.reloadsFailed += q.reloadsFailed
	p.lats = append(p.lats, q.lats...)
	p.late = append(p.late, q.late...)
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
}

// closedLoop runs clients callers that each send their next op when the
// previous one completes, for d.
func closedLoop(ctx context.Context, clients int, d time.Duration, src opSource, run func(context.Context, op) error) *phase {
	per := make([]phase, clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(p *phase) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				o := src.next()
				t0 := time.Now()
				err := run(ctx, o)
				p.add(time.Since(t0), err)
			}
		}(&per[c])
	}
	wg.Wait()
	out := &phase{name: "closed", elapsed: time.Since(start)}
	for i := range per {
		out.merge(&per[i])
	}
	return out
}

// openLoop sends ops at rate per second for d regardless of completions.
// Each op is timed from its scheduled send time, so when the SDK's
// connections are all busy the wait for one counts in its latency.
func openLoop(ctx context.Context, rate float64, d time.Duration, src opSource, run func(context.Context, op) error) *phase {
	n := int(rate * d.Seconds())
	ops := make([]op, n)
	for i := range ops {
		ops[i] = src.next()
	}
	lats := make([]time.Duration, n)
	errs := make([]error, n)
	late := make([]time.Duration, 0, n)
	interval := float64(time.Second) / rate
	start := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < n && ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(float64(i) * interval))
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		late = append(late, time.Since(due))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = run(ctx, ops[i])
			lats[i] = time.Since(due)
		}(i)
	}
	wg.Wait()
	out := &phase{name: "open", elapsed: time.Since(start), late: late}
	for i := range late {
		out.add(lats[i], errs[i])
	}
	return out
}

// reloader posts a same-rules /v1/reload every `every` until stop closes.
// It returns when the loop has ended.
func reloader(ctx context.Context, sdk *client.Client, every time.Duration, stop <-chan struct{}, p *phase) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		case <-t.C:
			p.reloads++
			if _, errs := sdk.ReloadAll(ctx); len(errs) > 0 {
				p.reloadsFailed++
				for _, err := range errs {
					if p.firstErr == nil {
						p.firstErr = fmt.Errorf("reload: %w", err)
					}
				}
			}
		}
	}
}

// runPhase runs one timed window of w, with its reloads alongside.
func runPhase(ctx context.Context, w *workload, sdk *client.Client, closed bool, clients int, d time.Duration, src opSource, run func(context.Context, op) error) *phase {
	var rel phase
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if w.reloadEvery > 0 {
		every := min(w.reloadEvery, d/2)
		wg.Add(1)
		go func() {
			defer wg.Done()
			reloader(ctx, sdk, every, stop, &rel)
		}()
	}
	var p *phase
	if closed {
		p = closedLoop(ctx, clients, d, src, run)
	} else {
		p = openLoop(ctx, w.rate, d, src, run)
	}
	close(stop)
	wg.Wait()
	p.reloads, p.reloadsFailed = rel.reloads, rel.reloadsFailed
	if p.firstErr == nil {
		p.firstErr = rel.firstErr
	}
	return p
}

// quantile returns the nearest-rank q-quantile of ds in milliseconds
// (failed samples sort last). ds is sorted in place.
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	slices.Sort(ds)
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	i = max(0, min(i, len(ds)-1))
	return ms(ds[i])
}

func ms(d time.Duration) float64 {
	if d == failed {
		return math.Inf(1)
	}
	return float64(d) / float64(time.Millisecond)
}

// median returns the median of xs (xs is sorted in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
