// Package client is the Go SDK for a cryptgend daemon or cluster. It
// speaks the wire package's contract over pooled HTTP connections and
// adds the client half of the cluster design:
//
//   - consistent-hash routing: each request is sent to the node that owns
//     its cache key under rendezvous hashing (the same wire.RouteKey /
//     wire.RendezvousRank the daemons use for peer forwarding), so a
//     routed client hits every node's cache and singleflight directly and
//     the daemons almost never need their one forwarding hop;
//   - per-node circuit breakers: a node fails out of routing only after a
//     failure streak (one blip is not evidence), stops receiving attempts
//     while its breaker is open, and is re-admitted by a half-open trial
//     or by the background /readyz probe seeing it recover — with
//     requests failing over along the rendezvous rank so a dead owner's
//     keys land on the same runner-up from every client;
//   - retries under a global retry budget: 429s are retried on the same
//     node after honoring the server's jittered Retry-After hint (the
//     envelope's retry_after_ms, falling back to the header); transient
//     transport failures and 503s fail over to the next ranked node under
//     capped, jittered exponential backoff; non-retryable errors (400s…)
//     are returned immediately, exactly once. The budget — a token bucket
//     drained by retries and refilled by successes — caps the whole
//     client's retry amplification, so a fleet of clients cannot mount a
//     synchronized retry storm against a recovering cluster;
//   - batch splitting: one wire.BatchRequest is split by key owner into
//     per-node sub-batches (capped at wire.MaxBatchItems) sent
//     concurrently and reassembled in the caller's item order.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cognicryptgen/internal/breaker"
	"cognicryptgen/internal/faultinject"
	"cognicryptgen/internal/latwindow"
	"cognicryptgen/wire"
)

// maxRespBytes caps how much of any response body the client will read:
// the daemon itself never sends bodies near this (it caps *requests* at 4
// MiB), so anything larger is a misbehaving proxy, and buffering it would
// balloon client memory.
const maxRespBytes = 8 << 20

// respBufs recycles the buffers post reads response bodies into, so a
// steady stream of ~10 KB generate responses stops re-growing a fresh
// buffer per call. Buffers grown past maxPooledResp (a large batch) are
// dropped rather than pinned in the pool.
var respBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledResp = 256 << 10

// Config tunes a Client. Only Nodes is required.
type Config struct {
	// Nodes lists the cluster members' base URLs (one entry = a
	// standalone daemon).
	Nodes []string
	// HTTPClient overrides the transport (nil = a dedicated pooled
	// client carrying the faultinject client-transport point). Its
	// Timeout is left alone; per-request deadlines come from
	// RequestTimeout and the caller's context.
	HTTPClient *http.Client
	// RequestTimeout caps each attempt (0 = 30s). The caller's context
	// bounds the whole call including retries and backoff sleeps.
	RequestTimeout time.Duration
	// MaxRetries bounds retries after the first attempt (0 = 3,
	// negative = no retries).
	MaxRetries int
	// BackoffBase is the first transient-failure backoff (0 = 100ms); it
	// doubles per retry up to BackoffMax (0 = 2s), and each sleep is
	// equal-jittered (uniform in [d/2, d]) so a fleet of clients spreads
	// out instead of retrying in lockstep. 429 waits use the server's
	// Retry-After hint instead, which the server already jitters.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// DisableRouting round-robins requests across nodes instead of
	// rendezvous-routing them. Cache locality then comes from the daemons'
	// own peer forwarding — useful to exercise that path, or behind an
	// external load balancer that already picked the node.
	DisableRouting bool
	// ProbeInterval paces the background /readyz health probe (0 = 2s,
	// negative = no background probing; health then tracks only request
	// outcomes).
	ProbeInterval time.Duration
	// BreakerThreshold is the consecutive-failure streak that opens a
	// node's circuit breaker, taking it out of routing (0 = 3).
	BreakerThreshold int
	// BreakerOpenTimeout is the cooling-off period before an open node
	// admits a half-open trial attempt (0 = 2s). The background probe
	// re-admits a recovered node independently of this.
	BreakerOpenTimeout time.Duration
	// RetryBudget is the client-wide retry token bucket's capacity (0 =
	// 10, negative = unlimited retries). Every retry withdraws one token;
	// every success deposits RetryBudgetRatio. When the bucket is empty a
	// would-be retry fails fast with the last error instead.
	RetryBudget float64
	// RetryBudgetRatio is the per-success refill (0 = 0.2: at steady
	// state retries add at most ~20% load on top of successes).
	RetryBudgetRatio float64
	// Hedge enables opt-in hedged generate requests: when the primary
	// owner has not answered within the hedge delay, ONE hedge fires at
	// the next-ranked admitted node and the first success wins (the loser
	// is cancelled). Every hedge withdraws a retry-budget token first, so
	// hedging cannot amplify an overloaded cluster — with the budget empty
	// the client simply waits for the primary like an unhedged one.
	Hedge bool
	// HedgeDelay is how long the primary may stay silent before the hedge
	// fires (0 = derived from the client's own observed p99 attempt
	// latency; hedging then stays off until enough samples accumulate, so
	// a fresh client never hedges on a guess).
	HedgeDelay time.Duration
}

// Client is a cryptgend cluster client. Safe for concurrent use; create
// with New and release its probe goroutine with Close.
type Client struct {
	cfg   Config
	httpc *http.Client
	nodes []string

	// brs holds one circuit breaker per configured node (the map is
	// read-only after New; the breakers synchronize themselves).
	brs map[string]*breaker.Breaker
	// budget is the client-wide retry budget (nil = unlimited).
	budget *breaker.Budget
	// retries counts retry attempts actually sent.
	retries atomic.Int64
	// hedgedTotal / hedgeWins count hedges fired and hedges that answered
	// before their primary (Config.Hedge).
	hedgedTotal atomic.Int64
	hedgeWins   atomic.Int64
	// lats is the successful-attempt latency window feeding the
	// p99-derived hedge delay.
	lats latwindow.Window

	// fingerprint is the last rule-set fingerprint observed (responses,
	// readyz probes). Routing keys include it so client and daemons agree
	// on shard layout; until first observed (""), routing is still
	// deterministic and the daemons' one-hop forward corrects the rest.
	fingerprint atomic.Value // string

	// rr distributes DisableRouting requests round-robin.
	rr atomic.Uint64

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// New validates cfg and starts the health prober.
func New(cfg Config) (*Client, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("client: need at least one node URL")
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 3
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 100 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 2 * time.Second
	}
	if cfg.BreakerOpenTimeout <= 0 {
		cfg.BreakerOpenTimeout = 2 * time.Second
	}
	c := &Client{
		cfg:   cfg,
		httpc: cfg.HTTPClient,
		nodes: append([]string(nil), cfg.Nodes...),
		brs:   make(map[string]*breaker.Breaker, len(cfg.Nodes)),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	if c.httpc == nil {
		c.httpc = &http.Client{
			Transport: faultinject.Transport(faultinject.PointClientTransport, nil),
		}
	}
	c.fingerprint.Store("")
	for _, n := range c.nodes {
		c.brs[n] = breaker.New(breaker.Config{
			FailureThreshold: cfg.BreakerThreshold,
			OpenTimeout:      cfg.BreakerOpenTimeout,
		})
	}
	if cfg.RetryBudget >= 0 {
		c.budget = breaker.NewBudget(cfg.RetryBudget, cfg.RetryBudgetRatio)
	}
	if cfg.ProbeInterval >= 0 {
		interval := cfg.ProbeInterval
		if interval == 0 {
			interval = 2 * time.Second
		}
		go c.probeLoop(interval)
	} else {
		close(c.done)
	}
	return c, nil
}

// Close stops the background health prober. In-flight calls finish.
func (c *Client) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
}

// Healthy reports the current member-list health by node URL (healthy =
// breaker closed; half-open and open nodes report false).
func (c *Client) Healthy() map[string]bool {
	out := make(map[string]bool, len(c.brs))
	for n, br := range c.brs {
		out[n] = br.State() == breaker.Closed
	}
	return out
}

// Stats returns the client's own resilience counters: retries sent,
// breaker rejections, retry-budget refusals, and per-node breaker states.
func (c *Client) Stats() wire.ClientStats {
	s := wire.ClientStats{
		Retries:       c.retries.Load(),
		BreakerStates: make(map[string]string, len(c.nodes)),
	}
	for _, n := range c.nodes {
		br := c.brs[n]
		s.BreakerRejects += br.Rejects()
		s.BreakerStates[n] = br.State().String()
	}
	if c.budget != nil {
		s.RetryBudgetExhausted = c.budget.Exhausted()
		s.RetryBudgetTokens = c.budget.Tokens()
	}
	s.HedgedTotal = c.hedgedTotal.Load()
	s.HedgeWins = c.hedgeWins.Load()
	return s
}

// Fingerprint returns the last rule-set fingerprint the client observed
// ("" before the first response or probe).
func (c *Client) Fingerprint() string { return c.fingerprint.Load().(string) }

func (c *Client) noteFingerprint(fp string) {
	if fp != "" {
		c.fingerprint.Store(fp)
	}
}

// members returns the nodes whose breaker is not open, in config order;
// when every breaker is open it returns all nodes, so the client degrades
// to trying rather than refusing.
func (c *Client) members() []string {
	out := make([]string, 0, len(c.nodes))
	for _, n := range c.nodes {
		if c.brs[n].State() != breaker.Open {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		return append([]string(nil), c.nodes...)
	}
	return out
}

// probeLoop polls every node's /readyz, all nodes concurrently — one hung
// node must not delay the others' health verdicts by its full timeout.
// 200 (ok or degraded) feeds the node's breaker a success (re-admitting
// it), 503 (draining) or an unreachable listener a failure. The probe
// also piggybacks the cluster's rule-set fingerprint for the routing key.
func (c *Client) probeLoop(interval time.Duration) {
	defer close(c.done)
	// The interval paces how often nodes are asked, not how long a node
	// may take to answer: a sub-second interval must not turn scheduler
	// jitter on a loaded node into a failed probe (the same floor the
	// daemon's peer prober applies).
	timeout := interval
	if timeout < time.Second {
		timeout = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		var wg sync.WaitGroup
		for _, n := range c.nodes {
			wg.Add(1)
			go func(n string) {
				defer wg.Done()
				c.probe(n, timeout)
			}(n)
		}
		// Finish the round before the next tick (and before exiting), so
		// probe goroutines never pile up behind a slow node.
		wg.Wait()
	}
}

func (c *Client) probe(node string, timeout time.Duration) {
	br := c.brs[node]
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/readyz", nil)
	if err != nil {
		br.Failure()
		return
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		br.Failure()
		return
	}
	defer resp.Body.Close()
	var ready wire.ReadyResponse
	if json.NewDecoder(io.LimitReader(resp.Body, maxRespBytes)).Decode(&ready) == nil {
		c.noteFingerprint(ready.Fingerprint)
	}
	if resp.StatusCode == http.StatusOK {
		br.Success()
	} else {
		br.Failure()
	}
}

// routeNodes returns the failover-ordered node list for one generate
// request: the rendezvous rank of its key over the admitted members, or a
// rotating round-robin order with routing disabled.
func (c *Client) routeNodes(req wire.GenerateRequest) []string {
	members := c.members()
	if c.cfg.DisableRouting {
		start := int(c.rr.Add(1)-1) % len(members)
		return append(append([]string(nil), members[start:]...), members[:start]...)
	}
	return wire.RendezvousRank(wire.RouteKey(c.Fingerprint(), req), members)
}

// post runs one attempt against one node. A non-2xx response is returned
// as *wire.Error (synthesized from the status when the body is not the
// envelope — e.g. a proxy in the way); transport failures return err.
// retryAfter carries the server's backoff hint for 429s.
func (c *Client) post(ctx context.Context, node, path string, body []byte, out any) (wireErr *wire.Error, retryAfter time.Duration, err error) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, node+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	buf := respBufs.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooledResp {
			respBufs.Put(buf)
		}
	}()
	if n := resp.ContentLength; n > 0 && n <= maxRespBytes {
		// Room for the body plus the final read that reports EOF.
		buf.Grow(int(n) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, maxRespBytes+1)); err != nil {
		return nil, 0, err
	}
	data := buf.Bytes()
	if len(data) > maxRespBytes {
		// Treated as a transport failure: the body is not trustworthy, and
		// the node (or whatever is in front of it) is misbehaving.
		return nil, 0, fmt.Errorf("%s%s: response body exceeds %d bytes", node, path, maxRespBytes)
	}
	if resp.StatusCode < 300 {
		return nil, 0, json.Unmarshal(data, out)
	}
	var e wire.Error
	if json.Unmarshal(data, &e) != nil || e.Status == 0 {
		e = *wire.NewError(resp.StatusCode, "%s%s: status %d", node, path, resp.StatusCode)
	}
	// Prefer the envelope's millisecond hint (it mirrors the header but
	// keeps the server's precision); fall back to the Retry-After header.
	if e.RetryAfterMS > 0 {
		retryAfter = time.Duration(e.RetryAfterMS) * time.Millisecond
	} else if secs, aerr := strconv.Atoi(resp.Header.Get("Retry-After")); aerr == nil && secs > 0 {
		retryAfter = time.Duration(secs) * time.Second
	}
	return &e, retryAfter, nil
}

// backoff returns the capped exponential delay before retry number
// attempt (0-based): base, 2·base, 4·base, … never exceeding BackoffMax.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.cfg.BackoffBase
	for i := 0; i < attempt && d < c.cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > c.cfg.BackoffMax {
		d = c.cfg.BackoffMax
	}
	return d
}

// jitter spreads a backoff delay uniformly over [d/2, d] (equal jitter):
// enough randomness that a fleet of clients desynchronizes, while keeping
// at least half the intended wait.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// pickNode returns the first node from idx onward (wrapping) whose
// breaker admits an attempt, advancing *idx to it. When every node's
// breaker rejects, it returns the node at *idx anyway — refusing to send
// at all would turn a full outage into a client-side outcome with no
// evidence, and the attempt doubles as each open breaker's eventual
// half-open trial.
func (c *Client) pickNode(nodes []string, idx *int) string {
	for scanned := 0; scanned < len(nodes); scanned++ {
		cand := nodes[(*idx+scanned)%len(nodes)]
		br, ok := c.brs[cand]
		if !ok || br.Allow() {
			*idx += scanned
			return cand
		}
	}
	return nodes[*idx%len(nodes)]
}

// doRetry drives the retry loop over a failover-ordered node list:
//
//   - success: done (the node's breaker closes, the retry budget refills);
//   - transport failure: feed the breaker, advance to the next ranked node
//     whose breaker admits, after a capped jittered exponential backoff;
//   - 429: the owner is shedding; wait out its Retry-After hint and retry
//     the same node (another node would just forward back to the owner);
//   - 503: the node is draining or timed out; feed the breaker, advance,
//     back off;
//   - anything else: terminal — returned immediately, never retried.
//
// Every retry (everything after the first attempt) withdraws one token
// from the client-wide retry budget first; an empty budget fails the call
// with the last error instead of sending the retry.
func (c *Client) doRetry(ctx context.Context, nodes []string, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	idx := 0
	var lastErr error
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			if c.budget != nil && !c.budget.Withdraw() {
				return fmt.Errorf("client: retry budget exhausted after %d attempts: %w", attempt, lastErr)
			}
			c.retries.Add(1)
		}
		node := c.pickNode(nodes, &idx)
		br := c.brs[node]
		attemptStart := time.Now()
		wireErr, retryAfter, err := c.post(ctx, node, path, body, out)
		switch {
		case err != nil:
			br.Failure()
			lastErr = fmt.Errorf("%s%s: %w", node, path, err)
			idx++
			if serr := sleepCtx(ctx, jitter(c.backoff(attempt))); serr != nil {
				return serr
			}
		case wireErr == nil:
			br.Success()
			if c.budget != nil {
				c.budget.Deposit()
			}
			c.lats.Observe(time.Since(attemptStart))
			return nil
		case wireErr.Status == http.StatusTooManyRequests:
			// Shedding proves the node alive — close its breaker (a half-open
			// trial answered 429 is a recovered node), but no budget deposit:
			// only completed work refills retries.
			br.Success()
			lastErr = wireErr
			if serr := sleepCtx(ctx, retryAfter); serr != nil {
				return serr
			}
		case wireErr.Retryable:
			br.Failure()
			lastErr = wireErr
			idx++
			if serr := sleepCtx(ctx, jitter(c.backoff(attempt))); serr != nil {
				return serr
			}
		default:
			// A terminal verdict (400…) is still a live, answering node.
			br.Success()
			return wireErr
		}
	}
	return fmt.Errorf("client: %d attempts exhausted: %w", c.cfg.MaxRetries+1, lastErr)
}

// Generate runs one generation on the node owning the request's cache key
// (with rank-order failover), retrying per the Config policy. With hedging
// enabled (Config.Hedge), a silent primary past the hedge delay races one
// budget-gated hedge at the next-ranked node first; any outcome the race
// cannot settle definitively falls back to the ordinary retry path.
func (c *Client) Generate(ctx context.Context, req wire.GenerateRequest) (wire.GenerateResponse, error) {
	nodes := c.routeNodes(req)
	if c.cfg.Hedge && len(nodes) > 1 {
		if resp, done, err := c.generateHedged(ctx, nodes, req); done {
			if err != nil {
				return wire.GenerateResponse{}, err
			}
			return resp, nil
		}
	}
	var resp wire.GenerateResponse
	if err := c.doRetry(ctx, nodes, "/v1/generate", req, &resp); err != nil {
		return wire.GenerateResponse{}, err
	}
	c.noteFingerprint(resp.Fingerprint)
	return resp, nil
}

// Analyze runs the misuse analyzer. Analysis is uncached on the daemon, so
// there is no key to route by; requests round-robin across healthy nodes.
func (c *Client) Analyze(ctx context.Context, req wire.AnalyzeRequest) (wire.AnalyzeResponse, error) {
	members := c.members()
	start := int(c.rr.Add(1)-1) % len(members)
	order := append(append([]string(nil), members[start:]...), members[:start]...)
	var resp wire.AnalyzeResponse
	if err := c.doRetry(ctx, order, "/v1/analyze", req, &resp); err != nil {
		return wire.AnalyzeResponse{}, err
	}
	c.noteFingerprint(resp.Fingerprint)
	return resp, nil
}

// GenerateBatch splits the batch by key owner into per-node sub-batches
// (each capped at wire.MaxBatchItems), sends them concurrently, and
// reassembles the results in the caller's item order. Per-item partial
// success is preserved; a sub-batch whose node fails terminally marks only
// its own items failed.
func (c *Client) GenerateBatch(ctx context.Context, req wire.BatchRequest) (wire.BatchResponse, error) {
	if len(req.Requests) == 0 {
		return wire.BatchResponse{}, errors.New("client: batch needs at least one request")
	}
	start := time.Now()
	members := c.members()
	fp := c.Fingerprint()

	// groups maps each node to the original indices it will generate.
	groups := make(map[string][]int)
	for i, r := range req.Requests {
		var node string
		if c.cfg.DisableRouting {
			node = members[i%len(members)]
		} else {
			node = wire.RendezvousOwner(wire.RouteKey(fp, r), members)
		}
		groups[node] = append(groups[node], i)
	}

	results := make([]wire.BatchItem, len(req.Requests))
	var wg sync.WaitGroup
	for node, indices := range groups {
		// Respect the daemon's per-batch item cap by chunking each node's
		// share; chunks run concurrently like separate sub-batches.
		for len(indices) > 0 {
			chunk := indices
			if len(chunk) > wire.MaxBatchItems {
				chunk = chunk[:wire.MaxBatchItems]
			}
			indices = indices[len(chunk):]
			wg.Add(1)
			go func(node string, chunk []int) {
				defer wg.Done()
				sub := wire.BatchRequest{ItemTimeoutMS: req.ItemTimeoutMS}
				for _, i := range chunk {
					sub.Requests = append(sub.Requests, req.Requests[i])
				}
				// Failover order: the owner first, then the remaining
				// members (rendezvous rank of the first item's key keeps
				// the order deterministic across clients).
				order := []string{node}
				for _, m := range members {
					if m != node {
						order = append(order, m)
					}
				}
				var bresp wire.BatchResponse
				if err := c.doRetry(ctx, order, "/v1/generate/batch", sub, &bresp); err != nil {
					status := http.StatusServiceUnavailable
					var we *wire.Error
					if errors.As(err, &we) {
						status = we.Status
					}
					for _, i := range chunk {
						results[i] = wire.BatchItem{Index: i, Error: err.Error(), Status: status}
					}
					return
				}
				for j, i := range chunk {
					if j < len(bresp.Results) {
						item := bresp.Results[j]
						item.Index = i
						results[i] = item
						if item.Response != nil {
							c.noteFingerprint(item.Response.Fingerprint)
						}
					} else {
						results[i] = wire.BatchItem{Index: i, Error: "missing batch result", Status: http.StatusInternalServerError}
					}
				}
			}(node, chunk)
		}
	}
	wg.Wait()

	out := wire.BatchResponse{Results: results}
	for _, r := range results {
		if r.OK {
			out.Succeeded++
		} else {
			out.Failed++
		}
	}
	out.DurationMS = float64(time.Since(start)) / float64(time.Millisecond)
	return out, nil
}

// Metrics fetches one node's /metrics snapshot.
func (c *Client) Metrics(ctx context.Context, node string) (wire.Metrics, error) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, node+"/metrics", nil)
	if err != nil {
		return wire.Metrics{}, err
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return wire.Metrics{}, err
	}
	defer resp.Body.Close()
	var m wire.Metrics
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxRespBytes)).Decode(&m); err != nil {
		return wire.Metrics{}, err
	}
	return m, nil
}

// ReloadAll POSTs /v1/reload to every configured node (healthy or not:
// reloading a draining node is harmless, and an ejected-but-alive node
// must not be left serving stale rules), returning per-node outcomes keyed
// by URL.
func (c *Client) ReloadAll(ctx context.Context) (map[string]wire.ReloadResponse, map[string]error) {
	oks := make(map[string]wire.ReloadResponse, len(c.nodes))
	errs := make(map[string]error)
	for _, n := range c.nodes {
		var resp wire.ReloadResponse
		body, _ := json.Marshal(struct{}{})
		wireErr, _, err := c.post(ctx, n, "/v1/reload", body, &resp)
		switch {
		case err != nil:
			errs[n] = err
		case wireErr != nil:
			errs[n] = wireErr
		default:
			oks[n] = resp
			c.noteFingerprint(resp.Fingerprint)
		}
	}
	return oks, errs
}
