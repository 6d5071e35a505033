package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"cognicryptgen/wire"
)

// Hedged requests: tail tolerance for the one pathology fast failover
// cannot fix — a node that is slow but not failing. Breakers need failures
// as evidence; a 300ms-per-request node never provides any, so every
// request whose key it owns inherits its latency and the cluster p99
// becomes the slowest node's p99. The hedge races a second, budget-gated
// attempt against a silent primary and takes whichever answers first.
//
// The classic tail-at-scale discipline applies: hedge only after a delay
// (ideally ~p99, so at most ~1% of requests hedge), send at most ONE
// hedge, gate it on the retry budget so hedging cannot amplify overload,
// and cancel the loser so the cluster never does the work twice for long.

// hedgeDelay resolves the configured or p99-derived hedge delay; 0 means
// hedging is not ready (no explicit delay, not enough samples).
func (c *Client) hedgeDelay() time.Duration {
	if c.cfg.HedgeDelay > 0 {
		return c.cfg.HedgeDelay
	}
	// Below latwindow.MinSamples there is no derived delay: guessing one
	// from nothing would hedge either never or always.
	d, _ := c.lats.P99()
	if d > 0 && d < time.Millisecond {
		// Floor: timer resolution below 1ms hedges on scheduler noise.
		d = time.Millisecond
	}
	return d
}

// hedgeOutcome is one attempt's result inside the hedge race.
type hedgeOutcome struct {
	node    string
	resp    wire.GenerateResponse
	wireErr *wire.Error
	err     error
	hedge   bool
	started time.Time
}

// generateHedged races the primary against one delayed, budget-gated
// hedge. done=true means the race settled the call (first success, or a
// terminal error envelope — as valid from either racer). done=false means
// the race proved nothing the ordinary retry path should not handle:
// hedging not ready, or every racer failed retryably — the caller falls
// back to doRetry with its backoff, failover, and budget accounting.
func (c *Client) generateHedged(ctx context.Context, nodes []string, req wire.GenerateRequest) (wire.GenerateResponse, bool, error) {
	delay := c.hedgeDelay()
	if delay <= 0 {
		return wire.GenerateResponse{}, false, nil
	}
	body, err := json.Marshal(req)
	if err != nil {
		return wire.GenerateResponse{}, true, err
	}
	// One cancellable context covers both racers: returning cancels the
	// loser's request, so the losing node stops working as soon as the
	// winner answers.
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan hedgeOutcome, 2)
	attempt := func(node string, hedge bool) {
		started := time.Now()
		var resp wire.GenerateResponse
		wireErr, _, err := c.post(hctx, node, "/v1/generate", body, &resp)
		ch <- hedgeOutcome{node: node, resp: resp, wireErr: wireErr, err: err, hedge: hedge, started: started}
	}
	go attempt(nodes[0], false)
	inFlight := 1
	timer := time.NewTimer(delay)
	defer timer.Stop()
	fire := timer.C
	for {
		select {
		case <-fire:
			fire = nil
			// Budget gate: every hedge withdraws a retry-budget token, so a
			// fleet of hedging clients cannot amplify an overloaded cluster.
			// No token, no hedge — the call just waits for the primary like
			// an unhedged one (it is not failed).
			if c.budget != nil && !c.budget.Withdraw() {
				continue
			}
			node := ""
			for _, cand := range nodes[1:] {
				if br, ok := c.brs[cand]; !ok || br.Allow() {
					node = cand
					break
				}
			}
			if node == "" {
				node = nodes[1]
			}
			c.hedgedTotal.Add(1)
			inFlight++
			go attempt(node, true)
		case o := <-ch:
			inFlight--
			br := c.brs[o.node]
			switch {
			case o.err != nil:
				// The cancelled loser's error is our doing, not the node's:
				// it must not feed the breaker.
				if br != nil && !errors.Is(o.err, context.Canceled) {
					br.Failure()
				}
			case o.wireErr == nil:
				if br != nil {
					br.Success()
				}
				if c.budget != nil {
					c.budget.Deposit()
				}
				c.lats.Observe(time.Since(o.started))
				if o.hedge {
					c.hedgeWins.Add(1)
				}
				c.noteFingerprint(o.resp.Fingerprint)
				return o.resp, true, nil
			case o.wireErr.Status == http.StatusTooManyRequests:
				// Shedding proves the node alive (mirrors doRetry); the
				// fallback retry path will honor its Retry-After hint.
				if br != nil {
					br.Success()
				}
			case o.wireErr.Retryable:
				if br != nil {
					br.Failure()
				}
			default:
				// Terminal verdict (400…): as valid from the hedge as from
				// the primary — the daemons produce byte-identical verdicts
				// for the same resolved template.
				if br != nil {
					br.Success()
				}
				return wire.GenerateResponse{}, true, o.wireErr
			}
			if inFlight == 0 {
				// Primary failed retryably before the timer, or both racers
				// failed retryably: nothing settled, let doRetry take over.
				return wire.GenerateResponse{}, false, nil
			}
		case <-ctx.Done():
			// The caller's context died mid-race; doRetry would fail the
			// same way, so settle here.
			return wire.GenerateResponse{}, true, ctx.Err()
		}
	}
}
