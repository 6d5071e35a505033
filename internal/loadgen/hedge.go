package loadgen

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"cognicryptgen/client"
	"cognicryptgen/internal/clustertest"
	"cognicryptgen/internal/faultinject"
	"cognicryptgen/service"
	"cognicryptgen/wire"
)

const (
	// hedgeWorkingSet is the number of distinct (pre-warmed) keys.
	hedgeWorkingSet = 12
	// hedgeRequests is how many measured requests each pass issues; it is
	// also the hedged client's retry budget.
	hedgeRequests = 120
	// hedgeSlowLatency is injected on every client request to the victim —
	// slow but not failing, the pathology breakers cannot see.
	hedgeSlowLatency = 300 * time.Millisecond
	// hedgeDelay is the hedged pass's explicit hedge delay.
	hedgeDelay = 25 * time.Millisecond
)

// HedgeResult is one tail drill's measurement.
type HedgeResult struct {
	Nodes         int     `json:"nodes"`
	WorkingSet    int     `json:"working_set"`
	Requests      int     `json:"requests"`
	SlowLatencyMS float64 `json:"slow_latency_ms"`
	// UnhedgedP99MS inherits the slow node's injected latency (its keys
	// are ~1/Nodes of traffic, far more than 1%).
	UnhedgedP99MS float64 `json:"unhedged_p99_ms"`
	HedgedP99MS   float64 `json:"hedged_p99_ms"`
	// HedgedTotal / HedgeWins / RetryBudgetExhausted are the hedged pass's
	// SDK counters.
	HedgedTotal          int64 `json:"hedged_total"`
	HedgeWins            int64 `json:"hedge_wins"`
	RetryBudgetExhausted int64 `json:"retry_budget_exhausted"`
	// Errors and Divergence cover both passes.
	Errors     int `json:"errors"`
	Divergence int `json:"divergence"`
}

// Check is the tail drill's contract: every request succeeded with output
// byte-identical to the primed answer, hedges actually rescued requests
// (wins > 0) within the retry budget (no exhaustion, so no amplification),
// and the hedged p99 beat the unhedged one.
func (r HedgeResult) Check() error {
	var errs []error
	if r.Errors > 0 {
		errs = append(errs, fmt.Errorf("%d requests failed", r.Errors))
	}
	if r.Divergence > 0 {
		errs = append(errs, fmt.Errorf("%d hedged responses diverged", r.Divergence))
	}
	if r.HedgeWins == 0 {
		errs = append(errs, errors.New("no hedge ever won — hedging did not engage against the slow node"))
	}
	if r.RetryBudgetExhausted != 0 {
		errs = append(errs, fmt.Errorf("hedging exhausted the retry budget %d time(s)", r.RetryBudgetExhausted))
	}
	if r.HedgedP99MS >= r.UnhedgedP99MS {
		errs = append(errs, fmt.Errorf("hedged p99 %.2fms did not beat unhedged %.2fms", r.HedgedP99MS, r.UnhedgedP99MS))
	}
	return drillError("hedge", errs)
}

// RunHedge measures what hedged requests buy against a slow-but-healthy
// node: the owner of a working-set key gets injected client-path latency
// (it still answers, so breakers and probes never eject it), an unhedged
// pass inherits its latency as the cluster p99, and a hedged pass must
// beat that p99 by racing a budget-gated second attempt after hedgeDelay.
// The hedge lands on the next-ranked node, whose un-faulted peer channel
// reaches the owner's warm cache.
func RunHedge(ctx context.Context) (HedgeResult, error) {
	res := HedgeResult{
		Nodes:         drillNodes,
		WorkingSet:    hedgeWorkingSet,
		Requests:      hedgeRequests,
		SlowLatencyMS: float64(hedgeSlowLatency) / float64(time.Millisecond),
	}
	cl, err := clustertest.Start(drillNodes, service.Config{Workers: drillWorkers, CacheSize: drillCacheSize})
	if err != nil {
		return res, err
	}
	defer cl.Close()

	reqs, err := drillRequests("hedge", hedgeWorkingSet)
	if err != nil {
		return res, err
	}
	// Prime every key before any fault is armed, so every owner's cache is
	// warm: the drill measures tail latency, not generation cost.
	primer, err := plainClient(cl)
	if err != nil {
		return res, err
	}
	defer primer.Close()
	firstOut, err := prime(ctx, primer, reqs)
	if err != nil {
		return res, err
	}
	victim := ownerIndex(cl, primer, reqs[0])

	// Slow down every SDK request to the victim — host-targeted, so the
	// peer channel between nodes stays fast (that is the road a hedge's
	// forwarded attempt takes to the owner's cache).
	victimHost := strings.TrimPrefix(cl.Nodes[victim].URL, "http://")
	point := faultinject.PointClientTransport + "@" + victimHost
	faultinject.Arm(point, faultinject.Fault{Mode: faultinject.ModeLatency, Latency: hedgeSlowLatency})
	defer faultinject.Disarm(point)

	pass := func(cfg client.Config) (p99MS float64, st wire.ClientStats, err error) {
		cfg.Nodes, cfg.MaxRetries, cfg.ProbeInterval = cl.URLs(), 4, -1
		sdk, err := client.New(cfg)
		if err != nil {
			return 0, st, err
		}
		defer sdk.Close()
		// One unmeasured warm-up teaches the SDK the rule-set fingerprint,
		// so the measured requests route to their true owners.
		if _, err := sdk.Generate(ctx, reqs[0]); err != nil {
			return 0, st, err
		}
		lats := make([]time.Duration, 0, hedgeRequests)
		for i := 0; i < hedgeRequests; i++ {
			k := i % hedgeWorkingSet
			t0 := time.Now()
			resp, err := sdk.Generate(ctx, reqs[k])
			if err != nil {
				res.Errors++
				continue
			}
			if resp.Output != firstOut[k] {
				res.Divergence++
			}
			lats = append(lats, time.Since(t0))
		}
		_, p99MS = quantilesMS(lats)
		return p99MS, sdk.Stats(), nil
	}

	if res.UnhedgedP99MS, _, err = pass(client.Config{}); err != nil {
		return res, err
	}
	var st wire.ClientStats
	res.HedgedP99MS, st, err = pass(client.Config{Hedge: true, HedgeDelay: hedgeDelay, RetryBudget: hedgeRequests})
	if err != nil {
		return res, err
	}
	res.HedgedTotal = st.HedgedTotal
	res.HedgeWins = st.HedgeWins
	res.RetryBudgetExhausted = st.RetryBudgetExhausted
	return res, ctx.Err()
}
