package loadgen

import (
	"context"
	"errors"
	"fmt"
	"time"

	"cognicryptgen/internal/clustertest"
	"cognicryptgen/service"
)

const (
	// chaosWorkingSet is the number of distinct keys under load.
	chaosWorkingSet = 12
	// chaosPhaseRequests is how many completed requests each phase
	// (steady, outage, recovery) must observe before the drill moves on.
	chaosPhaseRequests = 60
)

// Chaos drill phases, the index of each request's latency sample.
const (
	phaseSteady int32 = iota
	phaseOutage
	phaseRecovery
)

// ChaosResult is one drill's measurement — the E13 rows.
type ChaosResult struct {
	Nodes           int     `json:"nodes"`
	WorkingSet      int     `json:"working_set"`
	ProbeIntervalMS float64 `json:"probe_interval_ms"`
	// Requests/Errors cover the whole drill.
	Requests int `json:"requests"`
	Errors   int `json:"errors"`
	// Divergence counts responses that differed from the first answer for
	// their key.
	Divergence int `json:"divergence"`
	// SteadyP99MS is the warm-cache p99 before the kill; FailoverP99MS the
	// p99 of requests issued while the victim was down (retries, backoff,
	// and breaker routing included).
	SteadyP99MS   float64 `json:"steady_p99_ms"`
	FailoverP99MS float64 `json:"failover_p99_ms"`
	// NodeKillRecoveryMS is the time from the victim's restart until every
	// survivor's health prober re-admitted it (breaker closed again).
	NodeKillRecoveryMS float64 `json:"node_kill_recovery_ms"`
	// BreakerRejects sums the survivors' server-side breaker rejections
	// (forwards to the dead owner refused at the breaker, served locally).
	BreakerRejects int64 `json:"breaker_rejects"`
	// ClientRetries and RetryBudgetExhausted are the SDK's spend absorbing
	// the outage.
	ClientRetries        int64 `json:"client_retries"`
	RetryBudgetExhausted int64 `json:"retry_budget_exhausted"`
}

// Check is the node-kill drill's contract: failover absorbed the outage
// (no request lost, output byte-identical), the kill was exercised under
// load (the SDK spent retries), and the survivors re-admitted the
// restarted node within two probe rounds. RunChaos itself fails if the
// cluster's health never converges after the restart.
func (r ChaosResult) Check() error {
	var errs []error
	if r.Errors > 0 {
		errs = append(errs, fmt.Errorf("%d of %d requests failed — failover lost accepted requests", r.Errors, r.Requests))
	}
	if r.Divergence > 0 {
		errs = append(errs, fmt.Errorf("%d responses diverged from their key's first answer", r.Divergence))
	}
	if r.ClientRetries == 0 {
		errs = append(errs, errors.New("client spent no retries — the kill was not exercised under load"))
	}
	if r.NodeKillRecoveryMS > 2*r.ProbeIntervalMS {
		errs = append(errs, fmt.Errorf("node-kill recovery %.1fms > 2x probe interval %.0fms — probe success is not re-admitting the restarted node",
			r.NodeKillRecoveryMS, r.ProbeIntervalMS))
	}
	return drillError("chaos", errs)
}

// drillError joins a drill's failed checks under the drill's name.
func drillError(drill string, errs []error) error {
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("%s drill: %w", drill, err)
	}
	return nil
}

// RunChaos boots a cluster, drives closed-loop load through the SDK, kills
// the owner of a working-set key mid-run, restarts it, and measures what
// the outage cost: the failover latency tail, the recovery time back to
// all-healthy, and the breaker/retry counters that absorbed it. After the
// load stops it also requires the restarted node to see its peers healthy
// and the SDK's breaker for it to close again.
func RunChaos(ctx context.Context) (ChaosResult, error) {
	res := ChaosResult{
		Nodes:           drillNodes,
		WorkingSet:      chaosWorkingSet,
		ProbeIntervalMS: float64(drillProbeInterval) / float64(time.Millisecond),
	}
	cl, err := clustertest.Start(drillNodes, service.Config{
		Workers:           drillWorkers,
		CacheSize:         drillCacheSize,
		PeerProbeInterval: drillProbeInterval,
	})
	if err != nil {
		return res, err
	}
	defer cl.Close()
	sdk, err := failoverClient(cl)
	if err != nil {
		return res, err
	}
	defer sdk.Close()

	reqs, err := drillRequests("chaos", chaosWorkingSet)
	if err != nil {
		return res, err
	}
	firstOut, err := prime(ctx, sdk, reqs)
	if err != nil {
		return res, err
	}
	victim := ownerIndex(cl, sdk, reqs[0])
	victimURL := cl.Nodes[victim].URL
	// survivorsSee reports whether every survivor's prober currently
	// judges the victim healthy (want true) or ejected (want false).
	survivorsSee := func(healthy bool) bool {
		for i, n := range cl.Nodes {
			if i != victim && n.Srv.MetricsSnapshot().Peers[victimURL].Healthy != healthy {
				return false
			}
		}
		return true
	}

	load := startLoad(ctx, sdk, reqs, firstOut)
	recovery, err := func() (time.Duration, error) {
		if err := load.await(ctx, chaosPhaseRequests, "steady state"); err != nil {
			return 0, err
		}
		load.phase.Store(phaseOutage)
		cl.Kill(victim)
		if err := load.await(ctx, chaosPhaseRequests, "outage"); err != nil {
			return 0, err
		}
		// The outage must also last until every survivor's prober noticed
		// the kill; restarting earlier would measure a "recovery" from an
		// outage nobody detected.
		if err := waitFor(ctx, drillStallLimit, "survivors never noticed the killed node", func() bool { return survivorsSee(false) }); err != nil {
			return 0, err
		}
		load.phase.Store(phaseRecovery)
		if err := cl.Restart(victim); err != nil {
			return 0, err
		}
		restarted := time.Now()
		if err := waitFor(ctx, drillConvergeLimit, "survivors never re-admitted the restarted node", func() bool { return survivorsSee(true) }); err != nil {
			return 0, err
		}
		recovery := time.Since(restarted)
		return recovery, load.await(ctx, chaosPhaseRequests, "recovery")
	}()
	load.halt()
	if err != nil {
		return res, err
	}

	if err := waitFor(ctx, drillConvergeLimit, "restarted node never saw its peers healthy", func() bool {
		for _, ps := range cl.Nodes[victim].Srv.MetricsSnapshot().Peers {
			if !ps.Healthy {
				return false
			}
		}
		return true
	}); err != nil {
		return res, err
	}
	// The SDK's breaker for the victim opened during the outage (that kept
	// doomed attempts off it); requests routed at the restarted node must
	// close it again.
	if err := waitFor(ctx, drillConvergeLimit, "client breaker never closed for the restarted node", func() bool {
		if _, err := prime(ctx, sdk, reqs); err != nil {
			return false
		}
		return sdk.Stats().BreakerStates[victimURL] == "closed"
	}); err != nil {
		return res, err
	}

	for _, n := range cl.Nodes {
		res.BreakerRejects += n.Srv.MetricsSnapshot().BreakerRejects
	}
	st := sdk.Stats()
	res.Requests = int(load.requests.Load())
	res.Errors = int(load.errors.Load())
	res.Divergence = int(load.divergence.Load())
	res.NodeKillRecoveryMS = float64(recovery) / float64(time.Millisecond)
	res.ClientRetries = st.Retries
	res.RetryBudgetExhausted = st.RetryBudgetExhausted
	_, res.SteadyP99MS = quantilesMS(load.lats[phaseSteady])
	_, res.FailoverP99MS = quantilesMS(load.lats[phaseOutage])
	return res, ctx.Err()
}
