package loadgen

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cognicryptgen/internal/clustertest"
	"cognicryptgen/internal/persist"
	"cognicryptgen/service"
	"cognicryptgen/wire"
)

const (
	// warmWorkingSet is the number of distinct keys under load, a healthy
	// multiple of the node count so the victim owns a fair share.
	warmWorkingSet = 24
	// warmSnapshotInterval is each node's periodic snapshot cadence; the
	// drill crashes its victim, so only periodically persisted state
	// survives.
	warmSnapshotInterval = 50 * time.Millisecond
)

// WarmRestartResult is one durability drill's measurement.
type WarmRestartResult struct {
	Nodes      int `json:"nodes"`
	WorkingSet int `json:"working_set"`
	// PlainRestartMS is the baseline: how long a snapshot-less node takes
	// to come back. WarmRestartMS is the same restart with a snapshot to
	// restore.
	PlainRestartMS float64 `json:"plain_restart_ms"`
	WarmRestartMS  float64 `json:"warm_restart_ms"`
	// RestoreEntries is what the restarted victim reported restoring;
	// SnapshotBytes the durable file size it had written before the crash.
	RestoreEntries int64 `json:"restore_entries"`
	SnapshotBytes  int64 `json:"snapshot_bytes"`
	// RestoreHitRate is the victim's cache hit rate over the first
	// measurement window after the warm restart — the durability payoff.
	// A cold restart scores 0 here.
	RestoreHitRate float64 `json:"restore_hit_rate"`
	// Requests/Errors cover the background load across the crash;
	// Divergence counts any response that differed from the primed answer
	// for its key.
	Requests   int `json:"requests"`
	Errors     int `json:"errors"`
	Divergence int `json:"divergence"`
	// CorruptColdStart reports the second leg: the victim's snapshot was
	// deliberately corrupted and the node still booted clean (zero
	// restored entries) and answered byte-identically.
	CorruptColdStart bool `json:"corrupt_cold_start"`
}

// Check is the durability drill's contract: output stayed byte-identical
// through the crash, the corrupt-snapshot leg cold-started cleanly, the
// restored node's first window was mostly warm (hit rate >= 0.5 — it owned
// those keys before the crash), and restoring did not turn restart into
// the new outage (warm restart within 5x a plain one, with a 100ms floor
// because sub-100ms restarts are scheduler-noise-dominated).
func (r WarmRestartResult) Check() error {
	var errs []error
	if r.Divergence > 0 {
		errs = append(errs, fmt.Errorf("%d responses diverged across the crash/restart", r.Divergence))
	}
	if !r.CorruptColdStart {
		errs = append(errs, errors.New("corrupt-snapshot leg did not complete"))
	}
	if r.RestoreHitRate < 0.5 {
		errs = append(errs, fmt.Errorf("first-window hit rate %.2f < 0.5 — the snapshot is not restoring the working set", r.RestoreHitRate))
	}
	if base := max(r.PlainRestartMS, 100); r.WarmRestartMS > 5*base {
		errs = append(errs, fmt.Errorf("warm restart %.1fms > 5x plain restart baseline %.1fms — snapshot restore dominates boot", r.WarmRestartMS, base))
	}
	return drillError("warm-restart", errs)
}

// RunWarmRestart proves warm-restart durability end-to-end: a cluster
// under load has one node crash (no drain, no parting snapshot), the node
// restarts, and the drill measures what the periodic snapshot bought —
// restored entries, first-window hit rate, restart cost vs a plain
// snapshot-less restart — then corrupts the snapshot and proves the same
// crash degrades to a clean cold start instead of a crash loop.
func RunWarmRestart(ctx context.Context) (WarmRestartResult, error) {
	res := WarmRestartResult{Nodes: drillNodes, WorkingSet: warmWorkingSet}
	dir, err := os.MkdirTemp("", "ccg-warmrestart-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)

	// Baseline: a snapshot-less single node's kill-to-serving time.
	plain, err := clustertest.Start(1, service.Config{Workers: drillWorkers, CacheSize: drillCacheSize})
	if err != nil {
		return res, err
	}
	plain.Kill(0)
	t0 := time.Now()
	if err := plain.Restart(0); err != nil {
		plain.Close()
		return res, err
	}
	res.PlainRestartMS = float64(time.Since(t0)) / float64(time.Millisecond)
	plain.Close()

	cl, err := clustertest.Start(drillNodes, service.Config{
		Workers:           drillWorkers,
		CacheSize:         drillCacheSize,
		PeerProbeInterval: drillProbeInterval,
		SnapshotDir:       dir,
		SnapshotInterval:  warmSnapshotInterval,
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

	reqs, err := drillRequests("warm", warmWorkingSet)
	if err != nil {
		return res, err
	}
	firstOut, err := prime(ctx, sdk, reqs)
	if err != nil {
		return res, err
	}

	// Make the primed state durable at a deterministic point; past here the
	// drill does not depend on the periodic writer's timing.
	vi := ownerIndex(cl, sdk, reqs[0])
	victim := cl.Nodes[vi]
	if err := victim.Srv.SnapshotNow(); err != nil {
		return res, fmt.Errorf("loadgen: victim snapshot: %w", err)
	}
	res.SnapshotBytes = victim.Srv.MetricsSnapshot().SnapshotBytes
	if res.SnapshotBytes <= 0 {
		return res, fmt.Errorf("loadgen: victim reports no durable snapshot bytes")
	}

	// Background load keeps running across the crash: the SDK's failover
	// must absorb the outage.
	load := startLoad(ctx, sdk, reqs, firstOut)
	cl.Kill(vi)
	t0 = time.Now()
	err = cl.Restart(vi)
	res.WarmRestartMS = float64(time.Since(t0)) / float64(time.Millisecond)
	load.halt()
	res.Requests = int(load.requests.Load())
	res.Errors = int(load.errors.Load())
	res.Divergence = int(load.divergence.Load())
	if err != nil {
		return res, err
	}

	res.RestoreEntries = victim.Srv.MetricsSnapshot().RestoreEntries
	if res.RestoreEntries <= 0 {
		return res, fmt.Errorf("loadgen: restarted victim restored no entries")
	}

	// First measurement window: a fresh SDK (closed breakers) walks the
	// whole working set; the victim's own hit/miss counters — zeroed by the
	// restart — are the restored cache's first-contact hit rate.
	diverged, err := walk(ctx, cl, reqs, firstOut)
	if err != nil {
		return res, fmt.Errorf("loadgen: post-restart pass: %w", err)
	}
	res.Divergence += diverged
	m := victim.Srv.MetricsSnapshot()
	if seen := m.CacheHits + m.CacheMisses; seen > 0 {
		res.RestoreHitRate = float64(m.CacheHits) / float64(seen)
	}

	// Corruption leg: crash again, mangle the snapshot, and the node must
	// come back cold but clean — and still answer byte-identically.
	cl.Kill(vi)
	snapPath := filepath.Join(dir, fmt.Sprintf("node%d", vi), persist.SnapshotFile)
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		return res, fmt.Errorf("loadgen: reading snapshot to corrupt: %w", err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(snapPath, raw, 0o644); err != nil {
		return res, err
	}
	if err := cl.Restart(vi); err != nil {
		return res, err
	}
	if n := victim.Srv.MetricsSnapshot().RestoreEntries; n != 0 {
		return res, fmt.Errorf("loadgen: corrupt snapshot still restored %d entries", n)
	}
	diverged, err = walk(ctx, cl, reqs, firstOut)
	if err != nil {
		return res, fmt.Errorf("loadgen: post-corruption pass: %w", err)
	}
	if diverged > 0 {
		return res, fmt.Errorf("loadgen: %d post-corruption outputs diverged", diverged)
	}
	res.CorruptColdStart = true
	return res, ctx.Err()
}

// walk sends every working-set request once through a fresh SDK and
// counts answers that differ from firstOut.
func walk(ctx context.Context, cl *clustertest.Cluster, reqs []wire.GenerateRequest, firstOut []string) (int, error) {
	sdk, err := plainClient(cl)
	if err != nil {
		return 0, err
	}
	defer sdk.Close()
	diverged := 0
	for k, req := range reqs {
		resp, err := sdk.Generate(ctx, req)
		if err != nil {
			return diverged, fmt.Errorf("key %d: %w", k, err)
		}
		if resp.Output != firstOut[k] {
			diverged++
		}
	}
	return diverged, nil
}
