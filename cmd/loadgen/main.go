// Command loadgen drives synthetic load through an in-process cryptgend
// cluster via the client SDK and prints throughput, latency quantiles,
// and per-node cache/forward counters.
//
// Closed loop (default): -clients goroutines issue -requests total
// requests back-to-back. Open loop: -rate N issues N arrivals/second for
// -duration regardless of completions (measures behavior under offered
// load rather than sustainable load).
//
//	go run ./cmd/loadgen -nodes 4 -clients 8 -requests 2000
//	go run ./cmd/loadgen -nodes 4 -rate 500 -duration 5s
//	go run ./cmd/loadgen -smoke
//
// The failure drills (node kill, warm restart, hedging) run as stages of
// `go run ./cmd/benchtables -table service`.
//
// -smoke ignores the workload flags and runs the cluster correctness
// smoke instead: boots a standalone node and a 3-node cluster, routes all
// 13 embedded templates through the SDK against both, asserts the cluster
// output is byte-identical to standalone, then runs an unrouted
// (round-robin) pass and asserts the daemons forwarded to cache owners.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"cognicryptgen/client"
	"cognicryptgen/internal/clustertest"
	"cognicryptgen/internal/loadgen"
	"cognicryptgen/service"
	"cognicryptgen/templates"
	"cognicryptgen/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	var (
		nodes      = flag.Int("nodes", 1, "cluster size (in-process nodes)")
		clients    = flag.Int("clients", 8, "closed-loop concurrency")
		requests   = flag.Int("requests", 800, "closed-loop total requests")
		rate       = flag.Float64("rate", 0, "open-loop arrivals per second (0 = closed loop)")
		duration   = flag.Duration("duration", 5*time.Second, "open-loop run length")
		workingSet = flag.Int("working-set", 160, "distinct template keys in the workload")
		cacheSize  = flag.Int("cache", 64, "per-node result cache capacity")
		workers    = flag.Int("workers", 2, "per-node worker pool size")
		noRouting  = flag.Bool("no-routing", false, "SDK round-robins instead of hash-routing (daemons forward)")
		seed       = flag.Int64("seed", 1, "workload key sequence seed")
		jsonOut    = flag.String("json", "", "write the run result as JSON to this file")
		smoke      = flag.Bool("smoke", false, "run the cluster correctness smoke instead of a load run")
	)
	flag.Parse()

	ctx := context.Background()
	if *smoke {
		if err := runSmoke(ctx); err != nil {
			log.Fatalf("smoke FAILED: %v", err)
		}
		return
	}
	res, err := loadgen.Run(ctx, loadgen.Options{
		Nodes:          *nodes,
		Clients:        *clients,
		Requests:       *requests,
		Rate:           *rate,
		Duration:       *duration,
		WorkingSet:     *workingSet,
		CacheSize:      *cacheSize,
		Workers:        *workers,
		DisableRouting: *noRouting,
		Seed:           *seed,
	})
	if err != nil {
		log.Fatalf("run: %v", err)
	}
	printResult(res)
	if *jsonOut != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			log.Fatalf("marshal: %v", err)
		}
		if err := os.WriteFile(*jsonOut, append(b, '\n'), 0o644); err != nil {
			log.Fatalf("write %s: %v", *jsonOut, err)
		}
		log.Printf("wrote %s", *jsonOut)
	}
}

func printResult(res loadgen.Result) {
	routing := "hash-routed"
	if !res.Routed {
		routing = "round-robin (daemon forwarding)"
	}
	fmt.Printf("%d node(s), %s loop, %s; working set %d keys, per-node cache %d\n",
		res.Nodes, res.Mode, routing, res.WorkingSet, res.CacheSize)
	fmt.Printf("  %d requests in %.2fs -> %.1f req/s, p50 %.2fms, p99 %.2fms, %d errors\n",
		res.Requests, res.DurationS, res.RPS, res.P50MS, res.P99MS, res.Errors)
	for i, n := range res.PerNode {
		fmt.Printf("  node %d: hit_rate %.2f (hits %d, generations %d), coalesced %d, shed %d, forwarded %d (hits %d, fallbacks %d)\n",
			i, n.CacheHitRate, n.CacheHits, n.CacheMisses, n.Coalesced, n.ShedTotal,
			n.ForwardedTotal, n.ForwardHits, n.ForwardFallbacks)
	}
	if fhr := res.AggregateForwardHitRate(); fhr > 0 {
		fmt.Printf("  aggregate forward hit rate: %.2f\n", fhr)
	}
}

// allUseCases is Table 1 plus the extensions — the 13 embedded templates.
func allUseCases() []templates.UseCase {
	return append(append([]templates.UseCase(nil), templates.UseCases...), templates.Extensions...)
}

// runSmoke is the scripted cluster correctness check used by
// scripts/verify.sh.
func runSmoke(ctx context.Context) error {
	cfg := service.Config{Workers: 2, CacheSize: 64, PeerProbeInterval: 100 * time.Millisecond}
	cases := allUseCases()

	// Reference outputs from a standalone node.
	single, err := clustertest.Start(1, cfg)
	if err != nil {
		return fmt.Errorf("standalone boot: %w", err)
	}
	defer single.Close()
	ref := make(map[int]wire.GenerateResponse, len(cases))
	{
		sdk, err := client.New(client.Config{Nodes: single.URLs(), ProbeInterval: -1})
		if err != nil {
			return err
		}
		defer sdk.Close()
		for _, uc := range cases {
			resp, err := sdk.Generate(ctx, wire.GenerateRequest{UseCase: uc.ID, Verify: true})
			if err != nil {
				return fmt.Errorf("standalone usecase %d (%s): %w", uc.ID, uc.Name, err)
			}
			ref[uc.ID] = resp
		}
	}
	log.Printf("standalone: generated %d templates", len(ref))

	// A 3-node cluster must produce byte-identical output through the
	// hash-routed SDK.
	cluster, err := clustertest.Start(3, cfg)
	if err != nil {
		return fmt.Errorf("cluster boot: %w", err)
	}
	defer cluster.Close()
	routed, err := client.New(client.Config{Nodes: cluster.URLs(), ProbeInterval: -1})
	if err != nil {
		return err
	}
	defer routed.Close()
	for _, uc := range cases {
		resp, err := routed.Generate(ctx, wire.GenerateRequest{UseCase: uc.ID, Verify: true})
		if err != nil {
			return fmt.Errorf("cluster usecase %d (%s): %w", uc.ID, uc.Name, err)
		}
		want := ref[uc.ID]
		if resp.Output != want.Output {
			return fmt.Errorf("usecase %d (%s): cluster output differs from standalone", uc.ID, uc.Name)
		}
		if resp.Fingerprint != want.Fingerprint {
			return fmt.Errorf("usecase %d (%s): fingerprint %s != standalone %s", uc.ID, uc.Name, resp.Fingerprint, want.Fingerprint)
		}
	}
	log.Printf("3-node cluster: all %d templates byte-identical to standalone", len(cases))

	// An unrouted pass sends requests to arbitrary nodes; the daemons must
	// forward non-owned keys to their owners and serve owner-cached output.
	rr, err := client.New(client.Config{Nodes: cluster.URLs(), DisableRouting: true, ProbeInterval: -1})
	if err != nil {
		return err
	}
	defer rr.Close()
	for round := 0; round < 3; round++ {
		for _, uc := range cases {
			resp, err := rr.Generate(ctx, wire.GenerateRequest{UseCase: uc.ID, Verify: true})
			if err != nil {
				return fmt.Errorf("round-robin usecase %d (%s): %w", uc.ID, uc.Name, err)
			}
			if resp.Output != ref[uc.ID].Output {
				return fmt.Errorf("round-robin usecase %d (%s): output differs from standalone", uc.ID, uc.Name)
			}
		}
	}
	var forwarded, fwdHits, fallbacks, generations int64
	for _, n := range cluster.Nodes {
		m := n.Srv.MetricsSnapshot()
		forwarded += m.ForwardedTotal
		fwdHits += m.ForwardHits
		fallbacks += m.ForwardFallbacks
		generations += m.CacheMisses
	}
	if forwarded == 0 {
		return fmt.Errorf("round-robin pass produced no peer forwards (forwarded_total == 0)")
	}
	if fallbacks != 0 {
		return fmt.Errorf("healthy cluster fell back to local generation %d time(s)", fallbacks)
	}
	if generations != int64(len(cases)) {
		return fmt.Errorf("cluster ran %d generations for %d distinct templates (shared cache broken)", generations, len(cases))
	}
	log.Printf("forwarding: forwarded_total=%d forward_hits=%d fallbacks=0; %d generations for %d templates",
		forwarded, fwdHits, generations, len(cases))
	log.Printf("cluster smoke ok")
	return nil
}
