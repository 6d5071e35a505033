// Command benchtables regenerates the paper's evaluation tables from this
// reproduction (experiment index in DESIGN.md):
//
//	benchtables -table 1        Table 1: use cases, generation runtime, memory
//	benchtables -table 2        Table 2: artefact LOC, old-gen vs GEN
//	benchtables -table rq1      RQ1: generation + verification + misuse scan
//	benchtables -table rq5      RQ5: study-task effort proxy
//	benchtables -table service  cryptgend daemon: cold vs warm, throughput
//	benchtables -table all      everything
//
// With -json FILE, -table service additionally writes the measured
// daemon numbers (req/s, cache hit rate, cold/warm latency, cold-start
// rows) to FILE (conventionally BENCH_service.json).
//
// With -cpuprofile FILE / -memprofile FILE, pprof profiles of the whole
// run are written for `go tool pprof` — the workflow that located the
// cold-path costs (srccheck universe construction, sequential rule
// compilation) this tool now measures.
//
// Runtime and memory come from repeated in-process runs (10 by default,
// matching the paper's methodology of averaging ten runs); memory is the
// per-run allocation delta, the closest analog of the paper's
// process-level memory sampling.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"cognicryptgen/analysis"
	"cognicryptgen/effort"
	"cognicryptgen/gen"
	"cognicryptgen/internal/faultinject"
	"cognicryptgen/internal/loadgen"
	"cognicryptgen/oldgen"
	"cognicryptgen/rules"
	"cognicryptgen/service"
	"cognicryptgen/templates"
	"cognicryptgen/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchtables: ")
	table := flag.String("table", "all", "which table to print: 1, 2, rq1, rq5, service, all")
	runs := flag.Int("runs", 10, "runs per use case for Table 1 averaging")
	jsonOut := flag.String("json", "", "write the service benchmark as JSON to this file (e.g. BENCH_service.json)")
	clients := flag.Int("clients", 2*runtime.NumCPU(), "concurrent clients for the service throughput benchmark")
	requests := flag.Int("requests", 50, "requests per client for the service throughput benchmark")
	smoke := flag.Bool("smoke", false, "fast service-table run for CI gating: fewer clients, requests, and repetitions; gates on cold-start regression (-table service only)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (post-GC) to this file at exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	if *smoke {
		*clients, *requests = 2, 3
	}
	// The cold-start gate only means something when the service table runs
	// first in a fresh process: in -table all the earlier tables have
	// already warmed the shared universe, so "first Generator" is no longer
	// a first.
	gate := *smoke && *table == "service"
	switch *table {
	case "1":
		table1(*runs)
	case "2":
		table2()
	case "rq1":
		rq1()
	case "rq5":
		rq5()
	case "service":
		serviceBench(*clients, *requests, *jsonOut, *smoke, gate)
	case "all":
		table1(*runs)
		fmt.Println()
		table2()
		fmt.Println()
		rq1()
		fmt.Println()
		rq5()
		fmt.Println()
		serviceBench(*clients, *requests, *jsonOut, *smoke, gate)
	default:
		log.Fatalf("unknown table %q", *table)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
	}
}

func newGenerator(verify bool) *gen.Generator {
	g, err := gen.New(rules.MustLoad(), "", gen.Options{Verify: verify})
	if err != nil {
		log.Fatal(err)
	}
	return g
}

// table1 reproduces Table 1: per use case, average generation runtime over
// n runs and allocation delta. The paper's columns (6.6–8.1 s, 2.5–66.6 MB
// inside Eclipse) are printed alongside for the paper-vs-measured record.
func table1(n int) {
	g := newGenerator(false)
	paper := map[int][2]float64{ // seconds, MB (paper Table 1)
		1: {7.0, 14.1}, 2: {6.7, 13.5}, 3: {7.1, 66.6}, 4: {6.8, 6.0},
		5: {6.7, 2.5}, 6: {6.6, 4.2}, 7: {6.9, 56.7}, 8: {6.8, 34.1},
		9: {8.1, 22.7}, 10: {7.5, 7.1}, 11: {6.7, 14.2},
	}
	fmt.Println("Table 1: Common Cryptographic Use Cases (this reproduction vs paper)")
	fmt.Printf("%-3s %-30s %12s %12s %10s %10s\n", "#", "Use Case", "runtime", "alloc/run", "paper[s]", "paper[MB]")
	for _, uc := range templates.UseCases {
		src, err := templates.Source(uc)
		if err != nil {
			log.Fatal(err)
		}
		// Warm-up run (template parse caches, stdlib importer).
		if _, err := g.GenerateFile(uc.File, src); err != nil {
			log.Fatalf("use case %d (%s): %v", uc.ID, uc.Name, err)
		}
		var total time.Duration
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := g.GenerateFile(uc.File, src); err != nil {
				log.Fatal(err)
			}
		}
		total = time.Since(start)
		runtime.ReadMemStats(&after)
		allocPerRun := float64(after.TotalAlloc-before.TotalAlloc) / float64(n) / (1 << 20)
		p := paper[uc.ID]
		fmt.Printf("%-3d %-30s %12s %9.2f MB %9.1fs %8.1fMB\n",
			uc.ID, uc.Name, (total / time.Duration(n)).Round(time.Microsecond), allocPerRun, p[0], p[1])
	}
}

// table2 reproduces Table 2: artefact lines of code per use case.
func table2() {
	rows, err := effort.Table2()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Table 2: artefact LOC to implement the old-gen use cases (measured | paper)")
	fmt.Printf("%-3s %-30s %18s %18s\n", "#", "Use Case", "old-gen XSL+Clafer", "GEN template")
	for _, r := range rows {
		fmt.Printf("%-3d %-30s %7d+%-4d|%3d+%-4d %8d|%-4d\n",
			r.UseCase, r.Name, r.XSLLOC, r.ClaferLOC, r.PaperXSL, r.PaperClafer, r.TemplateLOC, r.PaperTemplate)
	}
	s := effort.Summarize(rows)
	fmt.Printf("average: old-gen %.0f (XSL %.0f + Clafer %.0f), GEN %.0f — ratio %.2f (paper: ~136+91 vs 60, ~0.26)\n",
		s.AvgOldTotal, s.AvgXSL, s.AvgClafer, s.AvgTemplate, s.Ratio)
}

// rq1 reproduces the RQ1 check: all eleven use cases generate, compile,
// and pass the rule-driven misuse analyzer.
func rq1() {
	g := newGenerator(true)
	an, err := analysis.New(rules.MustLoad(), "", analysis.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("RQ1: implementation of common use cases (generate + type-check + misuse scan)")
	ok := true
	for _, uc := range templates.UseCases {
		src, err := templates.Source(uc)
		if err != nil {
			log.Fatal(err)
		}
		res, err := g.GenerateFile(uc.File, src)
		if err != nil {
			fmt.Printf("%-3d %-30s GENERATION FAILED: %v\n", uc.ID, uc.Name, err)
			ok = false
			continue
		}
		rep, err := an.AnalyzeSource(uc.File, res.Output)
		if err != nil {
			fmt.Printf("%-3d %-30s ANALYSIS FAILED: %v\n", uc.ID, uc.Name, err)
			ok = false
			continue
		}
		status := "compiles, 0 misuses"
		if len(rep.Findings) > 0 {
			status = fmt.Sprintf("%d MISUSES", len(rep.Findings))
			ok = false
		}
		fmt.Printf("%-3d %-30s %s (%d rules, %d assumptions)\n",
			uc.ID, uc.Name, status, countRules(res), len(rep.Assumptions))
	}
	if ok {
		fmt.Println("result: all 11 use cases implemented — matches the paper's RQ1")
	} else {
		fmt.Println("result: RQ1 FAILED")
		os.Exit(1)
	}
}

func countRules(res *gen.Result) int {
	n := 0
	for _, m := range res.Report.Methods {
		n += len(m.Rules)
	}
	return n
}

// rq5 prints the study-task effort proxy plus the paper's human-measured
// outcomes for context.
func rq5() {
	rows, err := effort.RQ5()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("RQ5 proxy: mechanical effort of the two study tasks per backend")
	for _, r := range rows {
		fmt.Println("  " + r.String())
	}
	p := effort.PaperRQ5Values
	fmt.Println("paper (human study, 16 participants — reported, not re-measured):")
	fmt.Printf("  SUS: GEN %.1f vs old-gen %.1f; NPS: GEN %.1f vs old-gen %.1f\n", p.SUSGen, p.SUSOld, p.NPSGen, p.NPSOld)
	fmt.Printf("  completion time: encryption task %s; hashing task %s\n", p.EncryptionTaskGenDelta, p.HashingTaskGenDelta)
}

// serviceBenchResult is the JSON shape written to BENCH_service.json.
type serviceBenchResult struct {
	RuleCompileMS         float64 `json:"rule_compile_ms"`
	FirstGeneratorMS      float64 `json:"first_generator_ms"`
	SubsequentGeneratorMS float64 `json:"subsequent_generator_ms"`
	GeneratorReuseSpeedup float64 `json:"generator_reuse_speedup"`
	ReloadMS              float64 `json:"reload_ms"`
	ColdSingleShotMS      float64 `json:"cold_single_shot_ms"`
	WarmCachedMS          float64 `json:"warm_cached_ms"`
	WarmUncachedMS        float64 `json:"warm_uncached_ms"`
	WarmUncachedPlanMS    float64 `json:"warm_uncached_plan_ms"`
	PlanSpeedup           float64 `json:"plan_speedup"`
	PlanHits              int64   `json:"plan_hits"`
	PlanMisses            int64   `json:"plan_misses"`
	Speedup               float64 `json:"cold_vs_warm_speedup"`
	ThroughputRPS         float64 `json:"throughput_rps"`
	BatchItemsPerS        float64 `json:"batch_items_per_s"`
	BatchItems            int     `json:"batch_items"`
	Coalesced             int64   `json:"coalesced_requests"`
	CoalesceHits          int64   `json:"coalesce_cache_hits"`
	CoalesceClients       int     `json:"coalesce_clients"`
	PanicsRecovered       int64   `json:"panics_recovered"`
	ShedTotal             int64   `json:"shed_total"`
	ShedRecoveryMS        float64 `json:"shed_recovery_ms"`
	CacheHitRate          float64 `json:"cache_hit_rate"`
	Clients               int     `json:"clients"`
	Requests              int     `json:"total_requests"`
	UseCases              int     `json:"use_cases"`
	Workers               int     `json:"workers"`
	Fingerprint           string  `json:"ruleset_fingerprint"`

	// Cluster rows (internal/loadgen over in-process nodes + the SDK):
	// closed-loop mixed workload whose working set exceeds one node's
	// result cache, at 1/2/4 nodes with hash routing, plus a 4-node
	// unrouted (round-robin) pass where cache locality comes from the
	// daemons' peer forwarding instead of the client.
	ClusterWorkingSet   int                  `json:"cluster_working_set"`
	ClusterCacheSize    int                  `json:"cluster_cache_size"`
	ClusterRequests     int                  `json:"cluster_requests"`
	ClusterRPS          map[string]float64   `json:"cluster_rps"`
	ClusterSpeedup4     float64              `json:"cluster_speedup_4x_vs_1"`
	ForwardHitRate      float64              `json:"forward_hit_rate"`
	ClusterNodeHitRates map[string][]float64 `json:"cluster_node_cache_hit_rates"`

	// Chaos rows (E13, internal/loadgen.RunChaos): a node-kill failover
	// drill — one node of three killed and restarted under continuous SDK
	// load. FailoverP99MS is the latency tail while the node was down;
	// NodeKillRecoveryMS the time from restart until every survivor
	// re-admitted it (bounded at 2x the probe interval by ChaosResult.Check).
	ChaosRequests        int     `json:"chaos_requests"`
	ChaosProbeIntervalMS float64 `json:"chaos_probe_interval_ms"`
	SteadyP99MS          float64 `json:"steady_p99_ms"`
	FailoverP99MS        float64 `json:"failover_p99_ms"`
	NodeKillRecoveryMS   float64 `json:"node_kill_recovery_ms"`
	BreakerRejects       int64   `json:"breaker_rejects"`
	ChaosClientRetries   int64   `json:"chaos_client_retries"`

	// Warm-restart rows (S24/E14, internal/loadgen.RunWarmRestart): one
	// snapshot-enabled node of three crashed mid-load (no drain, no
	// parting snapshot) and restarted. RestoreHitRate is the restored
	// node's cache hit rate over the first post-restart window (>= 0.5);
	// WarmRestartMS is bounded by a multiple of PlainRestartMS so
	// restoring can never dominate boot (both in WarmRestartResult.Check).
	PlainRestartMS float64 `json:"plain_restart_ms"`
	WarmRestartMS  float64 `json:"warm_restart_ms"`
	RestoreEntries int64   `json:"restore_entries"`
	RestoreHitRate float64 `json:"restore_hit_rate"`

	// Hedge rows (internal/loadgen.RunHedge): one node of three gets
	// injected client-path latency (slow but healthy); the hedged pass
	// must beat the unhedged p99 with wins and zero budget exhaustion
	// (HedgeResult.Check).
	UnhedgedP99MS float64 `json:"unhedged_p99_ms"`
	HedgedP99MS   float64 `json:"hedged_p99_ms"`
	HedgeWinRate  float64 `json:"hedge_win_rate"`
}

// serviceBench measures the cryptgend daemon (S19/E9): the process
// cold-start anatomy (rule compilation, first vs subsequent Generator
// construction over the shared srccheck universe, registry reload), cold
// one-shot generation vs the warm service (compiled-rule registry +
// result cache), sustained throughput with concurrent clients
// round-robining over all 13 embedded use cases, batch-endpoint
// throughput, singleflight coalescing, the cluster rows, and the failure
// drills, whose contracts fail every run. smoke trims every repetition
// count for CI gating; gate additionally fails the run if subsequent
// Generator construction costs >= 10% of the first — i.e. if the shared
// type-check universe ever stops being reused — or if the plan fast path
// stops serving warm misses.
func serviceBench(clients, perClient int, jsonPath string, smoke bool, gate bool) {
	cases := append(append([]templates.UseCase(nil), templates.UseCases...), templates.Extensions...)
	uc := cases[2] // PBE on byte-arrays, the paper's running example

	coldRuns, warmRuns, uncachedRuns, batchRounds, subsequentRuns, reloadRuns := 3, 200, 10, 20, 10, 5
	if smoke {
		coldRuns, warmRuns, uncachedRuns, batchRounds, subsequentRuns, reloadRuns = 1, 20, 2, 2, 3, 1
	}

	// Cold-start anatomy. Order matters: the first gen.New in the process
	// is the one that populates the shared type-check universe (the ~1s
	// gca import), so it must run before anything else touches gen or
	// service. Subsequent constructions only look the packages up.
	ruleStart := time.Now()
	firstSet, err := rules.LoadFresh()
	if err != nil {
		log.Fatal(err)
	}
	ruleCompileMS := float64(time.Since(ruleStart)) / float64(time.Millisecond)

	firstStart := time.Now()
	if _, err := gen.New(firstSet, "", gen.Options{}); err != nil {
		log.Fatal(err)
	}
	firstGenMS := float64(time.Since(firstStart)) / float64(time.Millisecond)

	subsequentStart := time.Now()
	for i := 0; i < subsequentRuns; i++ {
		if _, err := gen.New(firstSet, "", gen.Options{}); err != nil {
			log.Fatal(err)
		}
	}
	subsequentGenMS := float64(time.Since(subsequentStart)) / float64(time.Millisecond) / float64(subsequentRuns)

	// Cold: what every cmd/cryptgen invocation pays — compile all 14
	// rules, build a Generator, generate. With the shared universe the
	// type-check packages are already in place after the first
	// construction above, so this is the steady-state in-process cost;
	// the true once-per-process tax is the first_generator row.
	src, err := templates.Source(uc)
	if err != nil {
		log.Fatal(err)
	}
	coldStart := time.Now()
	for i := 0; i < coldRuns; i++ {
		rs, err := rules.LoadFresh()
		if err != nil {
			log.Fatal(err)
		}
		g, err := gen.New(rs, "", gen.Options{})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := g.GenerateFile(uc.File, src); err != nil {
			log.Fatal(err)
		}
	}
	coldMS := float64(time.Since(coldStart)) / float64(time.Millisecond) / float64(coldRuns)

	workers := runtime.NumCPU()
	srv, err := service.New(service.Config{Workers: workers, CacheSize: 64})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()

	// Warm the registry, worker generators, and result cache.
	for _, c := range cases {
		if _, err := srv.Generate(ctx, wire.GenerateRequest{UseCase: c.ID}); err != nil {
			log.Fatalf("use case %d: %v", c.ID, err)
		}
	}

	// Warm cached latency: repeated identical request.
	warmStart := time.Now()
	for i := 0; i < warmRuns; i++ {
		if _, err := srv.Generate(ctx, wire.GenerateRequest{UseCase: uc.ID}); err != nil {
			log.Fatal(err)
		}
	}
	warmMS := float64(time.Since(warmStart)) / float64(time.Millisecond) / float64(warmRuns)

	// Warm uncached latency, legacy pipeline: unique template *bodies*
	// defeat the result cache AND the plan cache, so every request pays
	// the full parse → resolve → emit → print pipeline over the warm
	// registry and path cache. (Unique names alone no longer measure
	// this: one body under many names is exactly the workload the plan
	// cache serves by byte splicing.)
	uncachedStart := time.Now()
	for i := 0; i < uncachedRuns; i++ {
		req := wire.GenerateRequest{
			Name:   fmt.Sprintf("uniq%d.go", i),
			Source: src + fmt.Sprintf("\n// uncached %d\n", i),
		}
		if _, err := srv.Generate(ctx, req); err != nil {
			log.Fatal(err)
		}
	}
	uncachedMS := float64(time.Since(uncachedStart)) / float64(time.Millisecond) / float64(uncachedRuns)

	// Warm uncached latency, plan path (E12): unique names over one warm
	// body miss the result cache but execute the precompiled plan — two
	// byte copies instead of AST assembly. The plan is resident from the
	// warm-up above, so every iteration is the steady-state splice.
	planRuns := warmRuns
	planHitsBefore := srv.MetricsSnapshot().PlanHits
	planStart := time.Now()
	for i := 0; i < planRuns; i++ {
		req := wire.GenerateRequest{Name: fmt.Sprintf("planuniq%d.go", i), Source: src}
		if _, err := srv.Generate(ctx, req); err != nil {
			log.Fatal(err)
		}
	}
	planMS := float64(time.Since(planStart)) / float64(time.Millisecond) / float64(planRuns)
	planSpeedup := uncachedMS / planMS
	planServed := srv.MetricsSnapshot().PlanHits - planHitsBefore

	// Throughput: clients × perClient requests over all 13 use cases.
	var wg sync.WaitGroup
	thrStart := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				id := cases[(c+i)%len(cases)].ID
				if _, err := srv.Generate(ctx, wire.GenerateRequest{UseCase: id}); err != nil {
					log.Fatal(err)
				}
			}
		}(c)
	}
	wg.Wait()
	thrSecs := time.Since(thrStart).Seconds()
	total := clients * perClient
	rps := float64(total) / thrSecs

	// Batch endpoint: whole-catalogue batches (all 13 use cases per
	// request), measuring fan-out overhead per item on a warm cache.
	var batchItems int
	batchStart := time.Now()
	for i := 0; i < batchRounds; i++ {
		var breq wire.BatchRequest
		for _, c := range cases {
			breq.Requests = append(breq.Requests, wire.GenerateRequest{UseCase: c.ID})
		}
		bresp, err := srv.GenerateBatch(ctx, breq)
		if err != nil {
			log.Fatal(err)
		}
		if bresp.Failed > 0 {
			log.Fatalf("batch round %d: %d items failed", i, bresp.Failed)
		}
		batchItems += len(bresp.Results)
	}
	batchItemsPerS := float64(batchItems) / time.Since(batchStart).Seconds()

	// Reload latency: recompile every rule (parallel LoadFS) and re-warm
	// the path cache (concurrent per-rule enumeration), then swap.
	reloadStart := time.Now()
	for i := 0; i < reloadRuns; i++ {
		if _, err := srv.Registry().Reload(); err != nil {
			log.Fatal(err)
		}
	}
	reloadMS := float64(time.Since(reloadStart)) / float64(time.Millisecond) / float64(reloadRuns)

	// Coalescing: concurrent identical cache misses collapse into one
	// generation through the singleflight layer. Left ungated, this stage
	// used to report coalesced=0 on fast machines: the shared universe makes
	// a generation take low milliseconds, so on a single core the leader
	// often finished before any follower was even scheduled and the
	// followers all landed as plain cache hits — the stage never measured
	// the thing it existed for. A one-shot injected latency at the worker
	// exec point now holds the leader's flight open long enough for every
	// follower to arrive and park on it; followers bump the coalesced
	// counter before waiting, so the split below is deterministic enough to
	// assert on.
	cosrv, err := service.New(service.Config{Workers: workers, CacheSize: 64})
	if err != nil {
		log.Fatal(err)
	}
	const coalesceClients = 8
	coStart := make(chan struct{})
	var coWG sync.WaitGroup
	for i := 0; i < coalesceClients; i++ {
		coWG.Add(1)
		go func() {
			defer coWG.Done()
			<-coStart
			// A body no plan was ever compiled for: the leader must take
			// the worker path (where the latency fault is armed) rather
			// than serve an inline byte splice, or no follower coalesces.
			req := wire.GenerateRequest{Name: "coalesce_bench.go", Source: src + "\n// coalesce stage\n"}
			if _, err := cosrv.Generate(ctx, req); err != nil {
				log.Fatal(err)
			}
		}()
	}
	faultinject.Arm(faultinject.PointWorkerExec, faultinject.Fault{Mode: faultinject.ModeLatency, Latency: 250 * time.Millisecond, Times: 1})
	close(coStart)
	coWG.Wait()
	faultinject.Reset()
	com := cosrv.MetricsSnapshot()
	coalesced := com.Coalesced
	coHits := com.CacheHits
	if coalesced == 0 {
		log.Fatal("coalescing stage: no follower joined the gated flight")
	}
	if absorbed := coalesced + coHits; absorbed != coalesceClients-1 {
		log.Fatalf("coalescing stage: %d followers absorbed (coalesced %d + hits %d), want %d", absorbed, coalesced, coHits, coalesceClients-1)
	}
	cosrv.Close()

	// Resilience rows: a dedicated tiny server (1 worker, 1-deep queue,
	// 1 waiter) takes an injected worker panic — the request fails, the
	// very next one succeeds — then a latency storm that trips admission
	// control. Shed recovery is the latency of the first successful
	// generation after the fault clears: the price of coming back, not of
	// staying up.
	resrv, err := service.New(service.Config{Workers: 1, QueueSize: 1, MaxWaiters: 1})
	if err != nil {
		log.Fatal(err)
	}
	// Every resilience request carries a unique body: the faults under
	// test live on the worker path, and a body matching a resident plan
	// would be byte-spliced inline without ever reaching the pool.
	resSrc := func(tag string) string { return src + "\n// resilience: " + tag + "\n" }
	if _, err := resrv.Generate(ctx, wire.GenerateRequest{Name: "res_warm.go", Source: resSrc("warm")}); err != nil {
		log.Fatal(err)
	}
	faultinject.Arm(faultinject.PointWorkerExec, faultinject.Fault{Mode: faultinject.ModePanic, Times: 1})
	if _, err := resrv.Generate(ctx, wire.GenerateRequest{Name: "res_panic.go", Source: resSrc("panic")}); err == nil {
		log.Fatal("injected worker panic did not fail its request")
	}
	if _, err := resrv.Generate(ctx, wire.GenerateRequest{Name: "res_after_panic.go", Source: resSrc("after_panic")}); err != nil {
		log.Fatalf("generation after recovered worker panic: %v", err)
	}
	faultinject.Arm(faultinject.PointWorkerExec, faultinject.Fault{Mode: faultinject.ModeLatency, Latency: 100 * time.Millisecond})
	var shedWG sync.WaitGroup
	for i := 0; i < 8; i++ {
		shedWG.Add(1)
		go func(i int) {
			defer shedWG.Done()
			// Shed requests fail with 429-mapped errors by design.
			_, _ = resrv.Generate(ctx, wire.GenerateRequest{Name: fmt.Sprintf("res_storm%d.go", i), Source: resSrc(fmt.Sprintf("storm%d", i))})
		}(i)
	}
	shedWG.Wait()
	faultinject.Reset()
	recoverStart := time.Now()
	if _, err := resrv.Generate(ctx, wire.GenerateRequest{Name: "res_recover.go", Source: resSrc("recover")}); err != nil {
		log.Fatalf("generation after shedding storm: %v", err)
	}
	shedRecoveryMS := float64(time.Since(recoverStart)) / float64(time.Millisecond)
	rem := resrv.MetricsSnapshot()
	panicsRecovered := rem.PanicsRecovered
	shedTotal := rem.ShedTotal
	resrv.Close()

	// Cluster rows. The workload is sized so its working set does not fit
	// one node's result cache but does fit four: the single node thrashes
	// (most requests pay a full generation), while the routed cluster
	// shards the key space and serves cache hits — on a single-CPU box the
	// speedup comes from aggregate cache capacity, not parallel compute.
	clusterWS, clusterCache, clusterReqs := 160, 64, 2000
	if smoke {
		clusterWS, clusterCache, clusterReqs = 36, 16, 240
	}
	clusterRPS := make(map[string]float64, 4)
	clusterHitRates := make(map[string][]float64, 4)
	for _, n := range []int{1, 2, 4} {
		lres, err := loadgen.Run(ctx, loadgen.Options{
			Nodes:      n,
			Clients:    8,
			Requests:   clusterReqs,
			WorkingSet: clusterWS,
			CacheSize:  clusterCache,
			Workers:    2,
			Seed:       1,
		})
		if err != nil {
			log.Fatalf("cluster stage (%d nodes): %v", n, err)
		}
		if lres.Errors > 0 {
			log.Fatalf("cluster stage (%d nodes): %d request errors", n, lres.Errors)
		}
		key := fmt.Sprintf("%d", n)
		clusterRPS[key] = lres.RPS
		clusterHitRates[key] = lres.NodeHitRates()
	}
	fres, err := loadgen.Run(ctx, loadgen.Options{
		Nodes:          4,
		Clients:        8,
		Requests:       clusterReqs,
		WorkingSet:     clusterWS,
		CacheSize:      clusterCache,
		Workers:        2,
		Seed:           1,
		DisableRouting: true,
	})
	if err != nil {
		log.Fatalf("cluster stage (4 nodes, unrouted): %v", err)
	}
	if fres.Errors > 0 {
		log.Fatalf("cluster stage (4 nodes, unrouted): %d request errors", fres.Errors)
	}
	clusterRPS["4_unrouted"] = fres.RPS
	clusterHitRates["4_unrouted"] = fres.NodeHitRates()
	forwardHitRate := fres.AggregateForwardHitRate()
	if forwardHitRate == 0 {
		log.Fatal("cluster stage: unrouted 4-node run produced no forward hits — peer forwarding is not sharing the cache")
	}
	clusterSpeedup4 := clusterRPS["4"] / clusterRPS["1"]

	// Failure drills (E13, S24/E14). Each drill's contract — including its
	// recovery, restore and tail bounds — is its result's Check, enforced
	// after the tables print so a failing run still shows its numbers.
	cres, err := loadgen.RunChaos(ctx)
	if err != nil {
		log.Fatalf("chaos stage: %v", err)
	}
	wres, err := loadgen.RunWarmRestart(ctx)
	if err != nil {
		log.Fatalf("warm-restart stage: %v", err)
	}
	hres, err := loadgen.RunHedge(ctx)
	if err != nil {
		log.Fatalf("hedge stage: %v", err)
	}
	hedgeWinRate := 0.0
	if hres.HedgedTotal > 0 {
		hedgeWinRate = float64(hres.HedgeWins) / float64(hres.HedgedTotal)
	}

	m := srv.MetricsSnapshot()
	hitRate := m.CacheHitRate
	res := serviceBenchResult{
		RuleCompileMS:         ruleCompileMS,
		FirstGeneratorMS:      firstGenMS,
		SubsequentGeneratorMS: subsequentGenMS,
		GeneratorReuseSpeedup: firstGenMS / subsequentGenMS,
		ReloadMS:              reloadMS,
		ColdSingleShotMS:      coldMS,
		WarmCachedMS:          warmMS,
		WarmUncachedMS:        uncachedMS,
		WarmUncachedPlanMS:    planMS,
		PlanSpeedup:           planSpeedup,
		PlanHits:              m.PlanHits,
		PlanMisses:            m.PlanMisses,
		Speedup:               coldMS / warmMS,
		ThroughputRPS:         rps,
		BatchItemsPerS:        batchItemsPerS,
		BatchItems:            batchItems,
		Coalesced:             coalesced,
		CoalesceHits:          coHits,
		CoalesceClients:       coalesceClients,
		PanicsRecovered:       panicsRecovered,
		ShedTotal:             shedTotal,
		ShedRecoveryMS:        shedRecoveryMS,
		CacheHitRate:          hitRate,
		Clients:               clients,
		Requests:              total,
		UseCases:              len(cases),
		Workers:               workers,
		Fingerprint:           srv.Registry().Snapshot().Fingerprint,
		ClusterWorkingSet:     clusterWS,
		ClusterCacheSize:      clusterCache,
		ClusterRequests:       clusterReqs,
		ClusterRPS:            clusterRPS,
		ClusterSpeedup4:       clusterSpeedup4,
		ForwardHitRate:        forwardHitRate,
		ClusterNodeHitRates:   clusterHitRates,
		ChaosRequests:         cres.Requests,
		ChaosProbeIntervalMS:  cres.ProbeIntervalMS,
		SteadyP99MS:           cres.SteadyP99MS,
		FailoverP99MS:         cres.FailoverP99MS,
		NodeKillRecoveryMS:    cres.NodeKillRecoveryMS,
		BreakerRejects:        cres.BreakerRejects,
		ChaosClientRetries:    cres.ClientRetries,
		PlainRestartMS:        wres.PlainRestartMS,
		WarmRestartMS:         wres.WarmRestartMS,
		RestoreEntries:        wres.RestoreEntries,
		RestoreHitRate:        wres.RestoreHitRate,
		UnhedgedP99MS:         hres.UnhedgedP99MS,
		HedgedP99MS:           hres.HedgedP99MS,
		HedgeWinRate:          hedgeWinRate,
	}

	fmt.Println("Service (cryptgend daemon): cold one-shot vs warm long-lived process")
	fmt.Printf("  rule compilation (all 14 rules, parallel):   %10.2f ms\n", res.RuleCompileMS)
	fmt.Printf("  first Generator (builds shared universe):    %10.2f ms\n", res.FirstGeneratorMS)
	fmt.Printf("  subsequent Generator (universe reuse):       %10.4f ms  (%.0fx faster)\n",
		res.SubsequentGeneratorMS, res.GeneratorReuseSpeedup)
	fmt.Printf("  registry reload (recompile + path warm):     %10.2f ms\n", res.ReloadMS)
	fmt.Printf("  cold single-shot (rules+generator+generate): %10.2f ms\n", res.ColdSingleShotMS)
	fmt.Printf("  warm, result cache hit:                      %10.4f ms  (%.0fx speedup)\n", res.WarmCachedMS, res.Speedup)
	fmt.Printf("  warm, cache miss (full pipeline):            %10.2f ms\n", res.WarmUncachedMS)
	fmt.Printf("  warm, cache miss via plan (byte splice):     %10.4f ms  (%.0fx faster than pipeline; %d plan hits, %d misses)\n",
		res.WarmUncachedPlanMS, res.PlanSpeedup, res.PlanHits, res.PlanMisses)
	fmt.Printf("  throughput: %d clients x %d reqs over %d use cases: %.0f req/s (cache hit rate %.1f%%)\n",
		clients, perClient, len(cases), res.ThroughputRPS, 100*res.CacheHitRate)
	fmt.Printf("  batch: %d rounds x %d use cases per request: %.0f items/s\n",
		batchRounds, len(cases), res.BatchItemsPerS)
	fmt.Printf("  coalescing: %d concurrent identical misses -> 1 generation (%d coalesced + %d cache hits)\n",
		coalesceClients, res.Coalesced, res.CoalesceHits)
	fmt.Printf("  resilience: %d worker panics recovered, %d requests shed, %.2f ms to first success after storm\n",
		res.PanicsRecovered, res.ShedTotal, res.ShedRecoveryMS)
	fmt.Printf("  cluster (working set %d keys vs per-node cache %d, %d reqs): 1 node %.0f req/s, 2 nodes %.0f, 4 nodes %.0f (%.1fx vs 1)\n",
		res.ClusterWorkingSet, res.ClusterCacheSize, res.ClusterRequests,
		res.ClusterRPS["1"], res.ClusterRPS["2"], res.ClusterRPS["4"], res.ClusterSpeedup4)
	fmt.Printf("  cluster unrouted 4 nodes (daemon forwarding): %.0f req/s, forward hit rate %.2f\n",
		res.ClusterRPS["4_unrouted"], res.ForwardHitRate)
	for _, key := range []string{"1", "2", "4", "4_unrouted"} {
		fmt.Printf("    per-node cache hit rate [%s]:", key)
		for _, hr := range res.ClusterNodeHitRates[key] {
			fmt.Printf(" %.2f", hr)
		}
		fmt.Println()
	}
	fmt.Printf("  chaos (kill 1 of 3 under load, probe %.0fms): %d reqs %d lost; p99 steady %.2fms -> failover %.2fms; recovery %.1fms; %d retries, %d breaker rejects\n",
		res.ChaosProbeIntervalMS, res.ChaosRequests, cres.Errors, res.SteadyP99MS, res.FailoverP99MS,
		res.NodeKillRecoveryMS, res.ChaosClientRetries, res.BreakerRejects)
	fmt.Printf("  warm restart (crash 1 of 3, snapshot restore): %.1fms vs plain %.1fms; %d entries restored, first-window hit rate %.2f; corrupt snapshot -> clean cold start: %v\n",
		res.WarmRestartMS, res.PlainRestartMS, res.RestoreEntries, res.RestoreHitRate, wres.CorruptColdStart)
	fmt.Printf("  hedging (300ms slow node): p99 unhedged %.2fms -> hedged %.2fms, win rate %.2f\n",
		res.UnhedgedP99MS, res.HedgedP99MS, res.HedgeWinRate)
	if res.ClusterSpeedup4 < 2 && !smoke {
		fmt.Printf("  WARNING: 4-node cluster speedup %.2fx < 2x target\n", res.ClusterSpeedup4)
	}
	if jsonPath != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  wrote %s\n", jsonPath)
	}

	// Cold-start regression gate (scripts/verify.sh runs this via
	// `-table service -smoke`): if building a second Generator costs 10%
	// or more of building the first, the shared universe is no longer
	// being reused and every service worker is back to paying the ~1s
	// type-check tax.
	if gate && subsequentGenMS >= 0.10*firstGenMS {
		log.Fatalf("cold-start gate: subsequent Generator construction %.2fms >= 10%% of first %.2fms — shared type-check universe is not being reused",
			subsequentGenMS, firstGenMS)
	}
	// Plan-path gate (E12 acceptance): every warm-uncached request over a
	// resident plan must be served by it, and must cost at most 1/50 of a
	// full-pipeline miss. If either fails, the byte-splice fast path has
	// stopped engaging (requests are falling through to the full pipeline
	// again). The time bound is relative to the pipeline, not to a
	// result-cache hit: hits serve a memoized body and no longer share
	// the plan path's key, flight and cache-insert work.
	if gate && (planServed != int64(planRuns) || planMS*50 > uncachedMS) {
		log.Fatalf("plan gate: %d of %d warm-uncached requests plan-served, %.4fms each vs %.4fms through the pipeline — the plan fast path is not serving warm misses",
			planServed, planRuns, planMS, uncachedMS)
	}
	if err := errors.Join(cres.Check(), wres.Check(), hres.Check()); err != nil {
		log.Fatal(err)
	}
}

// baseline generation sanity (referenced by -table all consumers that want
// to confirm the old-gen pipeline is alive).
var _ = oldgen.UseCases
