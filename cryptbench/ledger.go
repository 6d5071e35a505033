package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"time"

	"cognicryptgen/analysis"
	"cognicryptgen/client"
	"cognicryptgen/gen"
	"cognicryptgen/internal/clustertest"
	"cognicryptgen/internal/srccheck"
	"cognicryptgen/rules"
	"cognicryptgen/service"
	"cognicryptgen/templates"
	"cognicryptgen/wire"
)

// layer is one per-layer metric of the traced run, with the end-to-end
// metric and workload a change to it should move.
type layer struct {
	name, unit, better, moves string
}

// classes are the three serving paths the ledger drives down each layer.
var classes = []string{"hit", "plan", "pipeline"}

// layers lists every per-layer metric in the order BENCHMARK.json names
// them.
var layers = func() []layer {
	// Where a change to one serving-path class shows end to end.
	classMoves := map[string]string{
		"hit":      "cpu_ms_per_req and throughput_rps on repeat-hot; no change on fresh-template",
		"plan":     "p50_ms on rename-mix",
		"pipeline": "throughput_rps and p50_ms on fresh-template",
	}
	classWorkload := map[string]string{"hit": "repeat-hot", "plan": "rename-mix", "pipeline": "fresh-template"}
	var out []layer
	for _, c := range classes {
		moves := classMoves[c]
		out = append(out,
			layer{"client.generate_us." + c, "us", "lower", moves},
			layer{"http.roundtrip_us." + c, "us", "lower", moves},
			layer{"service.handler_us." + c, "us", "lower", moves},
			layer{"service.generate_us." + c, "us", "lower", moves},
			layer{"client.self_us." + c, "us", "lower", "p50_ms (not cpu_ms_per_req) on " + classWorkload[c]},
			layer{"http.self_us." + c, "us", "lower", moves},
			layer{"service.handler_self_us." + c, "us", "lower", moves},
			layer{"service.generate_allocs." + c, "count", "lower", moves},
			layer{"service.generate_bytes." + c, "B", "lower", moves},
			layer{"service.handler_allocs." + c, "count", "lower", moves},
			layer{"service.handler_bytes." + c, "B", "lower", moves},
			layer{"client.generate_allocs." + c, "count", "lower", moves},
			layer{"client.generate_bytes." + c, "B", "lower", moves},
		)
	}
	return append(out,
		layer{"wire.cache_key_us", "us", "lower", "cpu_ms_per_req on repeat-hot"},
		layer{"templates.source_us", "us", "lower", "cpu_ms_per_req on repeat-hot"},
		layer{"gen.plan_execute_us", "us", "lower", "p50_ms on rename-mix"},
		layer{"gen.pipeline_ms", "ms", "lower", "throughput_rps, p50_ms, latency.p90_ms on fresh-template; no change on repeat-hot"},
		layer{"gen.pipeline_noverify_ms", "ms", "lower", "throughput_rps on fresh-template"},
		layer{"srccheck.check_template_ms", "ms", "lower", "throughput_rps, p50_ms, latency.p90_ms on fresh-template"},
		layer{"srccheck.check_output_ms", "ms", "lower", "throughput_rps, p50_ms, latency.p90_ms on fresh-template"},
		layer{"gen.synthesis_ms", "ms", "lower", "throughput_rps, p50_ms, latency.p90_ms on fresh-template"},
		layer{"analysis.analyze_ms", "ms", "lower", "p50_ms on rename-mix"},
		layer{"analysis.findings_negative", "count", "higher", "error_rate on rename-mix (must stay > 0)"},
		layer{"crysl.compile_ms", "ms", "lower", "latency.p90_ms on rename-mix; setup_s"},
		layer{"service.reload_ms", "ms", "lower", "latency.p90_ms on rename-mix"},
		layer{"srccheck.first_checker_ms", "ms", "lower", "setup_s on all workloads"},
		layer{"runtime.live_heap_mb", "MiB", "lower", "cpu_ms_per_req on repeat-hot; rss_mb on all workloads"},
		layer{"runtime.heap_objects", "count", "lower", "cpu_ms_per_req on repeat-hot"},
		layer{"runtime.gc_cpu_fraction", "ratio", "lower", "cpu_ms_per_req on repeat-hot"},
		layer{"service.cache_hit_rate", "ratio", "higher", "throughput_rps on repeat-hot"},
		layer{"service.plan_hit_rate", "ratio", "higher", "throughput_rps on rename-mix"},
		layer{"service.served_without_pipeline", "ratio", "higher", "throughput_rps on rename-mix and repeat-hot"},
		layer{"service.pipeline_runs", "count", "lower", "throughput_rps on rename-mix and repeat-hot"},
		layer{"service.coalesced", "count", "higher", "latency.p90_ms on fresh-template"},
		layer{"service.shed_total", "count", "lower", "error_rate and latency.p90_ms on fresh-template"},
		layer{"service.queue_depth_max", "count", "lower", "latency.p90_ms on fresh-template"},
		layer{"service.queue_waiters_max", "count", "lower", "latency.p90_ms and error_rate on fresh-template"},
		layer{"service.forward_us.hit", "us", "lower", "informational: no workload runs a cluster"},
		layer{"loadgen.late_ms_p99", "ms", "lower", "validity of p50_ms and latency.p90_ms on every workload"},
		layer{"latency.p90_ms", "ms", "lower", "the latency tail on every workload (open loop, median of rounds; too noisy on a shared 2-vCPU host to gate)"},
		layer{"latency.p99_ms", "ms", "lower", "the latency tail on every workload (open loop, median of rounds; too noisy on a shared 2-vCPU host to gate)"},
		layer{"daemon.peak_rss_mb", "MiB", "lower", "setup_s and rss_mb on every workload (peak is set by the boot-time universe build)"},
		layer{"loadgen.error_rate", "ratio", "lower", "failed/attempted on every workload"},
		layer{"loadgen.closed.sent", "count", "higher", "throughput_rps"},
		layer{"loadgen.closed.succeeded", "count", "higher", "throughput_rps"},
		layer{"loadgen.closed.failed", "count", "lower", "error_rate"},
		layer{"loadgen.open.sent", "count", "higher", "fixed by the workload's rate"},
		layer{"loadgen.open.succeeded", "count", "higher", "error_rate"},
		layer{"loadgen.open.failed", "count", "lower", "error_rate"},
		layer{"traced.p50_ms", "ms", "lower", "p50_ms of the workload, with client-side spans on"},
		layer{"traced.overhead_p50_ms", "ms", "lower", "none: tracing cost, traced minus untraced p50_ms"},
		layer{"traced.client_self_us", "us", "lower", "p50_ms of the workload"},
		layer{"traced.roundtrip_us", "us", "lower", "p50_ms of the workload"},
	)
}()

// uniq makes request names and bodies no earlier ledger call used.
var uniq atomic.Int64

// classRequest returns the next request of a serving-path class, all on
// use case 3 (PBE on byte arrays): a repeated request (result-cache hit),
// the known body under a new name (plan splice), or a new body (full
// pipeline with verification).
func classRequest(class string) wire.GenerateRequest {
	n := uniq.Add(1)
	switch class {
	case "hit":
		return wire.GenerateRequest{UseCase: 3}
	case "plan":
		return wire.GenerateRequest{Name: fmt.Sprintf("ledger_%d.go", n), Source: templateSources[2]}
	default:
		return freshOp(2, fmt.Sprintf("L%d", n)).gen
	}
}

func classCount(class string) int {
	if class == "pipeline" {
		return 40
	}
	return 400
}

// allocsPer runs fn n times and returns the process's heap allocations and
// bytes per call.
func allocsPer(n int, fn func(i int) error) (allocs, bytes float64, err error) {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n), nil
}

// tracedPhase runs against the real daemon, after the untraced window: an
// open loop with client-side spans (client call and HTTP round trip) for
// the tracing overhead and the workload's client self time, then the
// client's allocations per serving-path class.
func tracedPhase(ctx context.Context, cfg config, d *daemon, src opSource, rr *recorder, untracedP50 float64, tr *tracer, ledger map[string]metric) error {
	tsdk, err := newSDK(d.url, cfg.nproc, func(b http.RoundTripper) http.RoundTripper { return roundTripper{t: tr, base: b} })
	if err != nil {
		return err
	}
	defer tsdk.Close()
	plain := rr.sdk
	rr.sdk = tsdk
	defer func() { rr.sdk = plain }()
	first := tr.ids.Load()
	openDur := time.Duration(cfg.seconds) * time.Second * 3 / 10
	traced := runPhase(ctx, cfg.workload, tsdk, false, cfg.nproc, openDur, src, func(ctx context.Context, o op) error {
		return tr.call(ctx, "client.call", func(ctx context.Context) error { return rr.run(ctx, o) })
	})
	if traced.failedOps > 0 {
		return fmt.Errorf("traced phase: %d failed: %v", traced.failedOps, traced.firstErr)
	}
	reqs := tr.requestsSince(first)
	durs, selfs := tr.selfTimes(reqs)
	tp50 := quantile(traced.lats, 0.5)
	ledger["traced.p50_ms"] = metric{tp50, "ms"}
	ledger["traced.overhead_p50_ms"] = metric{tp50 - untracedP50, "ms"}
	ledger["traced.client_self_us"] = metric{us(medianDur(selfs["client.call"])), "us"}
	ledger["traced.roundtrip_us"] = metric{us(medianDur(durs["http.roundtrip"])), "us"}

	for _, c := range classes {
		if _, err := plain.Generate(ctx, classRequest("hit")); err != nil {
			return err
		}
		allocN, byteN, err := allocsPer(classCount(c), func(int) error {
			_, err := plain.Generate(ctx, classRequest(c))
			return err
		})
		if err != nil {
			return fmt.Errorf("client allocations, %s: %w", c, err)
		}
		ledger["client.generate_allocs."+c] = metric{allocN, "count"}
		ledger["client.generate_bytes."+c] = metric{byteN, "B"}
	}
	return nil
}

// inProcessLedger times each layer's public functions in this process:
// the SDK against an httptest server whose handler is wrapped in span
// middleware, Server.Generate and the handler called directly, and the
// gen, srccheck, analysis, crysl/rules, wire and templates calls beneath.
func inProcessLedger(ctx context.Context, cfg config, tr *tracer, ledger map[string]metric) error {
	add := func(name, unit string, v float64) { ledger[name] = metric{v, unit} }
	srv, err := service.New(service.Config{Dir: cfg.root})
	if err != nil {
		return err
	}
	defer srv.Close()
	if err := waitWarm(srv); err != nil {
		return err
	}
	ts := httptest.NewServer(tr.middleware(srv.Handler()))
	defer ts.Close()
	sdk, err := newSDK(ts.URL, cfg.nproc, func(b http.RoundTripper) http.RoundTripper { return roundTripper{t: tr, base: b} })
	if err != nil {
		return err
	}
	defer sdk.Close()
	handler := srv.Handler()

	for _, c := range classes {
		if _, err := srv.Generate(ctx, classRequest("hit")); err != nil {
			return err
		}
		// Through every layer, one request at a time.
		first := tr.ids.Load()
		for i := 0; i < classCount(c); i++ {
			if err := tr.call(ctx, "client.generate", func(ctx context.Context) error {
				_, err := sdk.Generate(ctx, classRequest(c))
				return err
			}); err != nil {
				return fmt.Errorf("ledger %s via SDK: %w", c, err)
			}
		}
		durs, selfs := tr.selfTimes(tr.requestsSince(first))
		add("client.generate_us."+c, "us", us(medianDur(durs["client.generate"])))
		add("client.self_us."+c, "us", us(medianDur(selfs["client.generate"])))
		add("http.roundtrip_us."+c, "us", us(medianDur(durs["http.roundtrip"])))
		add("http.self_us."+c, "us", us(medianDur(selfs["http.roundtrip"])))
		handlerUS := us(medianDur(durs["service.handler"]))
		add("service.handler_us."+c, "us", handlerUS)

		// Server.Generate in-process: allocations without tracing, then
		// the timed calls.
		allocN, byteN, err := allocsPer(classCount(c), func(int) error {
			_, err := srv.Generate(ctx, classRequest(c))
			return err
		})
		if err != nil {
			return fmt.Errorf("ledger %s via Server.Generate: %w", c, err)
		}
		add("service.generate_allocs."+c, "count", allocN)
		add("service.generate_bytes."+c, "B", byteN)
		first = tr.ids.Load()
		for i := 0; i < classCount(c); i++ {
			if err := tr.call(ctx, "service.generate", func(ctx context.Context) error {
				_, err := srv.Generate(ctx, classRequest(c))
				return err
			}); err != nil {
				return fmt.Errorf("ledger %s via Server.Generate: %w", c, err)
			}
		}
		durs, _ = tr.selfTimes(tr.requestsSince(first))
		genUS := us(medianDur(durs["service.generate"]))
		add("service.generate_us."+c, "us", genUS)
		// The handler spans wrap Server.Generate without a span of their
		// own, so the handler's self time comes by subtraction.
		add("service.handler_self_us."+c, "us", handlerUS-genUS)

		// The handler alone, on a recorder: request bodies are built first
		// so their allocations are not counted.
		n := classCount(c)
		httpReqs := make([]*http.Request, n)
		for i := range httpReqs {
			body, err := json.Marshal(classRequest(c))
			if err != nil {
				return err
			}
			httpReqs[i] = httptest.NewRequest(http.MethodPost, "/v1/generate", bytes.NewReader(body))
		}
		allocN, byteN, err = allocsPer(n, func(i int) error {
			rw := httptest.NewRecorder()
			handler.ServeHTTP(rw, httpReqs[i])
			if rw.Code != http.StatusOK {
				return fmt.Errorf("handler: status %d: %s", rw.Code, rw.Body)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("ledger %s via handler: %w", c, err)
		}
		add("service.handler_allocs."+c, "count", allocN)
		add("service.handler_bytes."+c, "B", byteN)
	}

	// Reload on the in-process server.
	var reloads []time.Duration
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := srv.ReloadRules(); err != nil {
			return err
		}
		reloads = append(reloads, time.Since(start))
	}
	add("service.reload_ms", "ms", ms(medianDur(reloads)))

	if err := genLedger(cfg.root, add); err != nil {
		return err
	}
	fwd, err := forwardCost(ctx, cfg.root)
	if err != nil {
		return err
	}
	add("service.forward_us.hit", "us", fwd)

	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	add("runtime.live_heap_mb", "MiB", float64(m.HeapAlloc)/(1<<20))
	add("runtime.heap_objects", "count", float64(m.HeapObjects))
	add("runtime.gc_cpu_fraction", "ratio", m.GCCPUFraction)
	return nil
}

// waitWarm waits until an in-process server has compiled a plan for every
// embedded template.
func waitWarm(srv *service.Server) error {
	deadline := time.Now().Add(60 * time.Second)
	for srv.MetricsSnapshot().PlanEntries < len(allTemplates) {
		if time.Now().After(deadline) {
			return fmt.Errorf("in-process server not warm after 60s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// genLedger times the calls beneath the service: the pipeline with and
// without output verification, its two type-checks, a plan splice, the
// cache key, the template lookup, analysis and rule compilation.
func genLedger(root string, add func(name, unit string, v float64)) error {
	ruleSet, err := rules.Load()
	if err != nil {
		return err
	}
	paths := gen.NewPathCache()
	base, err := gen.New(ruleSet, root, gen.Options{Paths: paths})
	if err != nil {
		return err
	}
	checker, err := srccheck.NewChecker(root)
	if err != nil {
		return err
	}
	// Three new bodies per template, for each of the four timings.
	var pipe, noVerify, checkTmpl, checkOut []time.Duration
	outputs := make([]string, len(allTemplates))
	for i := 0; i < 3*len(allTemplates); i++ {
		t := i % len(allTemplates)
		name := allTemplates[t].File
		body := freshOp(t, fmt.Sprintf("G%d", uniq.Add(1))).gen.Source
		start := time.Now()
		res, err := base.WithOptions(gen.Options{Paths: paths, Verify: true}).GenerateFile(name, body)
		if err != nil {
			return err
		}
		pipe = append(pipe, time.Since(start))
		outputs[t] = res.Output

		start = time.Now()
		if _, _, _, err := checker.CheckSource(name, body); err != nil {
			return err
		}
		checkTmpl = append(checkTmpl, time.Since(start))
		start = time.Now()
		if _, _, _, err := checker.CheckSource("generated_"+name, res.Output); err != nil {
			return err
		}
		checkOut = append(checkOut, time.Since(start))

		body = freshOp(t, fmt.Sprintf("G%d", uniq.Add(1))).gen.Source
		start = time.Now()
		if _, err := base.WithOptions(gen.Options{Paths: paths}).GenerateFile(name, body); err != nil {
			return err
		}
		noVerify = append(noVerify, time.Since(start))
	}
	pipeMS := ms(medianDur(pipe))
	add("gen.pipeline_ms", "ms", pipeMS)
	add("gen.pipeline_noverify_ms", "ms", ms(medianDur(noVerify)))
	add("srccheck.check_template_ms", "ms", ms(medianDur(checkTmpl)))
	add("srccheck.check_output_ms", "ms", ms(medianDur(checkOut)))
	add("gen.synthesis_ms", "ms", pipeMS-ms(medianDur(checkTmpl))-ms(medianDur(checkOut)))

	// A plan splice: compile the 13 plans, then execute them under new names.
	plans := gen.NewPlanCache(0)
	pg := base.WithOptions(gen.Options{Paths: paths, Plans: plans})
	for t, uc := range allTemplates {
		if _, err := pg.GenerateFile(uc.File, templateSources[t]); err != nil {
			return err
		}
	}
	fp := plans.FingerprintFor(ruleSet)
	names := make([]string, 2000)
	for i := range names {
		names[i] = fmt.Sprintf("splice_%d.go", i)
	}
	add("gen.plan_execute_us", "us", perCallUS(200, 10, func(i int) {
		if _, ok := plans.Execute(fp, names[i%len(names)], templateSources[i%len(allTemplates)], gen.Options{}); !ok {
			panic("plan cache lost a resident plan")
		}
	}))
	add("wire.cache_key_us", "us", perCallUS(200, 13, func(i int) {
		wire.CacheKey(fp, allTemplates[i%13].File, templateSources[i%13], "", false)
	}))
	add("templates.source_us", "us", perCallUS(200, 13, func(i int) {
		if _, err := templates.Source(allTemplates[i%13]); err != nil {
			panic(err)
		}
	}))

	an, err := analysis.New(ruleSet, root, analysis.Options{})
	if err != nil {
		return err
	}
	var analyses []time.Duration
	for round := 0; round < 2; round++ {
		for t, out := range outputs {
			start := time.Now()
			rep, err := an.AnalyzeSource("generated_"+allTemplates[t].File, out)
			if err != nil {
				return err
			}
			analyses = append(analyses, time.Since(start))
			if rep.HasFindings() {
				return fmt.Errorf("generated %s has findings: %v", allTemplates[t].File, rep.Findings)
			}
		}
	}
	add("analysis.analyze_ms", "ms", ms(medianDur(analyses)))
	findings := 0
	for _, neg := range misuses {
		rep, err := an.AnalyzeSource(neg.name, neg.src)
		if err != nil {
			return err
		}
		findings += len(rep.Findings)
	}
	add("analysis.findings_negative", "count", float64(findings))

	var compiles []time.Duration
	for i := 0; i < 7; i++ {
		start := time.Now()
		if _, err := rules.LoadFresh(); err != nil {
			return err
		}
		compiles = append(compiles, time.Since(start))
	}
	add("crysl.compile_ms", "ms", ms(medianDur(compiles)))
	return nil
}

// perCallUS times batches of `per` calls and returns the median batch's
// time per call in microseconds: single calls this small are too close to
// the clock's own cost to time one by one.
func perCallUS(batches, per int, fn func(i int)) float64 {
	times := make([]time.Duration, batches)
	k := 0
	for b := range times {
		start := time.Now()
		for j := 0; j < per; j++ {
			fn(k)
			k++
		}
		times[b] = time.Since(start) / time.Duration(per)
	}
	return us(medianDur(times))
}

// forwardCost is the median extra latency of a result-cache hit served
// through a peer forward over one served locally, on a 2-node in-process
// cluster behind an unrouted SDK.
func forwardCost(ctx context.Context, root string) (float64, error) {
	cl, err := clustertest.Start(2, service.Config{Dir: root, PeerProbeInterval: 250 * time.Millisecond})
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	for _, n := range cl.Nodes {
		if err := waitWarm(n.Srv); err != nil {
			return 0, err
		}
	}
	sdk, err := client.New(client.Config{Nodes: cl.URLs(), DisableRouting: true, MaxRetries: -1, ProbeInterval: -1})
	if err != nil {
		return 0, err
	}
	defer sdk.Close()
	req := wire.GenerateRequest{UseCase: 3}
	var local, forwarded []time.Duration
	for i := 0; i < 402; i++ {
		start := time.Now()
		resp, err := sdk.Generate(ctx, req)
		if err != nil {
			return 0, err
		}
		if i < 2 { // one pass over both nodes fills the owner's cache
			continue
		}
		if resp.Forwarded {
			forwarded = append(forwarded, time.Since(start))
		} else {
			local = append(local, time.Since(start))
		}
	}
	if len(local) == 0 || len(forwarded) == 0 {
		return 0, fmt.Errorf("cluster: %d local and %d forwarded hits, want both", len(local), len(forwarded))
	}
	return us(medianDur(forwarded)) - us(medianDur(local)), nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}
