// Command cryptbench is the repository's benchmark: it drives a real
// cryptgend process over loopback HTTP through the client SDK with one of
// three traffic mixes, checks every output against the in-process
// generator, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer ledger) as one JSON line.
//
// Run it from the repository root through run.sh, which builds the daemon
// and this driver first:
//
//	bash cryptbench/run.sh --workload repeat-hot --seed 1 --seconds 20 --trace 0
//
// A run boots the daemon several times to time set-up, keeps the last
// process, warms it, then measures a closed loop (throughput, daemon CPU
// per request) and an open loop at the workload's fixed rate (latency
// from each request's scheduled send time). Counter diffs from /metrics
// prove the workload took the serving path it exists for; a failed
// self-check or an output mismatch makes the exit status 1.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// config is one run's command line.
type config struct {
	workload *workload
	seed     uint64
	seconds  int
	trace    bool
	daemon   string // cryptgend binary
	root     string // module root the daemon serves
	out      string // directory for logs, run records and spans
	nproc    int
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

const (
	// boots is how many daemon processes a run starts to time set-up.
	boots = 3
	// maxRounds bounds the closed+open rounds of a timed window.
	maxRounds = 5
)

// endToEndUnits gives each end-to-end metric's unit.
var endToEndUnits = map[string]string{
	"setup_s":        "s",
	"throughput_rps": "1/s",
	"p50_ms":         "ms",
	"cpu_ms_per_req": "ms",
	"rss_mb":         "MiB",
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg config
	var name string
	var trace int
	flag.StringVar(&name, "workload", "", "workload: repeat-hot, fresh-template or rename-mix")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measured seconds (closed plus open loop)")
	flag.IntVar(&trace, "trace", 0, "1 = report the per-layer ledger instead of the end-to-end metrics")
	flag.StringVar(&cfg.daemon, "daemon", "", "cryptgend binary")
	flag.StringVar(&cfg.root, "module", ".", "module root the daemon serves")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for logs, run records and spans")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.nproc = runtime.NumCPU()
	w, err := workloadByName(name)
	if err != nil || cfg.daemon == "" || cfg.seconds < 1 {
		fmt.Fprintf(os.Stderr, "cryptbench: need -workload (one of repeat-hot, fresh-template, rename-mix), -daemon and -seconds >= 1 (%v)\n", err)
		return 2
	}
	cfg.workload = w
	if cfg.root, err = filepath.Abs(cfg.root); err != nil {
		fmt.Fprintln(os.Stderr, "cryptbench:", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rec := runRecord{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Nproc: cfg.nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(cfg.root), OpenRate: w.rate,
	}
	fmt.Fprintf(os.Stderr, "cryptbench: workload %s seed %d, %ds, trace %t; nproc %d, GOMAXPROCS %d, %s, commit %s\n",
		w.name, cfg.seed, cfg.seconds, cfg.trace, rec.Nproc, rec.GOMAXPROCS, rec.GoVersion, rec.Commit)

	res, err := measure(ctx, cfg, &rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cryptbench:", err)
		return 1
	}
	rec.Result = res
	if data, err := json.MarshalIndent(rec, "", "  "); err == nil {
		path := filepath.Join(cfg.out, fmt.Sprintf("run-%s-seed%d-trace%d.json", w.name, cfg.seed, trace))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "cryptbench: run record:", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cryptbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runRecord is everything one run measured and where, written next to the
// spans for later comparison.
type runRecord struct {
	Workload   string               `json:"workload"`
	Seed       uint64               `json:"seed"`
	Seconds    int                  `json:"seconds"`
	Trace      bool                 `json:"trace"`
	Nproc      int                  `json:"nproc"`
	GOMAXPROCS int                  `json:"gomaxprocs"`
	GoVersion  string               `json:"go_version"`
	Commit     string               `json:"commit"`
	OpenRate   float64              `json:"open_rate_rps"`
	Phases     []phaseRecord        `json:"phases"`
	Rounds     []map[string]float64 `json:"rounds"`
	Extra      map[string]float64   `json:"extra"`
	Result     *result              `json:"result"`
}

type phaseRecord struct {
	Name          string  `json:"name"`
	Sent          int64   `json:"sent"`
	Succeeded     int64   `json:"succeeded"`
	Failed        int64   `json:"failed"`
	Reloads       int64   `json:"reloads"`
	ReloadsFailed int64   `json:"reloads_failed"`
	Seconds       float64 `json:"seconds"`
}

// commit names the code under test: the git commit when the checkout is a
// repository, otherwise a digest of its Go sources.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".crysl") || d.Name() == "go.mod") {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			fmt.Fprintf(h, "%s\x00", strings.TrimPrefix(path, root))
			_, err = io.Copy(h, f)
			return err
		}
		return nil
	})
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// measure runs the workload against a fresh daemon and returns the result
// line (end-to-end metrics, or the per-layer ledger when tracing).
func measure(ctx context.Context, cfg config, rec *runRecord) (*result, error) {
	w := cfg.workload
	logf, err := os.Create(filepath.Join(cfg.out, "cryptgend.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()

	// Set-up: boot the daemon `boots` times, one after another, and keep
	// the last process for the load.
	var setups []float64
	var d *daemon
	for i := 0; i < boots; i++ {
		if d != nil {
			d.stop()
		}
		if d, err = startDaemon(cfg.daemon, cfg.root, logf); err != nil {
			return nil, err
		}
		setups = append(setups, d.setup.Seconds())
	}
	defer d.stop()
	readyHWM, err := d.memMB("VmHWM")
	if err != nil {
		return nil, err
	}

	sdk, err := newSDK(d.url, cfg.nproc, nil)
	if err != nil {
		return nil, err
	}
	defer sdk.Close()
	rr := newRecorder(sdk, d.fingerprint)
	src := w.source(cfg.seed)
	for _, o := range src.warmup() {
		if err := rr.run(ctx, o); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	if p := closedLoop(ctx, cfg.nproc, 500*time.Millisecond, src, rr.run); p.firstErr != nil {
		return nil, fmt.Errorf("warm-up: %w", p.firstErr)
	}

	// Timed window: rounds of a closed loop then an open loop. Each timed
	// metric is the median over rounds, so a few seconds of interference from
	// outside the benchmark move one round, not the result.
	rounds := max(1, min(maxRounds, cfg.seconds/4))
	closedDur := time.Duration(cfg.seconds) * time.Second * 2 / 5 / time.Duration(rounds)
	openDur := time.Duration(cfg.seconds) * time.Second * 3 / 5 / time.Duration(rounds)
	m0, err := d.metrics()
	if err != nil {
		return nil, err
	}
	q := d.sampleQueue(ctx)
	closed, open := &phase{name: "closed"}, &phase{name: "open"}
	var rps, cpuPerReq, p50s, p90s, p99s []float64
	for r := 0; r < rounds; r++ {
		cpu0, err := d.cpuTime()
		if err != nil {
			return nil, err
		}
		c := runPhase(ctx, w, sdk, true, cfg.nproc, closedDur, src, rr.run)
		cpu1, err := d.cpuTime()
		if err != nil {
			return nil, err
		}
		o := runPhase(ctx, w, sdk, false, cfg.nproc, openDur, src, rr.run)
		rps = append(rps, float64(c.succeeded)/c.elapsed.Seconds())
		cpuPerReq = append(cpuPerReq, float64(cpu1-cpu0)/float64(time.Millisecond)/float64(max(c.succeeded, 1)))
		p50s = append(p50s, quantile(o.lats, 0.50))
		p90s = append(p90s, quantile(o.lats, 0.90))
		p99s = append(p99s, quantile(o.lats, 0.99))
		rec.Rounds = append(rec.Rounds, map[string]float64{"throughput_rps": rps[r], "cpu_ms_per_req": cpuPerReq[r], "p50_ms": p50s[r], "p90_ms": p90s[r], "p99_ms": p99s[r]})
		if m, err := d.metrics(); err == nil {
			rec.Rounds[r]["daemon_p99_ms"] = m.LatencyP99MS
			rec.Rounds[r]["daemon_p50_ms"] = m.LatencyP50MS
		}
		closed.merge(c)
		open.merge(o)
	}
	q.finish()
	m1, err := d.metrics()
	if err != nil {
		return nil, err
	}
	peakRSS, err := d.memMB("VmHWM")
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	counters := diffMetrics(m0, m1)
	selfErr := w.selfCheck(counters, rr)

	e2e := map[string]metric{}
	for name, v := range map[string]float64{
		"setup_s":        median(setups),
		"throughput_rps": median(rps),
		"p50_ms":         median(p50s),
		"cpu_ms_per_req": median(cpuPerReq),
		"rss_mb":         median(q.rss),
	} {
		e2e[name] = metric{v, endToEndUnits[name]}
	}
	res := &result{Metrics: map[string]metric{}}
	var ledger map[string]metric
	var tr *tracer
	if cfg.trace {
		ledger, tr = map[string]metric{}, newTracer()
		if err := tracedPhase(ctx, cfg, d, src, rr, e2e["p50_ms"].Value, tr, ledger); err != nil {
			return nil, err
		}
	}
	d.stop()

	checkStart := time.Now()
	mismatches, checkErr := checkOutputs(cfg.root, rr.outputs, rr.samples, cfg.nproc, ledger)
	checkDur := time.Since(checkStart)
	if cfg.trace {
		if err := inProcessLedger(ctx, cfg, tr, ledger); err != nil {
			return nil, err
		}
		if err := tr.write(filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, cfg.seed))); err != nil {
			return nil, err
		}
	}

	var attempted, failedN int64
	for _, p := range []*phase{closed, open} {
		rec.Phases = append(rec.Phases, phaseRecord{Name: p.name, Sent: p.sent, Succeeded: p.succeeded, Failed: p.failedOps,
			Reloads: p.reloads, ReloadsFailed: p.reloadsFailed, Seconds: p.elapsed.Seconds()})
		attempted += p.sent + p.reloads
		failedN += p.failedOps + p.reloadsFailed
	}
	failedN += mismatches
	res.Attempted, res.Failed = attempted, failedN
	res.Correct = selfErr == nil && checkErr == nil && mismatches == 0 && rr.mismatches == 0

	errorRate := float64(failedN) / float64(max(attempted, 1))
	lateP99 := quantile(open.late, 0.99)

	// The human-readable report goes to stderr; stdout's last line is the
	// result.
	report := func(name, unit, how string) {
		fmt.Fprintf(os.Stderr, "  %-16s %12.4f %-4s %s\n", name, e2e[name].Value, unit, how)
	}
	report("setup_s", "s", fmt.Sprintf("(median of %d boots)", len(setups)))
	report("throughput_rps", "1/s", fmt.Sprintf("(closed loop, %d clients; median of %d rounds, n=%d)", cfg.nproc, rounds, closed.succeeded))
	report("p50_ms", "ms", fmt.Sprintf("(open loop at %.0f/s; median of %d rounds, n=%d)", w.rate, rounds, len(open.lats)))
	p90, p99 := median(p90s), median(p99s)
	for _, t := range []struct {
		name string
		v    float64
	}{{"p90_ms", p90}, {"p99_ms", p99}} {
		fmt.Fprintf(os.Stderr, "  %-16s %12.4f ms   (open loop at %.0f/s; median of %d rounds, n=%d; not gated, see README)\n", t.name, t.v, w.rate, rounds, len(open.lats))
	}
	fmt.Fprintf(os.Stderr, "  %-16s %12.6f      (%d failed of %d attempted, both phases and the output check)\n", "error_rate", errorRate, failedN, attempted)
	report("cpu_ms_per_req", "ms", fmt.Sprintf("(daemon user+sys CPU over the closed loop; median of %d rounds, n=%d)", rounds, closed.succeeded))
	report("rss_mb", "MiB", fmt.Sprintf("(daemon VmRSS under load; median of %d samples at 10 Hz; peak VmHWM %.1f MiB)", len(q.rss), peakRSS))
	fmt.Fprintf(os.Stderr, "  loadgen.late_ms_p99 %.4f ms; counters: %+v; queue max depth %d waiters %d; output check %.1fs over %d distinct requests\n",
		lateP99, counters, q.depthMax, q.waitersMax, checkDur.Seconds(), len(rr.outputs))
	for _, p := range []*phase{closed, open} {
		fmt.Fprintf(os.Stderr, "  phase %-6s sent %d succeeded %d failed %d; reloads %d (failed %d)\n", p.name, p.sent, p.succeeded, p.failedOps, p.reloads, p.reloadsFailed)
		if p.firstErr != nil {
			fmt.Fprintf(os.Stderr, "    first error: %v\n", p.firstErr)
		}
	}
	if selfErr != nil {
		fmt.Fprintln(os.Stderr, "  SELF-CHECK FAILED:", selfErr)
	}
	if checkErr != nil || mismatches > 0 || rr.mismatches > 0 {
		fmt.Fprintf(os.Stderr, "  OUTPUT CHECK FAILED: %d mismatches after the window, %d during it: %v\n", mismatches, rr.mismatches, checkErr)
	}

	rec.Extra = map[string]float64{
		"error_rate": errorRate, "loadgen.late_ms_p99": lateP99,
		"service.queue_depth_max": float64(q.depthMax), "service.queue_waiters_max": float64(q.waitersMax),
		"daemon.peak_rss_mb": peakRSS, "daemon.ready_peak_rss_mb": readyHWM,
	}
	for k, v := range e2e {
		rec.Extra[k] = v.Value
	}
	if !cfg.trace {
		res.Metrics = e2e
		return res, nil
	}
	add := func(name, unit string, v float64) { ledger[name] = metric{v, unit} }
	gens := max(counters.generates, 1)
	add("service.cache_hit_rate", "ratio", float64(counters.hits)/float64(gens))
	add("service.plan_hit_rate", "ratio", float64(counters.planServed())/float64(max(counters.local, 1)))
	add("service.served_without_pipeline", "ratio", float64(counters.generates-counters.pipelineRuns())/float64(gens))
	add("service.pipeline_runs", "count", float64(counters.pipelineRuns()))
	add("service.coalesced", "count", float64(counters.coalesced))
	add("service.shed_total", "count", float64(counters.shed))
	add("service.queue_depth_max", "count", float64(q.depthMax))
	add("service.queue_waiters_max", "count", float64(q.waitersMax))
	add("loadgen.late_ms_p99", "ms", lateP99)
	add("latency.p90_ms", "ms", p90)
	add("latency.p99_ms", "ms", p99)
	add("daemon.peak_rss_mb", "MiB", peakRSS)
	add("loadgen.error_rate", "ratio", errorRate)
	for _, p := range []*phase{closed, open} {
		add("loadgen."+p.name+".sent", "count", float64(p.sent))
		add("loadgen."+p.name+".succeeded", "count", float64(p.succeeded))
		add("loadgen."+p.name+".failed", "count", float64(p.failedOps))
	}
	for _, l := range layers {
		m, ok := ledger[l.name]
		if !ok {
			return nil, fmt.Errorf("ledger has no %s", l.name)
		}
		if m.Unit != l.unit {
			return nil, fmt.Errorf("ledger %s has unit %s, want %s", l.name, m.Unit, l.unit)
		}
	}
	if len(ledger) != len(layers) {
		return nil, errors.New("ledger reports a metric the layer table does not list")
	}
	fmt.Fprintln(os.Stderr, "  per-layer ledger (metric, value, what a change to it should move):")
	for _, l := range layers {
		fmt.Fprintf(os.Stderr, "  %-36s %14.4f %-5s -> %s\n", l.name, ledger[l.name].Value, l.unit, l.moves)
	}
	res.Metrics = ledger
	return res, nil
}
