package service

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cognicryptgen/analysis"
	"cognicryptgen/crysl"
	"cognicryptgen/gen"
	"cognicryptgen/internal/persist"
	"cognicryptgen/internal/srccheck"
	"cognicryptgen/rules"
	"cognicryptgen/templates"
	"cognicryptgen/wire"
)

// DefaultMaxBodyBytes caps request bodies when Config.MaxBodyBytes is
// zero. Templates are source files, not datasets; 4 MiB is orders of
// magnitude above any real template and small enough that a misbehaving
// client cannot balloon the daemon's memory.
const DefaultMaxBodyBytes = 4 << 20

// Config tunes a Server. The zero value is usable: it serves the embedded
// rule set with one worker per CPU and a 30-second request timeout.
type Config struct {
	// Dir locates the module for template type-checking ("" = working
	// directory; the daemon must run inside the cognicryptgen module).
	Dir string
	// Workers is the worker-pool size (0 = runtime.NumCPU).
	Workers int
	// QueueSize bounds pending jobs (0 = 4×Workers). When the queue is
	// full, submissions wait until space frees or their context expires.
	QueueSize int
	// RequestTimeout caps per-request processing time (0 = 30s). Requests
	// that expire while queued are answered 503 without running.
	RequestTimeout time.Duration
	// CacheSize bounds the generation result cache (0 = 256 entries).
	CacheSize int
	// MaxWaiters bounds submissions allowed to wait behind a full worker
	// queue before admission control sheds with 429 (0 = 2×QueueSize,
	// negative = unbounded waiting, disabling load shedding).
	MaxWaiters int
	// MaxBodyBytes caps request bodies on the POST endpoints; oversized
	// requests get 413 (0 = DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// Loader compiles the rule set at startup and on /v1/reload (nil =
	// the embedded gca rules).
	Loader func() (*crysl.RuleSet, error)

	// SnapshotDir enables warm-restart durability: the server periodically
	// (and on graceful Close) writes a crash-safe snapshot of its result
	// cache and rule-set source there, and restores it at boot — before the
	// caller can start a listener — so a restarted node serves warm instead
	// of cold ("" = snapshots off). Any unusable snapshot degrades to a
	// logged cold start.
	SnapshotDir string
	// SnapshotInterval paces the periodic snapshot writer (0 = 60s).
	SnapshotInterval time.Duration
	// RuleSources supplies the active rule-set source files (name → CrySL
	// text) for the snapshot, enabling rules-from-snapshot recovery when
	// the boot loader fails. Nil with a nil Loader defaults to the embedded
	// rule sources; nil with a custom Loader snapshots no rule files.
	RuleSources func() (map[string]string, error)

	// Self is this node's advertised base URL (e.g. "http://10.0.0.1:8080")
	// in cluster mode. Peers use it only for display; forwarding decisions
	// hash Self against Peers, so it must be the same string the other
	// nodes list in their Peers.
	Self string
	// Peers lists the other cluster nodes' base URLs. Non-empty enables
	// peer forwarding: a request whose cache key hashes to a peer is
	// forwarded there (one hop, wire.HeaderForwarded) so the cluster's
	// caches and singleflights shard by key instead of duplicating.
	Peers []string
	// PeerProbeInterval paces the background /readyz probe that ejects
	// unhealthy peers from the forwarding set and re-admits them on
	// recovery (0 = 2s).
	PeerProbeInterval time.Duration
	// PeerFailureThreshold is the consecutive forward/probe failure streak
	// that opens a peer's circuit breaker, removing it from the forwarding
	// set until a half-open trial succeeds (0 = 3).
	PeerFailureThreshold int
}

// Server is the generation daemon: registry + worker pool + result cache
// behind an HTTP JSON API. Create with New, expose via Handler, stop with
// Close. Server implements the API interface; the HTTP glue lives in the
// transport (transport.go), which serves both the public listener and the
// cluster's peer-forwarding channel.
type Server struct {
	cfg       Config
	registry  *Registry
	pool      *Pool
	cache     *resultCache
	flights   *flightGroup
	metrics   *metrics
	transport *transport
	cluster   *cluster
	started   time.Time

	// Warm-restart snapshot state (nil/zero without Config.SnapshotDir).
	store          *persist.Store
	snapStop       chan struct{}
	snapDone       chan struct{}
	snapOnce       sync.Once
	restoring      atomic.Bool // boot restore's plan re-warm still running
	snapshotBytes  atomic.Int64
	snapshotAt     atomic.Int64 // UnixNano of the last successful write
	restoreEntries atomic.Int64
	restoreMS      atomic.Int64

	// draining flips when Close begins; /readyz reports it so load
	// balancers stop routing before the listener goes away.
	draining atomic.Bool
	// shedStreak counts consecutive sheds since the last successful
	// admission; Retry-After backs off exponentially with it.
	shedStreak atomic.Int64
	// panicLogged dedupes panic stack logging per recovery site, so a
	// crash loop emits one stack, not one per request.
	panicLogged sync.Map
	// jitterMu guards jitterRand (math/rand.Rand is not concurrency-safe).
	jitterMu   sync.Mutex
	jitterRand *rand.Rand
}

var _ API = (*Server)(nil)

// New compiles the rule set, warms the path cache, and starts the worker
// pool. The shared type-check universe (the crypto façade's transitive
// closure, the expensive half of a worker's first Generator) begins
// warming in the background immediately, so by the time the first request
// arrives its worker either finds the universe built or joins the
// in-flight warm-up instead of starting its own.
func New(cfg Config) (*Server, error) {
	if cfg.Workers == 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 256
	}
	go func() {
		if root, err := srccheck.ModuleRoot(cfg.Dir); err == nil {
			srccheck.SharedUniverse(root).Warm(srccheck.ModulePath + "/gca")
		}
	}()
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.RuleSources == nil && cfg.Loader == nil {
		cfg.RuleSources = rules.Sources
	}
	// Load the warm-restart snapshot BEFORE building the registry: its
	// captured rule source is the boot fallback when the operator's loader
	// fails, and its cache entries refill the result cache below.
	var store *persist.Store
	var restored *persist.Snapshot
	if cfg.SnapshotDir != "" {
		st, err := persist.NewStore(cfg.SnapshotDir)
		if err != nil {
			return nil, err
		}
		store = st
		restored = loadSnapshot(store)
	}
	registry, err := NewRegistryWithFallback(cfg.Loader, snapshotRuleLoader(restored))
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:        cfg,
		registry:   registry,
		cache:      newResultCache(cfg.CacheSize),
		flights:    newFlightGroup(),
		metrics:    newMetrics(),
		started:    time.Now(),
		jitterRand: rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	s.pool = NewPoolConfig(registry, cfg.Dir, PoolConfig{
		Workers:    cfg.Workers,
		QueueSize:  cfg.QueueSize,
		MaxWaiters: cfg.MaxWaiters,
		OnPanic:    s.recordPanic,
		OnShed: func() {
			s.metrics.shed.Add(1)
			s.shedStreak.Add(1)
		},
		OnAdmit: func() { s.shedStreak.Store(0) },
	})
	s.transport = newTransport(s, s.metrics, transportOptions{
		maxBodyBytes:      cfg.MaxBodyBytes,
		requestTimeout:    cfg.RequestTimeout,
		retryAfterSeconds: s.retryAfterSeconds,
		failStatus:        s.failStatus,
		onPanic:           s.recordPanic,
	})
	if len(cfg.Peers) > 0 {
		s.cluster = newCluster(cfg.Self, cfg.Peers, cfg.PeerProbeInterval, cfg.PeerFailureThreshold)
	}
	// Refill the result cache from the snapshot synchronously — New has not
	// returned, so no listener exists yet and the first request a restarted
	// node sees already finds warm state.
	s.store = store
	warm := restored != nil && s.restoreSnapshot(restored)
	s.restoring.Store(warm)
	// Warm the embedded templates' plans in the background. The gen.New
	// inside rides the universe warm-up started above rather than racing
	// the first request for it, and every warmed template's first real
	// request lands on the byte-splice fast path. A warm restore then
	// replays its entries' request tuples so restored hot templates get
	// their compiled plans back too; /readyz reports "restoring" until
	// that re-warm finishes.
	go func() {
		s.warmPlans(registry.Snapshot())
		if warm {
			s.rewarmRestoredPlans(restored)
		}
		s.restoring.Store(false)
	}()
	if store != nil {
		interval := cfg.SnapshotInterval
		if interval <= 0 {
			interval = time.Minute
		}
		s.snapStop = make(chan struct{})
		s.snapDone = make(chan struct{})
		go s.snapLoop(interval)
	}
	return s, nil
}

// recordPanic counts one recovered panic and logs its stack, once per
// recovery site: a request storm hitting the same broken path produces one
// diagnostic stack in the log and a climbing panics_recovered counter, not
// a log flood.
func (s *Server) recordPanic(op string, v any, stack []byte) {
	s.metrics.panics.Add(1)
	if _, dup := s.panicLogged.LoadOrStore(op, true); !dup {
		log.Printf("service: recovered panic in %s: %v\n%s", op, v, stack)
	}
}

// retryAfterSeconds computes the Retry-After hint for a 429: exponential
// in the current shed streak (1s doubling to a 64s ceiling), plus up to
// 50% random jitter so a synchronized client fleet does not come back as
// one thundering herd.
func (s *Server) retryAfterSeconds() int {
	streak := s.shedStreak.Load()
	if streak > 6 {
		streak = 6
	}
	base := 1 << streak
	s.jitterMu.Lock()
	j := s.jitterRand.Intn(base/2 + 1)
	s.jitterMu.Unlock()
	return base + j
}

// Handler returns the daemon's HTTP handler (the transport over this
// Server's API, with per-request panic guard and the wire.Error envelope
// on every failure).
func (s *Server) Handler() http.Handler {
	return s.transport.handler()
}

// Close drains the worker pool: queued requests finish, new submissions
// fail with 503. /readyz flips to draining immediately so load balancers
// stop routing, and the peer prober stops. With snapshots enabled, a final
// snapshot is written after the pool drains (so it captures every result
// the drain completed). Call after the HTTP listener stopped accepting.
func (s *Server) Close() {
	s.shutdown(true)
}

// Abort is the crash-shaped shutdown: identical to Close except no final
// snapshot is written. The cluster kill/restart drill uses it so a restart
// proves the PERIODIC snapshots are restorable — the guarantee a real
// crash relies on — rather than a freshly written parting one.
func (s *Server) Abort() {
	s.shutdown(false)
}

func (s *Server) shutdown(finalSnapshot bool) {
	s.draining.Store(true)
	if s.cluster != nil {
		s.cluster.close()
	}
	s.pool.Close()
	if s.store != nil {
		s.snapOnce.Do(func() {
			close(s.snapStop)
		})
		<-s.snapDone
		if finalSnapshot {
			s.writeSnapshot()
		}
	}
}

// Registry exposes the server's rule registry (tests, embedding).
func (s *Server) Registry() *Registry { return s.registry }

func toWireReport(r *gen.Report) *wire.Report {
	if r == nil {
		return nil
	}
	out := &wire.Report{
		Template:    r.Template,
		Assumptions: r.Assumptions,
		PushedUp:    r.PushedUp,
	}
	for _, m := range r.Methods {
		mj := &wire.MethodReport{Name: m.Name}
		for _, rr := range m.Rules {
			mj.Rules = append(mj.Rules, &wire.RuleReport{Rule: rr.Rule, Path: rr.Path, Resolutions: rr.Resolutions})
		}
		out.Methods = append(out.Methods, mj)
	}
	return out
}

// failStatus maps a pipeline error to an HTTP status: context expiry and
// pool shutdown are 503 (retryable), admission-control shedding is 429
// (retryable after the Retry-After hint), recovered panics are the
// server's 500, everything else — malformed templates, rule violations —
// is the client's 400. A *wire.Error (a peer's envelope passed through the
// forwarder) keeps its own status.
func (s *Server) failStatus(err error) int {
	var ie *InternalError
	var pe *gen.PanicError
	var we *wire.Error
	switch {
	case errors.As(err, &we) && we.Status != 0:
		return we.Status
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.metrics.timeouts.Add(1)
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.As(err, &ie), errors.As(err, &pe):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// ReloadRules recompiles the rule set and transactionally swaps it in
// (POST /v1/reload). The new snapshot's plans for the embedded templates
// are warmed before the response returns, so the first post-reload
// request for each lands on the fast path.
func (s *Server) ReloadRules() (wire.ReloadResponse, error) {
	snap, err := s.registry.Reload()
	if err != nil {
		return wire.ReloadResponse{}, err
	}
	s.metrics.reloads.Add(1)
	s.warmPlans(snap)
	return wire.ReloadResponse{
		Fingerprint: snap.Fingerprint,
		Version:     snap.Version,
		Rules:       snap.Rules.Len(),
	}, nil
}

// warmPlans runs the embedded use-case templates through a plan-wired
// Generator so their compiled plans are resident before traffic asks for
// them. Warm failures are advisory: the daemon still serves (the legacy
// pipeline remains the transparent fallback), so they are logged — once
// per pass, not once per template — never propagated.
func (s *Server) warmPlans(snap *Snapshot) {
	g, err := gen.New(snap.Rules, s.cfg.Dir, gen.Options{Paths: snap.Paths, Plans: snap.Plans})
	if err != nil {
		log.Printf("service: plan warm: %v", err)
		return
	}
	var firstErr error
	failed := 0
	for _, uc := range append(append([]templates.UseCase(nil), templates.UseCases...), templates.Extensions...) {
		src, err := templates.Source(uc)
		if err == nil {
			_, err = g.GenerateFile(uc.File, src)
		}
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if firstErr != nil {
		log.Printf("service: plan warm: %d template(s) failed, first: %v", failed, firstErr)
	}
}

// RulesInfo lists the compiled rules (GET /v1/rules).
func (s *Server) RulesInfo() wire.RulesResponse {
	snap := s.registry.Snapshot()
	rules := make([]wire.RuleInfo, 0, snap.Rules.Len())
	for _, rule := range snap.Rules.Rules() {
		rules = append(rules, wire.RuleInfo{
			Spec:           rule.SpecType(),
			Events:         len(rule.Events),
			DFAStates:      rule.DFA.NumStates,
			AcceptingPaths: len(snap.Paths.Paths(rule, gen.DefaultMaxPaths)),
		})
	}
	return wire.RulesResponse{
		Fingerprint: snap.Fingerprint,
		Version:     snap.Version,
		Rules:       rules,
	}
}

// TemplatesInfo lists the embedded use-case templates (GET /v1/templates).
func (s *Server) TemplatesInfo() wire.TemplatesResponse {
	var out wire.TemplatesResponse
	for _, uc := range append(append([]templates.UseCase(nil), templates.UseCases...), templates.Extensions...) {
		out.Templates = append(out.Templates, wire.TemplateInfo{ID: uc.ID, Name: uc.Name, File: uc.File, Sources: uc.Sources})
	}
	return out
}

// HealthInfo reports liveness (GET /healthz).
func (s *Server) HealthInfo() wire.HealthResponse {
	snap := s.registry.Snapshot()
	return wire.HealthResponse{
		Status:      "ok",
		UptimeS:     time.Since(s.started).Seconds(),
		Workers:     s.cfg.Workers,
		Rules:       snap.Rules.Len(),
		Fingerprint: snap.Fingerprint,
		Version:     snap.Version,
	}
}

// ReadyInfo is the readiness probe, distinct from /healthz liveness: a
// live daemon can still be the wrong place to route traffic. It reports
// one of three states — "ok", "degraded" (serving, but the last reload
// failed and the last-good rule set is live instead of the operator's new
// one, with the failed candidate's fingerprint and error), and "draining"
// (Close has begun, stop routing — the transport serves it with 503).
func (s *Server) ReadyInfo() wire.ReadyResponse {
	if s.draining.Load() {
		return wire.ReadyResponse{Status: wire.ReadyDraining}
	}
	snap := s.registry.Snapshot()
	out := wire.ReadyResponse{
		Status:      wire.ReadyOK,
		Fingerprint: snap.Fingerprint,
		Version:     snap.Version,
	}
	if s.restoring.Load() {
		// Serving correctly from restored cache state while the plan
		// re-warm finishes; informational like degraded, served with 200.
		out.Status = wire.ReadyRestoring
	}
	if h := s.registry.Health(); h.Degraded {
		out.Status = wire.ReadyDegraded
		out.LastError = h.LastError
		out.FailedFingerprint = h.FailedFingerprint
		out.FailedAt = h.FailedAt.UTC().Format(time.RFC3339)
	}
	return out
}

// MetricsSnapshot returns the current counters as served by GET /metrics
// (benchmark harnesses consume this without going through HTTP).
func (s *Server) MetricsSnapshot() wire.Metrics {
	m := s.metrics.snapshot(s.pool.QueueDepth(), s.pool.Waiters(), s.cache.len())
	if plans := s.registry.Plans(); plans != nil {
		m.PlanHits = plans.Hits()
		m.PlanMisses = plans.Misses()
		m.PlanEntries = plans.Len()
		m.PlanBytes = plans.Bytes()
	}
	if s.cluster != nil {
		m.Self = s.cluster.self
		m.Peers = s.cluster.peerStatuses()
		m.BreakerRejects = s.cluster.breakerRejects()
	}
	if s.store != nil {
		m.SnapshotBytes = s.snapshotBytes.Load()
		if at := s.snapshotAt.Load(); at > 0 {
			m.SnapshotAgeSeconds = time.Since(time.Unix(0, at)).Seconds()
		}
		m.RestoreEntries = s.restoreEntries.Load()
		m.RestoreMS = float64(s.restoreMS.Load())
	}
	return m
}

// AnalyzeJSON runs the misuse analyzer over one source file
// (POST /v1/analyze).
func (s *Server) AnalyzeJSON(ctx context.Context, req wire.AnalyzeRequest) (wire.AnalyzeResponse, error) {
	if req.Source == "" {
		return wire.AnalyzeResponse{}, errors.New("need source")
	}
	name := req.Name
	if name == "" {
		name = "input.go"
	}
	v, err := s.pool.Submit(ctx, func(_ context.Context, worker *Worker) (any, error) {
		an, err := worker.Analyzer()
		if err != nil {
			return nil, err
		}
		rep, err := an.AnalyzeSource(name, req.Source)
		if err != nil {
			return nil, err
		}
		resp := wire.AnalyzeResponse{
			Name:        name,
			Findings:    []*wire.Finding{},
			Assumptions: rep.Assumptions,
			Fingerprint: worker.Snapshot().Fingerprint,
		}
		for _, f := range rep.Findings {
			resp.Findings = append(resp.Findings, &wire.Finding{
				Kind:     f.Kind.String(),
				Rule:     f.Rule,
				Function: f.Function,
				Position: f.Pos.String(),
				Message:  f.Message,
			})
		}
		return resp, nil
	})
	if err != nil {
		return wire.AnalyzeResponse{}, err
	}
	return v.(wire.AnalyzeResponse), nil
}

// Analyze runs the analyzer in-process, bypassing HTTP (used by the
// benchmark harness and embedders).
func (s *Server) Analyze(ctx context.Context, name, src string) (*analysis.Report, error) {
	v, err := s.pool.Submit(ctx, func(_ context.Context, worker *Worker) (any, error) {
		an, err := worker.Analyzer()
		if err != nil {
			return nil, err
		}
		return an.AnalyzeSource(name, src)
	})
	if err != nil {
		return nil, err
	}
	return v.(*analysis.Report), nil
}

// Generate runs one generation in-process, bypassing HTTP but using the
// same pool, cache, and coalescing as the API (used by the batch endpoint,
// the benchmark harness, and embedders).
//
// The request path is: result-cache lookup → singleflight join → peer
// forward or worker pool. N concurrent identical cache misses submit
// exactly one generation; the followers wait on the leader's flight and
// count toward the `coalesced` metric. A follower whose leader fails with
// the *leader's* cancellation (or pool shutdown) retries with its own
// still-live context instead of inheriting an error it did not cause.
//
// In cluster mode the flight leader first checks which node the key
// rendezvous-hashes to: if a healthy peer owns it and this request has not
// already taken its one forwarding hop, the leader forwards instead of
// generating, and the whole coalesced cohort shares the peer's answer.
// Forwarded responses are deliberately NOT cached locally — each key is
// cached only at its owner, which is what makes N nodes one effective
// cache instead of N copies of the same hot set.
func (s *Server) Generate(ctx context.Context, req wire.GenerateRequest) (wire.GenerateResponse, error) {
	resp, _, err := s.generate(ctx, req, false)
	return resp, err
}

// GenerateBody is Generate for the HTTP transport: the same request path,
// returning the response as a body prefix (encodeBody) instead of a
// struct. A cache hit serves the entry's memoized prefix; every other path
// encodes its response once.
func (s *Server) GenerateBody(ctx context.Context, req wire.GenerateRequest) ([]byte, error) {
	resp, body, err := s.generate(ctx, req, true)
	if err != nil || body != nil {
		return body, err
	}
	return encodeBody(resp)
}

// generate is the one request path behind Generate and GenerateBody. With
// wantBody, a cache hit returns the entry's memoized body instead of the
// response; nothing else differs.
func (s *Server) generate(ctx context.Context, req wire.GenerateRequest, wantBody bool) (wire.GenerateResponse, []byte, error) {
	if req.UseCase != 0 && req.Source != "" {
		return wire.GenerateResponse{}, nil, errors.New("source and usecase are mutually exclusive")
	}
	var t target
	if req.UseCase != 0 {
		var err error
		if t.name, t.src, t.sum, err = wire.UseCaseSource(req.UseCase); err != nil {
			return wire.GenerateResponse{}, nil, err
		}
	} else {
		t.name, t.src = req.Name, req.Source
		if t.name == "" {
			t.name = "template.go"
		}
		if strings.TrimSpace(t.src) == "" {
			return wire.GenerateResponse{}, nil, errors.New("service: need source or usecase")
		}
		t.sum = wire.SumSource(t.src)
	}
	for {
		fp := s.registry.Snapshot().Fingerprint
		t.key, t.fingerprint = t.keyFor(fp, req), fp
		if wantBody {
			if body, ok, err := s.cache.getBody(t.key); ok {
				s.metrics.cacheHits.Add(1)
				return wire.GenerateResponse{}, body, err
			}
		} else if resp, ok := s.cache.get(t.key); ok {
			s.metrics.cacheHits.Add(1)
			resp.Cached = true
			return resp, nil, nil
		}
		f, leader := s.flights.join(t.key)
		if !leader {
			s.metrics.coalesced.Add(1)
			select {
			case <-f.done:
			case <-ctx.Done():
				return wire.GenerateResponse{}, nil, ctx.Err()
			}
			if f.err == nil {
				resp := f.resp
				resp.Coalesced = true
				return resp, nil, nil
			}
			if retryableFlightErr(f.err) && ctx.Err() == nil {
				continue
			}
			return wire.GenerateResponse{}, nil, f.err
		}
		resp, err := s.runLeader(ctx, t, f, req)
		return resp, nil, err
	}
}

// target is a generate request's resolved template and the cache key it
// was looked up under.
type target struct {
	name, src   string
	sum         wire.SourceSum
	fingerprint string // the rule-set fingerprint key was derived from
	key         string
}

// keyFor returns the cache key of this target under fingerprint, reusing
// the looked-up key when the rule set has not changed since.
func (t *target) keyFor(fingerprint string, req wire.GenerateRequest) string {
	if t.key != "" && fingerprint == t.fingerprint {
		return t.key
	}
	return wire.CacheKeySum(fingerprint, t.name, t.sum, req.Package, req.Verify)
}

// runLeader executes a singleflight leader's generation (or peer forward).
// The flight is finished in a defer, unconditionally: whatever happens on
// this path — including a panic between pool submission and cache
// population — the followers parked on f.done are woken with a result or
// an error, never left waiting on a flight whose leader is gone.
func (s *Server) runLeader(ctx context.Context, t target, f *flight, req wire.GenerateRequest) (resp wire.GenerateResponse, err error) {
	name, src := t.name, t.src
	defer func() {
		if rec := recover(); rec != nil {
			stack := debug.Stack()
			s.recordPanic("generate-leader", rec, stack)
			resp, err = wire.GenerateResponse{}, &InternalError{Op: "generate-leader", Value: rec, Stack: stack}
		}
		s.flights.finish(t.key, f, resp, err)
	}()
	// Cluster: forward to the key's owner if that is a healthy peer and the
	// request has not already hopped. A definitive peer answer (success or
	// the peer's own terminal error envelope) is the whole flight's result;
	// a transport failure falls back to generating locally.
	if s.cluster != nil && !isPeerHop(ctx) {
		if owner := s.cluster.ownerPeer(t.key); owner != "" {
			fwd, ferr, handled := s.forward(ctx, owner, name, src, req)
			if handled {
				return fwd, ferr
			}
		}
	}
	// cache_misses counts local generations, not local cache lookups that
	// missed: a forwarded request is the owner's miss (or hit), not this
	// node's, so the cluster-wide sum of cache_misses equals the number of
	// distinct generations actually run.
	s.metrics.cacheMisses.Add(1)
	// Deadline-budget admission for forwarded work: the forwarder told us
	// (X-Cryptgend-Deadline-Ms → this context's deadline) how much budget
	// remains, and observed p99 service time says a full generation will
	// not fit — shed 429 now so the forwarder's fallback generates locally
	// instead of both nodes burning a doomed request. The plan fast path
	// below is NOT gated by this: a resident plan splices in microseconds
	// and fits any budget a request could still be alive under. So the shed
	// must sit between them — after forwarding, before pool submission —
	// which is why it cannot reuse the pool's own saturation-gated check.
	deadlineShed := func() error {
		if !isPeerHop(ctx) {
			return nil
		}
		dl, ok := ctx.Deadline()
		if !ok {
			return nil
		}
		p99, have := s.pool.svcTimes.P99()
		if !have || time.Until(dl) >= p99 {
			return nil
		}
		s.metrics.shed.Add(1)
		return fmt.Errorf("service: forwarded budget %v is under the observed p99 service time %v: %w",
			time.Until(dl).Round(time.Millisecond), p99.Round(time.Millisecond), ErrOverloaded)
	}
	// Plan fast path: when a compiled plan for this (template body, rule
	// set, options) is resident, the miss is served by byte splicing right
	// here on the request goroutine — no pool round-trip, and no queueing
	// behind full-pipeline generations. A miss here is not counted (the
	// worker below owns the authoritative plan miss + compile).
	if snap := s.registry.Snapshot(); snap.Plans != nil && ctx.Err() == nil {
		if res, ok := snap.Plans.Execute(snap.Fingerprint, name, src, gen.Options{PackageName: req.Package, Verify: req.Verify}); ok {
			resp = wire.GenerateResponse{
				Name:        name,
				Output:      res.Output,
				Report:      toWireReport(res.Report),
				Fingerprint: snap.Fingerprint,
			}
			s.cache.put(t.keyFor(snap.Fingerprint, req), resp, name, src, req.Package, req.Verify)
			return resp, nil
		}
	}
	if err := deadlineShed(); err != nil {
		return wire.GenerateResponse{}, err
	}
	v, err := s.pool.Submit(ctx, func(ctx context.Context, worker *Worker) (any, error) {
		g := worker.Generator(gen.Options{PackageName: req.Package, Verify: req.Verify})
		res, err := g.GenerateFileCtx(ctx, name, src)
		if err != nil {
			return nil, err
		}
		return wire.GenerateResponse{
			Name:        name,
			Output:      res.Output,
			Report:      toWireReport(res.Report),
			Fingerprint: worker.Snapshot().Fingerprint,
		}, nil
	})
	if err != nil {
		// gen's own guard converts pipeline panics to *gen.PanicError
		// before the worker sees them; count those recoveries here, at the
		// one place per flight they surface.
		var pe *gen.PanicError
		if errors.As(err, &pe) {
			s.metrics.panics.Add(1)
		}
		return wire.GenerateResponse{}, err
	}
	resp = v.(wire.GenerateResponse)
	// Populate the cache before releasing the flight so a request landing
	// between the two sees one or the other, never a fresh miss.
	s.cache.put(t.keyFor(resp.Fingerprint, req), resp, name, src, req.Package, req.Verify)
	return resp, nil
}

// retryableFlightErr reports whether a coalesced follower should retry
// after its leader failed: the leader's own context expiring (or the pool
// shutting down under it) says nothing about the follower's request.
func retryableFlightErr(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrClosed)
}
