package service

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"cognicryptgen/wire"
)

// API is the wire surface of one cryptgend node: everything the HTTP
// transport can serve, expressed in the shared wire types. Server
// implements it; the transport below turns any implementation into an
// http.Handler. The public listener and the cluster's peer-forwarding
// channel are deliberately the same handler set over this one interface —
// a peer-forwarded request is an ordinary POST /v1/generate carrying the
// wire.HeaderForwarded hop guard, not a second protocol.
type API interface {
	// GenerateBody runs one generation (cache → singleflight → peer
	// forward → plan → pool) and returns the response's compact JSON cut
	// just before its trailing duration_ms field (see encodeBody); a cache
	// hit returns the entry's memoized bytes without encoding anything.
	GenerateBody(ctx context.Context, req wire.GenerateRequest) ([]byte, error)
	// GenerateBatch fans a batch across the worker pool with per-item
	// partial success.
	GenerateBatch(ctx context.Context, req wire.BatchRequest) (wire.BatchResponse, error)
	// AnalyzeJSON runs the misuse analyzer over one source file.
	AnalyzeJSON(ctx context.Context, req wire.AnalyzeRequest) (wire.AnalyzeResponse, error)
	// ReloadRules recompiles and transactionally swaps the rule set.
	ReloadRules() (wire.ReloadResponse, error)
	// RulesInfo lists the compiled rules.
	RulesInfo() wire.RulesResponse
	// TemplatesInfo lists the embedded use-case templates.
	TemplatesInfo() wire.TemplatesResponse
	// HealthInfo reports liveness.
	HealthInfo() wire.HealthResponse
	// ReadyInfo reports readiness (ok | degraded | draining).
	ReadyInfo() wire.ReadyResponse
	// MetricsSnapshot reports the node's counters.
	MetricsSnapshot() wire.Metrics
}

// transportOptions tunes the HTTP glue around an API.
type transportOptions struct {
	// maxBodyBytes caps request bodies on the POST endpoints (413 beyond).
	maxBodyBytes int64
	// requestTimeout caps per-request processing time.
	requestTimeout time.Duration
	// retryAfterSeconds supplies the Retry-After hint written on 429s.
	retryAfterSeconds func() int
	// failStatus maps a backend error to an HTTP status.
	failStatus func(error) int
	// onPanic observes panics recovered at the handler boundary.
	onPanic func(op string, v any, stack []byte)
}

// transport is the HTTP glue extracted from the old per-Server handlers:
// method checks, body decoding under the size cap, the wire.Error envelope
// on every non-2xx response, per-route counters, and the peer-forwarding
// hop guard. It holds only an API and the shared metrics, so the same
// handler set serves any backend.
type transport struct {
	api API
	m   *metrics
	opt transportOptions
	mux *http.ServeMux
}

func newTransport(api API, m *metrics, opt transportOptions) *transport {
	if m == nil {
		m = newMetrics()
	}
	if opt.maxBodyBytes <= 0 {
		opt.maxBodyBytes = DefaultMaxBodyBytes
	}
	if opt.requestTimeout <= 0 {
		opt.requestTimeout = 30 * time.Second
	}
	if opt.retryAfterSeconds == nil {
		opt.retryAfterSeconds = func() int { return 1 }
	}
	if opt.failStatus == nil {
		opt.failStatus = func(error) int { return http.StatusBadRequest }
	}
	t := &transport{api: api, m: m, opt: opt, mux: http.NewServeMux()}
	t.mux.HandleFunc("/v1/generate", t.handleGenerate)
	t.mux.HandleFunc("/v1/generate/batch", t.handleGenerateBatch)
	t.mux.HandleFunc("/v1/analyze", t.handleAnalyze)
	t.mux.HandleFunc("/v1/reload", t.handleReload)
	t.mux.HandleFunc("/v1/rules", t.handleRules)
	t.mux.HandleFunc("/v1/templates", t.handleTemplates)
	t.mux.HandleFunc("/healthz", t.handleHealthz)
	t.mux.HandleFunc("/readyz", t.handleReadyz)
	t.mux.HandleFunc("/metrics", t.handleMetrics)
	return t
}

// handler returns the transport's HTTP handler. Every request runs under a
// panic guard: a panic that escapes a handler goroutine would otherwise
// kill the whole process (net/http only protects its own serve goroutines,
// and ours fan work out further), so it is recovered here into a 500 with
// the stack reported once per site.
func (t *transport) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.m.requests.Add(1)
		defer func() {
			if rec := recover(); rec != nil {
				if t.opt.onPanic != nil {
					t.opt.onPanic("http "+r.URL.Path, rec, debug.Stack())
				}
				// If the handler already wrote headers this is a no-op body
				// append; the client sees a truncated response either way.
				t.writeError(w, http.StatusInternalServerError, "internal error")
			}
		}()
		t.mux.ServeHTTP(w, r)
	})
}

// peerHopKey marks a request's context when it arrived over the peer
// channel (wire.HeaderForwarded set): the backend must serve it locally,
// never forward again.
type ctxKey int

const peerHopKey ctxKey = iota

func withPeerHop(ctx context.Context) context.Context {
	return context.WithValue(ctx, peerHopKey, true)
}

// isPeerHop reports whether the request already took its one forwarding
// hop.
func isPeerHop(ctx context.Context) bool {
	v, _ := ctx.Value(peerHopKey).(bool)
	return v
}

// requestCtx derives a handler's working context: the transport timeout,
// plus the hop-guard mark when the request arrived on the peer channel. A
// forwarded deadline budget (wire.HeaderDeadlineMS) can only tighten the
// configured timeout, never extend it — the forwarder's remaining budget
// becomes this request's deadline, so downstream admission (the pool's
// deadline-vs-p99 shed and the forwarded-work check in runLeader) reasons
// about the budget the caller actually has.
func (t *transport) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	if r.Header.Get(wire.HeaderForwarded) != "" {
		ctx = withPeerHop(ctx)
	}
	timeout := t.opt.requestTimeout
	if v := r.Header.Get(wire.HeaderDeadlineMS); v != "" {
		if ms, err := strconv.ParseInt(v, 10, 64); err == nil && ms > 0 {
			if d := time.Duration(ms) * time.Millisecond; d < timeout {
				timeout = d
			}
		}
	}
	return context.WithTimeout(ctx, timeout)
}

// writeJSON answers with v as compact JSON (pipe it to jq for reading).
func (t *transport) writeJSON(w http.ResponseWriter, status int, v any) {
	if status >= 400 {
		t.m.errors.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// durationTail is where every generate response body is cut: duration_ms is
// the last field of wire.GenerateResponse, and the only one in which two
// hits on the same cache entry differ.
const durationTail = `,"duration_ms":`

// encodeBody returns resp's compact JSON encoding cut just before its
// trailing duration_ms field. writeGenerate completes it into exactly the
// bytes json.Encoder.Encode emits for resp with its DurationMS set.
func encodeBody(resp wire.GenerateResponse) ([]byte, error) {
	resp.DurationMS = 0
	b, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	cut := len(b) - len(durationTail+"0}")
	if cut < 0 || string(b[cut:]) != durationTail+"0}" {
		return nil, errors.New("service: encoded response does not end in duration_ms")
	}
	// Cap the slice at the cut: a cached body is shared by every hit, so
	// an append to it must never write into its backing array.
	return b[:cut:cut], nil
}

// bodyBufs recycles the buffers writeGenerate assembles responses in.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody keeps an outsized response's buffer out of bodyBufs.
const maxPooledBody = 64 << 10

// writeGenerate answers 200 with prefix (from encodeBody) completed by the
// duration_ms field, in one write with an exact Content-Length.
func writeGenerate(w http.ResponseWriter, prefix []byte, durationMS float64) {
	bp := bodyBufs.Get().(*[]byte)
	b := append((*bp)[:0], prefix...)
	b = append(b, durationTail...)
	b = appendJSONFloat(b, durationMS)
	b = append(b, "}\n"...)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b) // a failed write means the client went away
	if cap(b) <= maxPooledBody {
		*bp = b
		bodyBufs.Put(bp)
	}
}

// appendJSONFloat appends f formatted as encoding/json formats a float64.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// encoding/json writes e-7, not e-07.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// writeError answers with the wire.Error envelope — the one error shape
// across every endpoint. 429s carry the Retry-After header and mirror it
// in retry_after_ms.
func (t *transport) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	e := wire.NewError(status, format, args...)
	if status == http.StatusTooManyRequests {
		secs := t.opt.retryAfterSeconds()
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		e.RetryAfterMS = int64(secs) * 1000
	}
	t.writeJSON(w, status, e)
}

// writeAPIError maps a backend error onto the wire. A *wire.Error — e.g. a
// peer's envelope passed through the forwarder — keeps its code, message,
// and retry hint; anything else is classified by failStatus.
func (t *transport) writeAPIError(w http.ResponseWriter, err error, format string, args ...any) {
	var we *wire.Error
	if errors.As(err, &we) && we.Status != 0 {
		if we.Status == http.StatusTooManyRequests && we.RetryAfterMS > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(int((we.RetryAfterMS+999)/1000)))
		}
		t.writeJSON(w, we.Status, we)
		return
	}
	t.writeError(w, t.opt.failStatus(err), format+": %v", append(args, err)...)
}

// decodeBody decodes a JSON request body under the configured size cap,
// answering 413 (oversized) or 400 (malformed) itself. ok is false when a
// response has already been written.
func (t *transport) decodeBody(w http.ResponseWriter, r *http.Request, v any) (ok bool) {
	r.Body = http.MaxBytesReader(w, r.Body, t.opt.maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			t.writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", mbe.Limit)
			return false
		}
		t.writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return false
	}
	return true
}

func (t *transport) requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		t.writeError(w, http.StatusMethodNotAllowed, "POST required")
		return false
	}
	return true
}

func (t *transport) requireGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet {
		t.writeError(w, http.StatusMethodNotAllowed, "GET required")
		return false
	}
	return true
}

func (t *transport) handleGenerate(w http.ResponseWriter, r *http.Request) {
	if !t.requirePost(w, r) {
		return
	}
	t.m.generates.Add(1)
	var req wire.GenerateRequest
	if !t.decodeBody(w, r, &req) {
		return
	}
	start := time.Now()
	defer func() { t.m.observe(time.Since(start)) }()

	ctx, cancel := t.requestCtx(r)
	defer cancel()
	prefix, err := t.api.GenerateBody(ctx, req)
	if err != nil {
		t.writeAPIError(w, err, "generate")
		return
	}
	writeGenerate(w, prefix, float64(time.Since(start))/float64(time.Millisecond))
}

func (t *transport) handleGenerateBatch(w http.ResponseWriter, r *http.Request) {
	if !t.requirePost(w, r) {
		return
	}
	t.m.batches.Add(1)
	var req wire.BatchRequest
	if !t.decodeBody(w, r, &req) {
		return
	}
	start := time.Now()
	defer func() { t.m.observe(time.Since(start)) }()

	ctx, cancel := t.requestCtx(r)
	defer cancel()
	resp, err := t.api.GenerateBatch(ctx, req)
	if err != nil {
		t.writeError(w, http.StatusBadRequest, "generate batch: %v", err)
		return
	}
	resp.DurationMS = float64(time.Since(start)) / float64(time.Millisecond)
	t.writeJSON(w, http.StatusOK, resp)
}

func (t *transport) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if !t.requirePost(w, r) {
		return
	}
	t.m.analyzes.Add(1)
	var req wire.AnalyzeRequest
	if !t.decodeBody(w, r, &req) {
		return
	}
	start := time.Now()
	defer func() { t.m.observe(time.Since(start)) }()

	ctx, cancel := t.requestCtx(r)
	defer cancel()
	resp, err := t.api.AnalyzeJSON(ctx, req)
	if err != nil {
		t.writeAPIError(w, err, "analyze %s", req.Name)
		return
	}
	resp.DurationMS = float64(time.Since(start)) / float64(time.Millisecond)
	t.writeJSON(w, http.StatusOK, resp)
}

func (t *transport) handleReload(w http.ResponseWriter, r *http.Request) {
	if !t.requirePost(w, r) {
		return
	}
	// The reload body is ignored today, but cap it anyway so a confused
	// client streaming a rule archive here cannot balloon memory.
	r.Body = http.MaxBytesReader(w, r.Body, t.opt.maxBodyBytes)
	resp, err := t.api.ReloadRules()
	if err != nil {
		t.writeError(w, http.StatusInternalServerError, "reload: %v", err)
		return
	}
	t.writeJSON(w, http.StatusOK, resp)
}

func (t *transport) handleRules(w http.ResponseWriter, r *http.Request) {
	if !t.requireGet(w, r) {
		return
	}
	t.writeJSON(w, http.StatusOK, t.api.RulesInfo())
}

func (t *transport) handleTemplates(w http.ResponseWriter, r *http.Request) {
	if !t.requireGet(w, r) {
		return
	}
	t.writeJSON(w, http.StatusOK, t.api.TemplatesInfo())
}

func (t *transport) handleHealthz(w http.ResponseWriter, r *http.Request) {
	t.writeJSON(w, http.StatusOK, t.api.HealthInfo())
}

func (t *transport) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ready := t.api.ReadyInfo()
	status := http.StatusOK
	if ready.Status == wire.ReadyDraining {
		status = http.StatusServiceUnavailable
	}
	t.writeJSON(w, status, ready)
}

func (t *transport) handleMetrics(w http.ResponseWriter, r *http.Request) {
	t.writeJSON(w, http.StatusOK, t.api.MetricsSnapshot())
}
