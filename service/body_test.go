package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cognicryptgen/crysl"
	"cognicryptgen/internal/persist"
	"cognicryptgen/templates"
	"cognicryptgen/wire"
)

// serveGenerate sends req to h on a recorder and returns the 200 body.
func serveGenerate(t *testing.T, h http.Handler, req wire.GenerateRequest) []byte {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/generate", bytes.NewReader(data)))
	if rw.Code != http.StatusOK {
		t.Fatalf("%+v: status %d: %s", req, rw.Code, rw.Body)
	}
	if got, want := rw.Header().Get("Content-Length"), strconv.Itoa(rw.Body.Len()); got != want {
		t.Errorf("%+v: Content-Length %s for a %s-byte body", req, got, want)
	}
	if ct := rw.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("%+v: Content-Type %q", req, ct)
	}
	return rw.Body.Bytes()
}

// encoded is what json.Encoder.Encode writes for resp.
func encoded(t *testing.T, resp wire.GenerateResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertHitBody checks that body is a cache hit byte-identical to
// json.Encoder.Encode of Server.Generate's response for req, carrying the
// body's own duration_ms.
func assertHitBody(t *testing.T, srv *Server, req wire.GenerateRequest, body []byte) wire.GenerateResponse {
	t.Helper()
	var got wire.GenerateResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("%+v: %v", req, err)
	}
	if !got.Cached {
		t.Fatalf("%+v: body is not a cache hit: %.80s", req, body)
	}
	want, err := srv.Generate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want.DurationMS = got.DurationMS
	if w := encoded(t, want); !bytes.Equal(body, w) {
		t.Fatalf("%+v: hit body differs from the encoded response\n got: %.200s\nwant: %.200s", req, body, w)
	}
	return got
}

// TestHitBodyIdentity: for every use case, with and without a package
// override and verification, the HTTP body of a miss round-trips through
// the encoder unchanged, and the first hit (which encodes the entry's
// memo) and the next (which serves it) are byte-identical to encoding
// Server.Generate's response.
func TestHitBodyIdentity(t *testing.T) {
	srv, _ := chaosServer(t, Config{Workers: 2, CacheSize: 64})
	h := srv.Handler()
	for _, uc := range allUseCases() {
		for _, pkg := range []string{"", "override"} {
			for _, verify := range []bool{false, true} {
				req := wire.GenerateRequest{UseCase: uc.ID, Package: pkg, Verify: verify}
				miss := serveGenerate(t, h, req)
				var first wire.GenerateResponse
				if err := json.Unmarshal(miss, &first); err != nil {
					t.Fatal(err)
				}
				if first.Cached {
					t.Fatalf("%+v: first request was a hit", req)
				}
				if w := encoded(t, first); !bytes.Equal(miss, w) {
					t.Fatalf("%+v: miss body is not the encoder's output", req)
				}
				for i := 0; i < 2; i++ {
					got := assertHitBody(t, srv, req, serveGenerate(t, h, req))
					if got.Output != first.Output {
						t.Fatalf("%+v: hit output differs from the miss", req)
					}
				}
			}
		}
	}
}

// TestHitBodyInvalidation: once an entry's body is memoized, replacing the
// entry (put on its key, or a snapshot restore) makes the next hit serve
// the new response's bytes, never the stale memo.
func TestHitBodyInvalidation(t *testing.T) {
	srv, _ := chaosServer(t, Config{Workers: 1, CacheSize: 16})
	h := srv.Handler()
	req := wire.GenerateRequest{UseCase: 11}
	serveGenerate(t, h, req)
	assertHitBody(t, srv, req, serveGenerate(t, h, req))

	key := wire.RouteKey(srv.registry.Snapshot().Fingerprint, req)
	name, src, _, err := wire.UseCaseSource(req.UseCase)
	if err != nil {
		t.Fatal(err)
	}
	resp, _ := srv.cache.get(key)
	resp.Output += "// replaced by put\n"
	srv.cache.put(key, resp, name, src, "", false)
	if got := assertHitBody(t, srv, req, serveGenerate(t, h, req)); got.Output != resp.Output {
		t.Fatal("hit after put served the replaced response")
	}

	resp.Output += "// replaced by restore\n"
	srv.cache.restore([]persist.Entry{{Key: key, Name: name, Source: src, Response: resp}})
	if got := assertHitBody(t, srv, req, serveGenerate(t, h, req)); got.Output != resp.Output {
		t.Fatal("hit after restore served the pre-restore response")
	}
}

// TestHitBodyConcurrentReplace: hits racing puts that replace their entry
// only ever see a complete body of one of the entry's responses.
func TestHitBodyConcurrentReplace(t *testing.T) {
	c := newResultCache(4)
	var valid [2][]byte
	var resps [2]wire.GenerateResponse
	for i := range resps {
		resps[i] = wire.GenerateResponse{Name: "t.go", Output: strconv.Itoa(i), Fingerprint: "fp"}
		hit := resps[i]
		hit.Cached = true
		body, err := encodeBody(hit)
		if err != nil {
			t.Fatal(err)
		}
		valid[i] = body
	}
	c.put("k", resps[0], "t.go", "src", "", false)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			c.put("k", resps[i%2], "t.go", "src", "", false)
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				body, ok, err := c.getBody("k")
				if !ok || err != nil || !(bytes.Equal(body, valid[0]) || bytes.Equal(body, valid[1])) {
					t.Errorf("getBody = %q, %t, %v", body, ok, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestHitBodyAfterReload: a reload that changes the rule-set fingerprint
// keys the same request to a new entry, whose hits carry the new
// fingerprint rather than the old entry's memoized bytes.
func TestHitBodyAfterReload(t *testing.T) {
	var genNo atomic.Int64
	srv, _ := chaosServer(t, Config{
		Workers: 1,
		Loader: func() (*crysl.RuleSet, error) {
			return stormRuleSet(int(genNo.Load()))
		},
	})
	h := srv.Handler()
	req := wire.GenerateRequest{Name: "storm.go", Source: stormTemplate}
	serveGenerate(t, h, req)
	before := assertHitBody(t, srv, req, serveGenerate(t, h, req))

	genNo.Add(1)
	if _, err := srv.ReloadRules(); err != nil {
		t.Fatal(err)
	}
	serveGenerate(t, h, req)
	after := assertHitBody(t, srv, req, serveGenerate(t, h, req))
	if after.Fingerprint == before.Fingerprint {
		t.Fatalf("reload kept fingerprint %s", after.Fingerprint)
	}
}

// TestCompactJSONEverywhere: every endpoint, error envelopes included,
// answers with one line of compact JSON.
func TestCompactJSONEverywhere(t *testing.T) {
	srv, _ := chaosServer(t, Config{Workers: 1, CacheSize: 4})
	h := srv.Handler()
	for _, path := range []string{"/healthz", "/readyz", "/metrics", "/v1/rules", "/v1/templates", "/v1/generate"} {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, path, nil))
		body := rw.Body.Bytes()
		var compact bytes.Buffer
		if err := json.Compact(&compact, body); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		compact.WriteByte('\n')
		if !bytes.Equal(body, compact.Bytes()) {
			t.Errorf("%s: body is not compact JSON: %.80s", path, body)
		}
	}
}

// TestAppendJSONFloat: the spliced duration_ms is formatted exactly as
// encoding/json formats a float64, across both of its notations.
func TestAppendJSONFloat(t *testing.T) {
	for _, f := range []float64{0, 1e-9, 1e-7, 9.99e-7, 1e-6, 0.0123, 0.5, 1, 3.25, 12.345678901, 1234567, 1e20, 1e21, 3.5e22, -0.75, -2e-8, math.MaxFloat64, math.SmallestNonzeroFloat64} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("appendJSONFloat(%v) = %s, want %s", f, got, want)
		}
	}
}

// TestHitAllocBudget pins the allocation count of a cache hit: through
// the whole handler on a recorder, and through GenerateBody alone, which
// must serve the memoized body without encoding.
func TestHitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	srv, _ := chaosServer(t, Config{Workers: 1, CacheSize: 16})
	h := srv.Handler()
	req := wire.GenerateRequest{UseCase: 3}
	serveGenerate(t, h, req)
	serveGenerate(t, h, req)

	const runs = 50
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]*http.Request, runs+1) // AllocsPerRun adds one warm-up run
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/generate", bytes.NewReader(data))
	}
	i := 0
	// Measured 24 allocs per hit (recorder included) with go1.24.
	if n := testing.AllocsPerRun(runs, func() {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, reqs[i])
		i++
	}); n > 28 {
		t.Errorf("handler hit: %.0f allocs, budget 28", n)
	}
	// Measured 1 alloc: the cache-key string.
	ctx := context.Background()
	if n := testing.AllocsPerRun(runs, func() {
		if _, err := srv.GenerateBody(ctx, req); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("GenerateBody hit: %.0f allocs, budget 2", n)
	}
}

// TestPipelineMissAllocBudget pins the allocation count of a full-pipeline
// miss: a verified generation of a body neither cache has seen, through
// Server.Generate on one worker.
func TestPipelineMissAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	srv, _ := chaosServer(t, Config{Workers: 1, CacheSize: 16})
	// The startup plan warm generates every template in the background;
	// let it finish so its allocations stay out of the count.
	all := len(templates.UseCases) + len(templates.Extensions)
	for deadline := time.Now().Add(30 * time.Second); srv.registry.Snapshot().Plans.Len() < all; {
		if time.Now().After(deadline) {
			t.Fatal("startup plan warm did not finish")
		}
		time.Sleep(10 * time.Millisecond)
	}
	uc, err := templates.ByID(3)
	if err != nil {
		t.Fatal(err)
	}
	src, err := templates.Source(uc)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 20
	reqs := make([]wire.GenerateRequest, runs+2) // one warm-up here, one in AllocsPerRun
	for i := range reqs {
		// A renamed struct type makes a body new to the result and plan caches.
		body := strings.ReplaceAll(src, "PBEByteArrayEncryptor", "PBEByteArrayEncryptorV"+strconv.Itoa(i))
		reqs[i] = wire.GenerateRequest{Name: uc.File, Source: body, Verify: true}
	}
	ctx := context.Background()
	generate := func(req wire.GenerateRequest) {
		resp, err := srv.Generate(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cached {
			t.Fatal("fresh body served from a cache")
		}
	}
	generate(reqs[0])
	i := 1
	// Measured 7,829 allocs with go1.24.
	if n := testing.AllocsPerRun(runs, func() {
		generate(reqs[i])
		i++
	}); n > 8400 {
		t.Errorf("pipeline miss: %.0f allocs, budget 8400", n)
	}
}
