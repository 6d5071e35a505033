package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"cognicryptgen/gen"
	"cognicryptgen/rules"
	"cognicryptgen/templates"
	"cognicryptgen/wire"
)

var (
	sharedOnce sync.Once
	sharedSrv  *Server
	sharedHTTP *httptest.Server
	sharedErr  error
)

// sharedService amortises rule compilation and worker warm-up across the
// package's tests; individual tests that need special configs (timeouts,
// drain) build their own Server.
func sharedService(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	sharedOnce.Do(func() {
		sharedSrv, sharedErr = New(Config{Workers: 4, CacheSize: 64})
		if sharedErr != nil {
			return
		}
		sharedHTTP = httptest.NewServer(sharedSrv.Handler())
	})
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return sharedSrv, sharedHTTP
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, into any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestGenerateAllUseCasesByteIdentical is the core service guarantee: for
// all 13 embedded templates, POST /v1/generate returns output
// byte-identical to what cmd/cryptgen's Generator produces (same rules,
// same options, including verification).
func TestGenerateAllUseCasesByteIdentical(t *testing.T) {
	_, ts := sharedService(t)
	direct, err := gen.New(rules.MustLoad(), "", gen.Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, uc := range append(append([]templates.UseCase(nil), templates.UseCases...), templates.Extensions...) {
		src, err := templates.Source(uc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := direct.GenerateFile(uc.File, src)
		if err != nil {
			t.Fatalf("direct generation of %s: %v", uc.File, err)
		}
		resp, body := postJSON(t, ts.URL+"/v1/generate", wire.GenerateRequest{UseCase: uc.ID, Verify: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("use case %d: status %d: %s", uc.ID, resp.StatusCode, body)
		}
		var got wire.GenerateResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if got.Output != want.Output {
			t.Errorf("use case %d (%s): service output differs from direct generation", uc.ID, uc.File)
		}
		if got.Name != uc.File {
			t.Errorf("use case %d: name = %q, want %q", uc.ID, got.Name, uc.File)
		}
		if got.Fingerprint == "" {
			t.Errorf("use case %d: missing rule-set fingerprint", uc.ID)
		}
		if got.Report == nil || len(got.Report.Methods) == 0 {
			t.Errorf("use case %d: missing generation report", uc.ID)
		}
	}
}

// TestGenerateCached: a repeated identical request is served from the
// result cache and marked as such.
func TestGenerateCached(t *testing.T) {
	_, ts := sharedService(t)
	req := wire.GenerateRequest{UseCase: 11} // hashing: cheap
	resp, body := postJSON(t, ts.URL+"/v1/generate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var first wire.GenerateResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}

	resp, body = postJSON(t, ts.URL+"/v1/generate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var second wire.GenerateResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("second identical request was not served from cache")
	}
	if second.Output != first.Output {
		t.Error("cached output differs from first generation")
	}

	var m map[string]any
	getJSON(t, ts.URL+"/metrics", &m)
	if hits, _ := m["cache_hits"].(float64); hits < 1 {
		t.Errorf("metrics report %v cache hits, want >= 1", m["cache_hits"])
	}
}

// TestGenerateMalformedTemplate400: a template that does not type-check is
// the client's error.
func TestGenerateMalformedTemplate400(t *testing.T) {
	_, ts := sharedService(t)
	resp, body := postJSON(t, ts.URL+"/v1/generate", wire.GenerateRequest{
		Name:   "broken.go",
		Source: "package broken\n\nfunc Broken() { undefinedSymbol() }\n",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body: %s", resp.StatusCode, body)
	}
	var e wire.Error
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Status != http.StatusBadRequest || e.Message == "" || e.Code != wire.CodeInvalidRequest {
		t.Errorf("error body = %+v, want an invalid_request envelope with a message", e)
	}
}

// TestGenerateBadRequests covers the request-validation 400s and the
// method check.
func TestGenerateBadRequests(t *testing.T) {
	_, ts := sharedService(t)
	for name, body := range map[string]string{
		"invalid json":       "{not json",
		"empty":              "{}",
		"unknown usecase":    `{"usecase": 99}`,
		"source and usecase": `{"usecase": 1, "source": "package p"}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/generate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/generate: status = %d, want 405", resp.StatusCode)
	}
}

// TestGenerateTimeout503: a request whose context expires before a worker
// picks it up is answered 503, the retryable class.
func TestGenerateTimeout503(t *testing.T) {
	srv, err := New(Config{Workers: 1, RequestTimeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/generate", wire.GenerateRequest{UseCase: 11})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503; body: %s", resp.StatusCode, body)
	}
	var m map[string]any
	getJSON(t, ts.URL+"/metrics", &m)
	if timeouts, _ := m["timeouts"].(float64); timeouts < 1 {
		t.Errorf("metrics report %v timeouts, want >= 1", m["timeouts"])
	}
}

// TestPoolDrain: Close completes queued work and rejects later
// submissions with ErrClosed (mapped to 503 by the HTTP layer).
func TestPoolDrain(t *testing.T) {
	reg, err := NewRegistry(nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPoolConfig(reg, "", PoolConfig{Workers: 2, QueueSize: 8, MaxWaiters: -1})
	var ran int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := pool.Submit(context.Background(), func(_ context.Context, w *Worker) (any, error) {
				mu.Lock()
				ran++
				mu.Unlock()
				return nil, nil
			})
			if err != nil && err != ErrClosed {
				t.Errorf("submit: %v", err)
			}
		}()
	}
	wg.Wait()
	pool.Close()
	if _, err := pool.Submit(context.Background(), func(_ context.Context, w *Worker) (any, error) { return nil, nil }); err != ErrClosed {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if ran != 8 {
		t.Fatalf("ran %d jobs before Close, want all 8", ran)
	}
}

// TestConcurrentGenerateRequests fans 16 concurrent clients over the
// embedded templates through the full HTTP stack — the service-side
// counterpart of gen's TestConcurrentGeneration, run under -race in CI.
func TestConcurrentGenerateRequests(t *testing.T) {
	_, ts := sharedService(t)
	cases := append(append([]templates.UseCase(nil), templates.UseCases...), templates.Extensions...)
	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			uc := cases[i%len(cases)]
			resp, body := postJSONNoFatal(ts.URL+"/v1/generate", wire.GenerateRequest{UseCase: uc.ID})
			if resp == nil {
				errs <- fmt.Errorf("client %d: request failed", i)
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("client %d (uc%d): status %d: %s", i, uc.ID, resp.StatusCode, body)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func postJSONNoFatal(url string, body any) (*http.Response, []byte) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, nil
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return nil, nil
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}
