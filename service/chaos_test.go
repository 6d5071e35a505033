package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cognicryptgen/internal/faultinject"
	"cognicryptgen/templates"
	"cognicryptgen/wire"
)

// The chaos suite drives the daemon through injected faults — worker
// panics, reload failures, latency storms — and asserts the resilience
// contracts: one request fails, the process and its neighbours survive.
// scripts/verify.sh runs these under -race. Faults are process-global, so
// none of these tests may call t.Parallel.

// chaosServer builds an isolated server + HTTP listener so injected
// faults cannot leak into the shared service used by the rest of the
// package.
func mustUnmarshal(t *testing.T, data []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("unmarshalling %s: %v", data, err)
	}
}

func chaosServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// TestChaosWorkerPanic: a panic on a pool worker mid-request must answer
// that one request with a 500 (typed internal error, panics_recovered
// bumped) while the worker survives and serves the very next request.
func TestChaosWorkerPanic(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	srv, ts := chaosServer(t, Config{Workers: 2, CacheSize: 8})

	uc, err := templates.ByID(1)
	if err != nil {
		t.Fatal(err)
	}
	src, err := templates.Source(uc)
	if err != nil {
		t.Fatal(err)
	}

	// Distinct source bodies per request: the fault under test lives on
	// the worker path, and a request whose body matches a resident plan
	// would be served by the byte-splice fast path without ever reaching
	// the pool.
	faultinject.Arm(faultinject.PointWorkerExec, faultinject.Fault{Mode: faultinject.ModePanic, Times: 1})
	resp, body := postJSON(t, ts.URL+"/v1/generate", wire.GenerateRequest{Name: "chaos_panic_1.go", Source: src + "\n// chaos: panic 1\n"})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("request during injected panic: status %d, want 500: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "internal error") {
		t.Errorf("500 body does not say internal error: %s", body)
	}

	// The fault self-disarmed after one firing; the same daemon — and
	// possibly the same worker goroutine — must serve the next request.
	resp, body = postJSON(t, ts.URL+"/v1/generate", wire.GenerateRequest{Name: "chaos_panic_2.go", Source: src + "\n// chaos: panic 2\n"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after recovered panic: status %d: %s", resp.StatusCode, body)
	}

	m := srv.MetricsSnapshot()
	if n := m.PanicsRecovered; n < 1 {
		t.Errorf("panics_recovered = %v, want >= 1", n)
	}
}

// TestChaosReloadFailureKeepsLastGood: a reload that fails at the swap
// fault point must (a) answer /v1/reload with a 500, (b) flip /readyz to
// degraded with the failed candidate's fingerprint, (c) leave the exact
// last-good snapshot serving — all 13 templates byte-identical to their
// pre-fault outputs — and (d) clear back to ok on the next successful
// reload.
func TestChaosReloadFailureKeepsLastGood(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	srv, ts := chaosServer(t, Config{Workers: 2, CacheSize: 4})

	cases := append(append([]templates.UseCase(nil), templates.UseCases...), templates.Extensions...)
	want := make(map[int]string, len(cases))
	for _, uc := range cases {
		src, err := templates.Source(uc)
		if err != nil {
			t.Fatal(err)
		}
		resp, body := postJSON(t, ts.URL+"/v1/generate",
			wire.GenerateRequest{Name: fmt.Sprintf("chaos_pre_%d.go", uc.ID), Source: src})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("use case %d before fault: status %d: %s", uc.ID, resp.StatusCode, body)
		}
		var gr wire.GenerateResponse
		mustUnmarshal(t, body, &gr)
		want[uc.ID] = stripHeaderLine(gr.Output)
	}
	snapBefore := srv.Registry().Snapshot()

	faultinject.Arm(faultinject.PointReloadSwap, faultinject.Fault{Mode: faultinject.ModeError, Times: 1})
	resp, body := postJSON(t, ts.URL+"/v1/reload", struct{}{})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("reload with injected swap fault: status %d: %s", resp.StatusCode, body)
	}

	var ready map[string]any
	if r := getJSON(t, ts.URL+"/readyz", &ready); r.StatusCode != http.StatusOK {
		t.Fatalf("readyz while degraded: status %d", r.StatusCode)
	}
	if ready["status"] != "degraded" {
		t.Fatalf("readyz status = %v, want degraded", ready["status"])
	}
	if fp, _ := ready["failed_fingerprint"].(string); fp != snapBefore.Fingerprint {
		t.Errorf("failed_fingerprint = %q, want the candidate's %q", fp, snapBefore.Fingerprint)
	}
	if le, _ := ready["last_error"].(string); !strings.Contains(le, "swapping in rule set") {
		t.Errorf("last_error = %q does not name the swap failure", le)
	}

	if srv.Registry().Snapshot() != snapBefore {
		t.Fatal("failed reload replaced the snapshot")
	}
	for _, uc := range cases {
		src, err := templates.Source(uc)
		if err != nil {
			t.Fatal(err)
		}
		resp, body := postJSON(t, ts.URL+"/v1/generate",
			wire.GenerateRequest{Name: fmt.Sprintf("chaos_post_%d.go", uc.ID), Source: src})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("use case %d after failed reload: status %d: %s", uc.ID, resp.StatusCode, body)
		}
		var gr wire.GenerateResponse
		mustUnmarshal(t, body, &gr)
		if got := stripHeaderLine(gr.Output); got != want[uc.ID] {
			t.Errorf("use case %d: output changed after failed reload", uc.ID)
		}
	}

	// The fault exhausted itself: the next reload succeeds and readyz
	// recovers.
	resp, body = postJSON(t, ts.URL+"/v1/reload", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload after fault cleared: status %d: %s", resp.StatusCode, body)
	}
	getJSON(t, ts.URL+"/readyz", &ready)
	if ready["status"] != "ok" {
		t.Errorf("readyz after successful reload = %v, want ok", ready["status"])
	}
}

// TestChaosLatencyShedding: with workers wedged by injected latency and a
// tiny queue, excess concurrent requests must be shed with 429 + a
// Retry-After hint instead of queueing without bound; once the latency
// clears, the daemon recovers — requests succeed again and the goroutine
// count drops back to its pre-storm baseline (nothing leaked).
func TestChaosLatencyShedding(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	srv, ts := chaosServer(t, Config{
		Workers:   1,
		QueueSize: 1,
		// One submission may wait behind the full queue; the rest shed.
		MaxWaiters:     1,
		RequestTimeout: 30 * time.Second,
	})

	uc, err := templates.ByID(1)
	if err != nil {
		t.Fatal(err)
	}
	src, err := templates.Source(uc)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the worker's generator so the storm measures queueing, not the
	// one-off type-check warm-up.
	if resp, body := postJSON(t, ts.URL+"/v1/generate", wire.GenerateRequest{Name: "chaos_warm.go", Source: src}); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up: status %d: %s", resp.StatusCode, body)
	}
	baseline := runtime.NumGoroutine()

	faultinject.Arm(faultinject.PointWorkerExec, faultinject.Fault{Mode: faultinject.ModeLatency, Latency: 200 * time.Millisecond})
	const storm = 8
	statuses := make([]int, storm)
	retryAfter := make([]string, storm)
	var wg sync.WaitGroup
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct bodies, not just distinct names: a body matching a
			// resident plan would be spliced inline and never saturate the
			// pool this test is wedging.
			resp, _ := postJSONNoFatal(ts.URL+"/v1/generate",
				wire.GenerateRequest{Name: fmt.Sprintf("chaos_storm_%d.go", i), Source: src + fmt.Sprintf("\n// chaos: storm %d\n", i)})
			if resp != nil {
				statuses[i] = resp.StatusCode
				retryAfter[i] = resp.Header.Get("Retry-After")
			}
		}(i)
	}
	wg.Wait()

	shed := 0
	for i, st := range statuses {
		if st != http.StatusTooManyRequests {
			continue
		}
		shed++
		secs, err := strconv.Atoi(retryAfter[i])
		if err != nil || secs < 1 {
			t.Errorf("429 response %d carries Retry-After %q, want a positive integer", i, retryAfter[i])
		}
	}
	if shed == 0 {
		t.Fatalf("no request was shed under saturation: statuses %v", statuses)
	}
	m := srv.MetricsSnapshot()
	if n := m.ShedTotal; n < 1 {
		t.Errorf("shed_total = %v, want >= 1", n)
	}

	// Clear the fault: the daemon must recover on its own.
	faultinject.Reset()
	if resp, body := postJSON(t, ts.URL+"/v1/generate", wire.GenerateRequest{Name: "chaos_recover.go", Source: src}); resp.StatusCode != http.StatusOK {
		t.Fatalf("request after latency cleared: status %d: %s", resp.StatusCode, body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= baseline+5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not return to baseline: %d now vs %d before the storm", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestBodyCap413: oversized request bodies are rejected with 413 before
// any decoding or pool work happens, on every POST endpoint that reads a
// body.
func TestBodyCap413(t *testing.T) {
	_, ts := chaosServer(t, Config{Workers: 1, MaxBodyBytes: 2048})
	big := wire.GenerateRequest{Name: "big.go", Source: strings.Repeat("// padding\n", 1024)}
	for _, url := range []string{ts.URL + "/v1/generate", ts.URL + "/v1/analyze"} {
		resp, body := postJSON(t, url, big)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413: %s", url, resp.StatusCode, body)
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/generate/batch", wire.BatchRequest{Requests: []wire.GenerateRequest{big}})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("batch: status %d, want 413: %s", resp.StatusCode, body)
	}

	// Well under the cap still works end to end (the cap must not count
	// against the response).
	small, sts := chaosServer(t, Config{Workers: 1})
	_ = small
	uc, err := templates.ByID(1)
	if err != nil {
		t.Fatal(err)
	}
	src, err := templates.Source(uc)
	if err != nil {
		t.Fatal(err)
	}
	if resp, body := postJSON(t, sts.URL+"/v1/generate", wire.GenerateRequest{Name: "cap_ok.go", Source: src}); resp.StatusCode != http.StatusOK {
		t.Fatalf("under-cap request: status %d: %s", resp.StatusCode, body)
	}
}
