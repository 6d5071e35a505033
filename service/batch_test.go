package service

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"

	"cognicryptgen/templates"
	"cognicryptgen/wire"
)

// TestBatchMatchesSequential: POST /v1/generate/batch over all 13 embedded
// templates returns, per item, output byte-identical to a sequential
// /v1/generate of the same request.
func TestBatchMatchesSequential(t *testing.T) {
	_, ts := sharedService(t)
	cases := append(append([]templates.UseCase(nil), templates.UseCases...), templates.Extensions...)

	want := make([]string, len(cases))
	var breq wire.BatchRequest
	for i, uc := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/generate", wire.GenerateRequest{UseCase: uc.ID})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sequential use case %d: status %d: %s", uc.ID, resp.StatusCode, body)
		}
		var g wire.GenerateResponse
		if err := json.Unmarshal(body, &g); err != nil {
			t.Fatal(err)
		}
		want[i] = g.Output
		breq.Requests = append(breq.Requests, wire.GenerateRequest{UseCase: uc.ID})
	}

	resp, body := postJSON(t, ts.URL+"/v1/generate/batch", breq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, body)
	}
	var bresp wire.BatchResponse
	if err := json.Unmarshal(body, &bresp); err != nil {
		t.Fatal(err)
	}
	if len(bresp.Results) != len(cases) || bresp.Succeeded != len(cases) || bresp.Failed != 0 {
		t.Fatalf("batch outcome: %d results, %d succeeded, %d failed; want %d/%d/0",
			len(bresp.Results), bresp.Succeeded, bresp.Failed, len(cases), len(cases))
	}
	for i, item := range bresp.Results {
		if !item.OK || item.Response == nil {
			t.Errorf("item %d: not ok: %s", i, item.Error)
			continue
		}
		if item.Index != i {
			t.Errorf("item %d: index = %d", i, item.Index)
		}
		if item.Response.Output != want[i] {
			t.Errorf("item %d (use case %d): batch output differs from sequential /v1/generate", i, cases[i].ID)
		}
	}
}

// TestBatchPartialFailure: one bad template fails its own slot only.
func TestBatchPartialFailure(t *testing.T) {
	_, ts := sharedService(t)
	breq := wire.BatchRequest{Requests: []wire.GenerateRequest{
		{UseCase: 11},
		{Name: "bad.go", Source: "package bad\n\nfunc B() { undefinedSymbol() }\n"},
	}}
	resp, body := postJSON(t, ts.URL+"/v1/generate/batch", breq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial batch must be 200, got %d: %s", resp.StatusCode, body)
	}
	var bresp wire.BatchResponse
	if err := json.Unmarshal(body, &bresp); err != nil {
		t.Fatal(err)
	}
	if bresp.Succeeded != 1 || bresp.Failed != 1 {
		t.Fatalf("succeeded/failed = %d/%d, want 1/1", bresp.Succeeded, bresp.Failed)
	}
	if !bresp.Results[0].OK || bresp.Results[0].Response == nil {
		t.Errorf("good item failed: %s", bresp.Results[0].Error)
	}
	if bresp.Results[1].OK || bresp.Results[1].Error == "" || bresp.Results[1].Status != http.StatusBadRequest {
		t.Errorf("bad item = %+v, want a 400-classed error", bresp.Results[1])
	}
}

// TestBatchValidation: malformed batches are the client's 400; the method
// check holds.
func TestBatchValidation(t *testing.T) {
	_, ts := sharedService(t)
	resp, body := postJSON(t, ts.URL+"/v1/generate/batch", wire.BatchRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400: %s", resp.StatusCode, body)
	}
	over := wire.BatchRequest{Requests: make([]wire.GenerateRequest, maxBatchItems+1)}
	resp, body = postJSON(t, ts.URL+"/v1/generate/batch", over)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversize batch: status %d, want 400: %s", resp.StatusCode, body)
	}
	getResp, err := http.Get(ts.URL + "/v1/generate/batch")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET batch: status %d, want 405", getResp.StatusCode)
	}
}

// TestCoalescingSingleGeneration is the singleflight contract: N
// concurrent identical cache misses trigger exactly one generation
// (cache_misses == 1) and every caller receives byte-identical output. The
// followers are accounted for as either coalesced (joined the leader's
// flight) or cache hits (arrived after the leader populated the cache).
func TestCoalescingSingleGeneration(t *testing.T) {
	srv, err := New(Config{Workers: 4, CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	uc, err := templates.ByID(11)
	if err != nil {
		t.Fatal(err)
	}
	src, err := templates.Source(uc)
	if err != nil {
		t.Fatal(err)
	}
	req := wire.GenerateRequest{Name: "coalesce_test.go", Source: src}

	const n = 8
	outputs := make([]string, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := srv.Generate(context.Background(), req)
			outputs[i], errs[i] = resp.Output, err
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if outputs[i] == "" || outputs[i] != outputs[0] {
			t.Fatalf("caller %d: output differs from caller 0", i)
		}
	}
	m := srv.MetricsSnapshot()
	misses, hits, coalesced := m.CacheMisses, m.CacheHits, m.Coalesced
	if misses != 1 {
		t.Errorf("cache_misses = %d, want exactly 1 generation for %d concurrent identical requests", misses, n)
	}
	if hits+coalesced != n-1 {
		t.Errorf("hits(%d) + coalesced(%d) = %d, want %d followers accounted for", hits, coalesced, hits+coalesced, n-1)
	}
}

// TestBatchDuplicatesCoalesce: a batch full of the same request costs one
// generation thanks to the shared singleflight path.
func TestBatchDuplicatesCoalesce(t *testing.T) {
	srv, err := New(Config{Workers: 4, CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	uc, err := templates.ByID(11)
	if err != nil {
		t.Fatal(err)
	}
	src, err := templates.Source(uc)
	if err != nil {
		t.Fatal(err)
	}
	var breq wire.BatchRequest
	for i := 0; i < 6; i++ {
		breq.Requests = append(breq.Requests, wire.GenerateRequest{Name: "dup_batch.go", Source: src})
	}
	bresp, err := srv.GenerateBatch(context.Background(), breq)
	if err != nil {
		t.Fatal(err)
	}
	if bresp.Failed != 0 {
		for _, item := range bresp.Results {
			if !item.OK {
				t.Errorf("item %d: %s", item.Index, item.Error)
			}
		}
		t.Fatalf("%d batch items failed", bresp.Failed)
	}
	for i, item := range bresp.Results {
		if item.Response.Output != bresp.Results[0].Response.Output {
			t.Errorf("item %d output differs within a duplicate batch", i)
		}
	}
	m := srv.MetricsSnapshot()
	if misses := m.CacheMisses; misses != 1 {
		t.Errorf("cache_misses = %d, want 1 for a duplicate batch", misses)
	}
}
