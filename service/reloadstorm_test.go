package service

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cognicryptgen/crysl"
	"cognicryptgen/gen"
	"cognicryptgen/templates"
	"cognicryptgen/wire"
)

// stormTemplate is a minimal valid template against the one-rule storm
// sets below (mirrors gen's mini template).
const stormTemplate = `//go:build cryptgen_template

package mini

import (
	"cognicryptgen/gca"
	cryslgen "cognicryptgen/gen/fluent"
)

// Hasher hashes.
type Hasher struct{}

// Hash hashes data.
func (h *Hasher) Hash(data []byte) ([]byte, error) {
	var digest []byte
	cryslgen.NewGenerator().
		ConsiderRule("gca.MessageDigest").AddParameter(data, "input").AddReturnObject(digest).
		Generate()
	_ = gca.ErrInvalidState
	return digest, nil
}
`

// stormRuleSet builds generation n of a one-rule set whose ORDER grows an
// Update event per generation, so every reload changes BOTH the rule-set
// fingerprint (plan-cache key) and the rule's DFA fingerprint (path-cache
// key) — the worst case for the shared caches.
func stormRuleSet(n int) (*crysl.RuleSet, error) {
	var b strings.Builder
	b.WriteString("SPEC gca.MessageDigest\nOBJECTS\n    string hashAlg;\n    []byte input;\n    []byte digest;\nEVENTS\n    c1: NewMessageDigest(_);\n")
	order := []string{"c1"}
	for i := 0; i <= n; i++ {
		fmt.Fprintf(&b, "    u%d: Update(input);\n", i)
		order = append(order, fmt.Sprintf("u%d", i))
	}
	order = append(order, "d1")
	b.WriteString("    d1: digest := Digest();\nORDER\n    " + strings.Join(order, ", ") + "\n")
	rule, err := crysl.ParseRule(fmt.Sprintf("storm%d.crysl", n), b.String())
	if err != nil {
		return nil, err
	}
	set := crysl.NewRuleSet()
	if err := set.Add(rule); err != nil {
		return nil, err
	}
	return set, nil
}

// TestReloadStormKeepsCachesBounded is the regression test for unbounded
// shared-cache growth across reload storms: 50 reloads, each producing a
// fingerprint never seen before and each followed by a generation that
// compiles a plan. Without the registry's generation-scoped eviction the
// path and plan caches would end holding ~51 entries each; with it they
// hold exactly the live generation's.
func TestReloadStormKeepsCachesBounded(t *testing.T) {
	var genNo atomic.Int64
	reg, err := NewRegistry(func() (*crysl.RuleSet, error) {
		return stormRuleSet(int(genNo.Load()))
	})
	if err != nil {
		t.Fatal(err)
	}
	const storms = 50
	for i := 1; i <= storms; i++ {
		genNo.Store(int64(i))
		snap, err := reg.Reload()
		if err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
		g, err := gen.New(snap.Rules, "", gen.Options{Paths: snap.Paths, Plans: snap.Plans})
		if err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
		if _, err := g.GenerateFile(fmt.Sprintf("storm%d.go", i), stormTemplate); err != nil {
			t.Fatalf("reload %d: generating against the new snapshot: %v", i, err)
		}
	}
	if n := reg.Paths().Len(); n != 1 {
		t.Errorf("path cache holds %d enumerations after %d reloads, want 1 (the live rule's); unbounded growth regression", n, storms)
	}
	if n := reg.Plans().Len(); n != 1 {
		t.Errorf("plan cache holds %d plans after %d reloads, want 1 (the live generation's); unbounded growth regression", n, storms)
	}
	if b := reg.Plans().Bytes(); b <= 0 {
		t.Errorf("plan cache bytes = %d after eviction, want > 0 for the resident plan", b)
	}
}

// TestPlanMetricsReported: /metrics' plan counters move when the plan
// fast path serves warm-uncached requests. Deltas, not absolutes — the
// daemon warms plans in the background at startup.
func TestPlanMetricsReported(t *testing.T) {
	srv, ts := chaosServer(t, Config{Workers: 1, CacheSize: 4})
	before := srv.MetricsSnapshot()

	uc, err := templates.ByID(1)
	if err != nil {
		t.Fatal(err)
	}
	src, err := templates.Source(uc)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct names over one body: every request misses the result cache,
	// and at latest the second is served straight from the compiled plan.
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/generate",
			wire.GenerateRequest{Name: fmt.Sprintf("plan_metric_%d.go", i), Source: src})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	m := srv.MetricsSnapshot()
	if m.PlanEntries <= 0 {
		t.Errorf("plan_entries = %d, want > 0", m.PlanEntries)
	}
	if m.PlanBytes <= 0 {
		t.Errorf("plan_bytes = %d, want > 0", m.PlanBytes)
	}
	if m.PlanHits <= before.PlanHits {
		t.Errorf("plan_hits did not advance: %d -> %d over a warm-uncached burst", before.PlanHits, m.PlanHits)
	}
}

// TestConcurrentReloadAndGenerate races /v1/reload storms (every reload a
// brand-new fingerprint, hence plan compilation, warming, and eviction)
// against concurrent warm-uncached generations. Run under -race by
// scripts/verify.sh; the assertions here are the survival contract — every
// request serves, and the shared caches end bounded.
func TestConcurrentReloadAndGenerate(t *testing.T) {
	var genNo atomic.Int64
	srv, ts := chaosServer(t, Config{
		Workers: 2,
		Loader: func() (*crysl.RuleSet, error) {
			return stormRuleSet(int(genNo.Add(1)))
		},
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			resp, _ := postJSONNoFatal(ts.URL+"/v1/reload", struct{}{})
			if resp == nil || resp.StatusCode != http.StatusOK {
				t.Errorf("reload %d failed", i)
				return
			}
		}
	}()
	const clients = 4
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp, body := postJSONNoFatal(ts.URL+"/v1/generate",
					wire.GenerateRequest{Name: fmt.Sprintf("race_%d_%d.go", c, i), Source: stormTemplate})
				if resp == nil || resp.StatusCode != http.StatusOK {
					var b []byte
					if resp != nil {
						b = body
					}
					t.Errorf("client %d request %d failed: %s", c, i, b)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	reg := srv.Registry()
	if n := reg.Plans().Len(); n > 4 {
		t.Errorf("plan cache holds %d plans after concurrent reloads, want a small bounded set", n)
	}
	if n := reg.Paths().Len(); n > 4 {
		t.Errorf("path cache holds %d enumerations after concurrent reloads, want a small bounded set", n)
	}
}
