package client

import (
	"context"
	"net/http"
	"testing"
	"time"

	"cognicryptgen/internal/latwindow"
	"cognicryptgen/wire"
)

// rankFakes orders two fake nodes as the client's router will for req
// (fingerprint "" — no response observed yet), so tests can script "the
// primary" and "the hedge target" deterministically.
func rankFakes(req wire.GenerateRequest, a, b *fakeNode) (primary, secondary *fakeNode) {
	order := wire.RendezvousRank(wire.RouteKey("", req), []string{a.ts.URL, b.ts.URL})
	if order[0] == a.ts.URL {
		return a, b
	}
	return b, a
}

// TestHedgeWinsAgainstSlowPrimary: the primary owner answers after 200ms,
// the hedge delay is 20ms, and the next-ranked node is fast — the hedge
// fires, wins, and the call returns the hedge node's answer long before
// the primary would have.
func TestHedgeWinsAgainstSlowPrimary(t *testing.T) {
	a, b := newFakeNode(t), newFakeNode(t)
	req := wire.GenerateRequest{Name: "t.go", Source: "package p"}
	primary, secondary := rankFakes(req, a, b)
	primary.script = func(w http.ResponseWriter, n int, r wire.GenerateRequest) bool {
		time.Sleep(200 * time.Millisecond)
		return false
	}
	c := mustClient(t, Config{
		Nodes:      []string{a.ts.URL, b.ts.URL},
		Hedge:      true,
		HedgeDelay: 20 * time.Millisecond,
	})
	start := time.Now()
	resp, err := c.Generate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Fatalf("hedged call took %v, want well under the primary's 200ms", elapsed)
	}
	if want := "out:" + secondary.ts.URL; resp.Output != want {
		t.Fatalf("want the hedge node's answer %q, got %q", want, resp.Output)
	}
	s := c.Stats()
	if s.HedgedTotal != 1 || s.HedgeWins != 1 {
		t.Fatalf("want hedged_total=1 hedge_wins=1, got %+v", s)
	}
}

// TestHedgePrimaryWinsUnderDelay: a primary faster than the hedge delay
// never triggers a hedge at all.
func TestHedgePrimaryWinsUnderDelay(t *testing.T) {
	a, b := newFakeNode(t), newFakeNode(t)
	req := wire.GenerateRequest{Name: "t.go", Source: "package p"}
	primary, secondary := rankFakes(req, a, b)
	c := mustClient(t, Config{
		Nodes:      []string{a.ts.URL, b.ts.URL},
		Hedge:      true,
		HedgeDelay: 250 * time.Millisecond,
	})
	resp, err := c.Generate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if want := "out:" + primary.ts.URL; resp.Output != want {
		t.Fatalf("want the primary's answer %q, got %q", want, resp.Output)
	}
	if s := c.Stats(); s.HedgedTotal != 0 || s.HedgeWins != 0 {
		t.Fatalf("no hedge should have fired: %+v", s)
	}
	if secondary.generateCount() != 0 {
		t.Fatalf("secondary saw %d requests, want 0", secondary.generateCount())
	}
}

// TestHedgeBudgetGated: with the retry budget drained, the hedge timer
// firing does NOT send a hedge — the call degrades to waiting for the
// slow primary, so hedging can never amplify an overloaded cluster.
func TestHedgeBudgetGated(t *testing.T) {
	a, b := newFakeNode(t), newFakeNode(t)
	req := wire.GenerateRequest{Name: "t.go", Source: "package p"}
	primary, secondary := rankFakes(req, a, b)
	primary.script = func(w http.ResponseWriter, n int, r wire.GenerateRequest) bool {
		time.Sleep(80 * time.Millisecond)
		return false
	}
	c := mustClient(t, Config{
		Nodes:       []string{a.ts.URL, b.ts.URL},
		Hedge:       true,
		HedgeDelay:  10 * time.Millisecond,
		RetryBudget: 2,
	})
	for c.budget.Withdraw() {
	}
	resp, err := c.Generate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if want := "out:" + primary.ts.URL; resp.Output != want {
		t.Fatalf("want the primary's answer %q, got %q", want, resp.Output)
	}
	if s := c.Stats(); s.HedgedTotal != 0 {
		t.Fatalf("budget-gated hedge still fired: %+v", s)
	}
	if secondary.generateCount() != 0 {
		t.Fatalf("secondary saw %d requests, want 0", secondary.generateCount())
	}
}

// TestHedgeAutoDelayNeedsSamples: HedgeDelay 0 means p99-derived; with no
// latency history the client must not hedge on a guess.
func TestHedgeAutoDelayNeedsSamples(t *testing.T) {
	a, b := newFakeNode(t), newFakeNode(t)
	req := wire.GenerateRequest{Name: "t.go", Source: "package p"}
	c := mustClient(t, Config{
		Nodes: []string{a.ts.URL, b.ts.URL},
		Hedge: true,
	})
	if _, err := c.Generate(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.HedgedTotal != 0 {
		t.Fatalf("hedge fired without latency samples: %+v", s)
	}
	// After enough successes the p99 derivation engages.
	for i := 0; i < latwindow.MinSamples; i++ {
		c.lats.Observe(5 * time.Millisecond)
	}
	if d := c.hedgeDelay(); d < time.Millisecond || d > 50*time.Millisecond {
		t.Fatalf("derived hedge delay %v out of expected range", d)
	}
}

// TestHedgeTerminalErrorSettles: a terminal (400) envelope from the
// primary ends the whole call — no hedge result awaited, no retry.
func TestHedgeTerminalErrorSettles(t *testing.T) {
	a, b := newFakeNode(t), newFakeNode(t)
	req := wire.GenerateRequest{Name: "t.go", Source: "package p"}
	primary, _ := rankFakes(req, a, b)
	primary.script = func(w http.ResponseWriter, n int, r wire.GenerateRequest) bool {
		writeEnvelope(w, wire.NewError(http.StatusBadRequest, "bad template"))
		return true
	}
	c := mustClient(t, Config{
		Nodes:      []string{a.ts.URL, b.ts.URL},
		Hedge:      true,
		HedgeDelay: 20 * time.Millisecond,
	})
	_, err := c.Generate(context.Background(), req)
	if err == nil {
		t.Fatal("want terminal error")
	}
	if a.generateCount()+b.generateCount() != 1 {
		t.Fatalf("terminal error retried: %d total requests", a.generateCount()+b.generateCount())
	}
}

// TestHedgeFallsBackToRetryPath: the primary fails retryably (503) before
// the hedge timer — the race settles nothing and the ordinary retry path
// takes over, failing over to the healthy node.
func TestHedgeFallsBackToRetryPath(t *testing.T) {
	a, b := newFakeNode(t), newFakeNode(t)
	req := wire.GenerateRequest{Name: "t.go", Source: "package p"}
	primary, secondary := rankFakes(req, a, b)
	primary.script = func(w http.ResponseWriter, n int, r wire.GenerateRequest) bool {
		writeEnvelope(w, wire.NewError(http.StatusServiceUnavailable, "draining"))
		return true
	}
	c := mustClient(t, Config{
		Nodes:       []string{a.ts.URL, b.ts.URL},
		Hedge:       true,
		HedgeDelay:  5 * time.Second, // never fires; the fallback must do the work
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
	})
	resp, err := c.Generate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if want := "out:" + secondary.ts.URL; resp.Output != want {
		t.Fatalf("want failover answer %q, got %q", want, resp.Output)
	}
}
