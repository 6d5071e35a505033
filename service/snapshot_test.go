package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cognicryptgen/crysl"
	"cognicryptgen/gen"
	"cognicryptgen/internal/faultinject"
	"cognicryptgen/internal/latwindow"
	"cognicryptgen/internal/persist"
	"cognicryptgen/rules"
	"cognicryptgen/templates"
	"cognicryptgen/wire"
)

// allUseCases is every embedded template (base use cases + extensions).
func allUseCases() []templates.UseCase {
	return append(append([]templates.UseCase(nil), templates.UseCases...), templates.Extensions...)
}

// TestSnapshotWarmRestart is the durability round-trip: a server generates
// all embedded templates, closes gracefully (writing its final snapshot),
// and a second server booted on the same directory serves every one of
// them from the restored cache — byte-identical to standalone generation.
func TestSnapshotWarmRestart(t *testing.T) {
	dir := t.TempDir()
	a, err := New(Config{Workers: 2, CacheSize: 64, SnapshotDir: dir, SnapshotInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, uc := range allUseCases() {
		if _, err := a.Generate(ctx, wire.GenerateRequest{UseCase: uc.ID, Verify: true}); err != nil {
			t.Fatalf("use case %d: %v", uc.ID, err)
		}
	}
	a.Close()
	if fi, err := os.Stat(filepath.Join(dir, persist.SnapshotFile)); err != nil || fi.Size() == 0 {
		t.Fatalf("final snapshot missing after Close: %v", err)
	}

	b, err := New(Config{Workers: 2, CacheSize: 64, SnapshotDir: dir, SnapshotInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	m := b.MetricsSnapshot()
	if m.RestoreEntries < int64(len(allUseCases())) {
		t.Fatalf("restored %d entries, want >= %d", m.RestoreEntries, len(allUseCases()))
	}

	direct, err := gen.New(rules.MustLoad(), "", gen.Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, uc := range allUseCases() {
		src, err := templates.Source(uc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := direct.GenerateFile(uc.File, src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.Generate(ctx, wire.GenerateRequest{UseCase: uc.ID, Verify: true})
		if err != nil {
			t.Fatalf("use case %d after restore: %v", uc.ID, err)
		}
		if !got.Cached {
			t.Errorf("use case %d not served from the restored cache", uc.ID)
		}
		if got.Output != want.Output {
			t.Errorf("use case %d (%s): restored output differs from standalone generation", uc.ID, uc.File)
		}
	}
	if hits := b.MetricsSnapshot().CacheHits; hits < int64(len(allUseCases())) {
		t.Errorf("restored node recorded %d cache hits, want >= %d", hits, len(allUseCases()))
	}
}

// writeSeedSnapshot boots a throwaway server on dir, generates one result,
// and closes it so dir holds a small valid snapshot to corrupt.
func writeSeedSnapshot(t *testing.T, dir string) {
	t.Helper()
	s, err := New(Config{Workers: 1, CacheSize: 8, SnapshotDir: dir, SnapshotInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Generate(context.Background(), wire.GenerateRequest{UseCase: 11}); err != nil {
		t.Fatal(err)
	}
	s.Close()
}

// TestSnapshotCorruptionColdStart: every way a snapshot file can be wrong
// — truncated, empty, bad magic, mangled version, flipped payload byte,
// or recorded under a different rule-set fingerprint — boots as a clean
// cold start that still generates correctly. A snapshot must never be able
// to take the daemon down.
func TestSnapshotCorruptionColdStart(t *testing.T) {
	seed := t.TempDir()
	writeSeedSnapshot(t, seed)
	raw, err := os.ReadFile(filepath.Join(seed, persist.SnapshotFile))
	if err != nil {
		t.Fatal(err)
	}

	corruptions := []struct {
		name string
		make func(t *testing.T, dir string)
	}{
		{"truncated-header", func(t *testing.T, dir string) {
			writeFile(t, dir, raw[:12])
		}},
		{"empty", func(t *testing.T, dir string) {
			writeFile(t, dir, nil)
		}},
		{"bad-magic", func(t *testing.T, dir string) {
			b := append([]byte(nil), raw...)
			copy(b, "GARBAGE!")
			writeFile(t, dir, b)
		}},
		{"mangled-version", func(t *testing.T, dir string) {
			b := append([]byte(nil), raw...)
			b[8] ^= 0xFF
			writeFile(t, dir, b)
		}},
		{"crc-mismatch", func(t *testing.T, dir string) {
			b := append([]byte(nil), raw...)
			b[len(b)-1] ^= 0x01
			writeFile(t, dir, b)
		}},
		{"truncated-payload", func(t *testing.T, dir string) {
			writeFile(t, dir, raw[:len(raw)-4])
		}},
		{"fingerprint-mismatch", func(t *testing.T, dir string) {
			st, err := persist.NewStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Save(&persist.Snapshot{
				Fingerprint: "not-the-live-fingerprint",
				Entries: []persist.Entry{{
					Key:      "stale-key",
					Name:     "t.go",
					Source:   "package p",
					Response: wire.GenerateResponse{Name: "t.go", Output: "stale"},
				}},
			}); err != nil {
				t.Fatal(err)
			}
		}},
	}

	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			c.make(t, dir)
			s, err := New(Config{Workers: 1, CacheSize: 8, SnapshotDir: dir, SnapshotInterval: time.Hour})
			if err != nil {
				t.Fatalf("corrupt snapshot killed the boot: %v", err)
			}
			defer s.Close()
			if n := s.MetricsSnapshot().RestoreEntries; n != 0 {
				t.Fatalf("restored %d entries from a corrupt snapshot", n)
			}
			resp, err := s.Generate(context.Background(), wire.GenerateRequest{UseCase: 11})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Cached || resp.Output == "" || resp.Output == "stale" {
				t.Fatalf("cold start served wrong state: cached=%v", resp.Cached)
			}
		})
	}
}

func writeFile(t *testing.T, dir string, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, persist.SnapshotFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotLoadFaultColdStart: a panic injected at the snapshot-load
// point is contained to a logged cold start.
func TestSnapshotLoadFaultColdStart(t *testing.T) {
	dir := t.TempDir()
	writeSeedSnapshot(t, dir)
	faultinject.Arm(faultinject.PointSnapshotLoad, faultinject.Fault{Mode: faultinject.ModePanic, Times: 1})
	defer faultinject.Disarm(faultinject.PointSnapshotLoad)
	s, err := New(Config{Workers: 1, CacheSize: 8, SnapshotDir: dir, SnapshotInterval: time.Hour})
	if err != nil {
		t.Fatalf("injected load panic killed the boot: %v", err)
	}
	defer s.Close()
	if n := s.MetricsSnapshot().RestoreEntries; n != 0 {
		t.Fatalf("restored %d entries through an injected load panic", n)
	}
}

// TestSnapshotRulesFallbackBoot: when the operator's rule loader fails at
// boot, the rule source captured in the snapshot compiles to the exact
// recorded fingerprint and the node comes up serving — degraded, with the
// boot failure on /readyz — instead of refusing to start.
func TestSnapshotRulesFallbackBoot(t *testing.T) {
	dir := t.TempDir()
	writeSeedSnapshot(t, dir)

	bootErr := errors.New("rules directory lost in the restart")
	s, err := New(Config{
		Workers:          1,
		CacheSize:        8,
		SnapshotDir:      dir,
		SnapshotInterval: time.Hour,
		Loader:           func() (*crysl.RuleSet, error) { return nil, bootErr },
	})
	if err != nil {
		t.Fatalf("boot with failing loader + rule snapshot: %v", err)
	}
	defer s.Close()

	ready := s.ReadyInfo()
	if ready.Status != wire.ReadyDegraded {
		t.Fatalf("readyz status %q, want %q", ready.Status, wire.ReadyDegraded)
	}
	if ready.LastError == "" {
		t.Fatal("degraded readyz missing the boot loader error")
	}
	// The restored rule set is the embedded one (that's what the seed
	// server snapshotted), so restored cache entries are live too.
	if fp := s.Registry().Snapshot().Fingerprint; fp != rules.MustLoad().Fingerprint() {
		t.Fatalf("fallback rule set fingerprint %s differs from embedded", fp)
	}
	resp, err := s.Generate(context.Background(), wire.GenerateRequest{UseCase: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Error("restored entry not served warm on the fallback-booted node")
	}
}

// TestReadyzRestoring: while the boot restore's plan re-warm is still
// running the node reports "restoring" — served with HTTP 200 like
// degraded, because it answers correctly from restored cache state and
// must not be ejected by peers or SDK probes.
func TestReadyzRestoring(t *testing.T) {
	srv, _ := sharedService(t)
	defer srv.restoring.Store(false)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// New's background plan warm-up clears restoring exactly once; if it
	// races our Store(true), retry — after its single Store(false) the
	// flag can no longer be reset under us.
	deadline := time.Now().Add(30 * time.Second)
	for {
		srv.restoring.Store(true)
		var ready wire.ReadyResponse
		resp := getJSON(t, ts.URL+"/readyz", &ready)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("restoring readyz served %d, want 200", resp.StatusCode)
		}
		if ready.Status == wire.ReadyRestoring {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz never reported %q (last %q)", wire.ReadyRestoring, ready.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := srv.ReadyInfo().Status; got != wire.ReadyRestoring {
		t.Fatalf("ReadyInfo status %q, want %q", got, wire.ReadyRestoring)
	}
}

// TestForwardedDeadlineShed is the deadline-budget regression test: a
// peer-forwarded request arriving with less remaining budget than the
// observed p99 service time is shed 429-style (ErrOverloaded) instead of
// admitted to burn a doomed generation — while a direct (non-forwarded)
// request with the same tiny deadline is still admitted.
func TestForwardedDeadlineShed(t *testing.T) {
	s, err := New(Config{Workers: 1, CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Teach admission a p99 far above the forwarded budget below.
	for i := 0; i < latwindow.MinSamples; i++ {
		s.pool.svcTimes.Observe(10 * time.Second)
	}

	// An uncached template so neither the result cache nor the plan fast
	// path short-circuits ahead of the admission check.
	req := wire.GenerateRequest{Name: "shed.go", Source: "package shed\n\nfunc noop() {}\n"}

	fwdCtx, cancel := context.WithTimeout(withPeerHop(context.Background()), 200*time.Millisecond)
	defer cancel()
	_, err = s.Generate(fwdCtx, req)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("forwarded request under p99 budget: got %v, want ErrOverloaded", err)
	}
	shedBefore := s.MetricsSnapshot().ShedTotal
	if shedBefore < 1 {
		t.Fatalf("shed_total = %d after a deadline shed", shedBefore)
	}

	// The same budget on a direct request is NOT shed: only forwarded work
	// carries a peer's declared budget, so only it gets budget admission.
	directCtx, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if _, err := s.Generate(directCtx, wire.GenerateRequest{UseCase: 11}); err != nil {
		t.Fatalf("direct request wrongly shed: %v", err)
	}
}
