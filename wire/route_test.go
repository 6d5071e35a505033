package wire

import (
	"fmt"
	"testing"

	"cognicryptgen/templates"
)

// TestCacheKeySensitivity: every key component matters (moved here from
// the service package with the key derivation itself).
func TestCacheKeySensitivity(t *testing.T) {
	base := CacheKey("fp", "n.go", "src", "", false)
	for name, other := range map[string]string{
		"fingerprint": CacheKey("fp2", "n.go", "src", "", false),
		"name":        CacheKey("fp", "m.go", "src", "", false),
		"source":      CacheKey("fp", "n.go", "src2", "", false),
		"package":     CacheKey("fp", "n.go", "src", "p", false),
		"verify":      CacheKey("fp", "n.go", "src", "", true),
	} {
		if other == base {
			t.Errorf("changing %s did not change the cache key", name)
		}
	}
}

// TestRouteKeyResolvesUseCase: a use-case reference and the equivalent
// explicit (name, source) request route identically, so a client sending
// {"usecase": N} and a daemon hashing the resolved template agree on the
// owner.
func TestRouteKeyResolvesUseCase(t *testing.T) {
	byID := RouteKey("fp", GenerateRequest{UseCase: 3})
	if byID == RouteKey("fp", GenerateRequest{UseCase: 4}) {
		t.Fatal("different use cases share a route key")
	}
	// Unknown use case still yields a deterministic key.
	if RouteKey("fp", GenerateRequest{UseCase: 99}) != RouteKey("fp", GenerateRequest{UseCase: 99}) {
		t.Fatal("unknown use case key is not deterministic")
	}
	// Defaulted name matches the daemon's "template.go" default.
	if RouteKey("fp", GenerateRequest{Source: "package p"}) != CacheKey("fp", "template.go", "package p", "", false) {
		t.Fatal("defaulted name does not match the daemon's template.go default")
	}
}

// TestCacheKeyGolden pins the key derivation: keys are persisted in
// warm-restart snapshots and shared by daemons and SDKs, so a faster
// implementation must return exactly the same hex for the same inputs.
func TestCacheKeyGolden(t *testing.T) {
	for _, tc := range []struct {
		fp, name, src, pkg string
		verify             bool
		want               string
	}{
		{"", "template.go", "", "", false, "574f1e36b5cfc81be5c175cc7b3de4b0aacf4fca1cd6a7c2e741ea3ac9dd55ff"},
		{"fp", "n.go", "package p\n", "", false, "5b47172f15e19032ac39aec05414318e2eaf47ecb0084f5a7fe1aef4337ba1ae"},
		{"3f9a", "pbebytes.go", "package p\n\nfunc F() {}\n", "mypkg", true, "78dca4ec259278bc574a597866a0468ac069af3a0b72af52264ef13e70964764"},
	} {
		if got := CacheKey(tc.fp, tc.name, tc.src, tc.pkg, tc.verify); got != tc.want {
			t.Errorf("CacheKey(%q, %q, %q, %q, %t) = %s, want %s", tc.fp, tc.name, tc.src, tc.pkg, tc.verify, got, tc.want)
		}
	}
}

// TestUseCaseKeyMatchesSource: the memoized use-case digest keys exactly
// as hashing the resolved template source does, and an unknown use case
// is an error.
func TestUseCaseKeyMatchesSource(t *testing.T) {
	for _, uc := range append(append([]templates.UseCase(nil), templates.UseCases...), templates.Extensions...) {
		src, err := templates.Source(uc)
		if err != nil {
			t.Fatal(err)
		}
		name, got, sum, err := UseCaseSource(uc.ID)
		if err != nil || name != uc.File || got != src || sum != SumSource(src) {
			t.Fatalf("UseCaseSource(%d) = %q, %d bytes, %v; want %q and its source", uc.ID, name, len(got), err, uc.File)
		}
		req := GenerateRequest{UseCase: uc.ID, Package: "p", Verify: true}
		if RouteKey("fp", req) != CacheKey("fp", uc.File, src, "p", true) {
			t.Errorf("use case %d: RouteKey differs from CacheKey over its source", uc.ID)
		}
	}
	if _, _, _, err := UseCaseSource(99); err == nil {
		t.Error("UseCaseSource(99) succeeded")
	}
}

func clusterNodes(n int) []string {
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("http://127.0.0.1:%d", 9000+i)
	}
	return nodes
}

// TestRendezvousDistribution: across 4 nodes, keys spread within ±20% of
// the uniform share (the satellite contract for the routing layer).
func TestRendezvousDistribution(t *testing.T) {
	nodes := clusterNodes(4)
	const keys = 8000
	counts := map[string]int{}
	for i := 0; i < keys; i++ {
		key := CacheKey("fp", fmt.Sprintf("t%05d.go", i), "package p", "", false)
		counts[RendezvousOwner(key, nodes)]++
	}
	share := keys / len(nodes)
	lo, hi := int(float64(share)*0.8), int(float64(share)*1.2)
	for _, n := range nodes {
		if counts[n] < lo || counts[n] > hi {
			t.Errorf("node %s owns %d keys, want within [%d, %d] (±20%% of %d)", n, counts[n], lo, hi, share)
		}
	}
}

// TestRendezvousMinimalReshuffle: removing one node moves only the keys it
// owned; every key whose owner survives keeps that owner.
func TestRendezvousMinimalReshuffle(t *testing.T) {
	nodes := clusterNodes(4)
	const keys = 4000
	before := make(map[string]string, keys)
	for i := 0; i < keys; i++ {
		key := CacheKey("fp", fmt.Sprintf("t%05d.go", i), "package p", "", false)
		before[key] = RendezvousOwner(key, nodes)
	}
	lost := nodes[2]
	survivors := append(append([]string(nil), nodes[:2]...), nodes[3])
	moved := 0
	for key, owner := range before {
		after := RendezvousOwner(key, survivors)
		if owner == lost {
			moved++
			continue
		}
		if after != owner {
			t.Fatalf("key owned by surviving node %s reshuffled to %s after losing %s", owner, after, lost)
		}
	}
	// The lost node's share (~1/4) is the only set that moves.
	if share := keys / len(nodes); moved < share*8/10 || moved > share*12/10 {
		t.Errorf("lost node owned %d keys, want roughly the uniform share %d", moved, share)
	}
}

// TestRendezvousRank: the rank order is consistent with ownership — the
// first entry is the owner, and dropping it promotes the second.
func TestRendezvousRank(t *testing.T) {
	nodes := clusterNodes(4)
	key := CacheKey("fp", "rank.go", "package p", "", false)
	ranked := RendezvousRank(key, nodes)
	if len(ranked) != len(nodes) {
		t.Fatalf("rank returned %d nodes, want %d", len(ranked), len(nodes))
	}
	if ranked[0] != RendezvousOwner(key, nodes) {
		t.Errorf("rank[0] = %s, owner = %s", ranked[0], RendezvousOwner(key, nodes))
	}
	rest := make([]string, 0, 3)
	for _, n := range nodes {
		if n != ranked[0] {
			rest = append(rest, n)
		}
	}
	if ranked[1] != RendezvousOwner(key, rest) {
		t.Errorf("rank[1] = %s, want the owner among survivors %s", ranked[1], RendezvousOwner(key, rest))
	}
	if RendezvousOwner(key, nil) != "" {
		t.Error("owner of empty node list should be empty")
	}
}
