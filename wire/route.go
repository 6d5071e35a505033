package wire

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"unsafe"

	"cognicryptgen/templates"
)

// SourceSum is the SHA-256 digest of a template source, the part of a
// cache key that costs the most to compute. Callers that key the same
// source repeatedly compute it once (SumSource, UseCaseSource) and pass it
// to CacheKeySum.
type SourceSum [sha256.Size]byte

// SumSource digests a template source without copying it.
func SumSource(source string) SourceSum {
	// sha256 only reads its input, so hashing the string's bytes in place
	// is safe and skips a []byte copy of the whole template.
	return sha256.Sum256(unsafe.Slice(unsafe.StringData(source), len(source)))
}

// CacheKey derives the daemon's result-cache key — which is also the
// cluster routing key. It folds in the rule-set fingerprint (so a reload
// with different rules invalidates everything), a hash of the template
// source, and every option that influences the output. The daemon's LRU,
// its singleflight group, the peer forwarder, and the client SDK's
// rendezvous router all key on exactly this string, which is what keeps
// each node's cache and coalescer hot: every identical request lands on
// the same node. Keys are persisted in warm-restart snapshots and shared
// between daemons and SDKs, so the derivation must never change.
func CacheKey(fingerprint, name, source, pkg string, verify bool) string {
	return CacheKeySum(fingerprint, name, SumSource(source), pkg, verify)
}

// CacheKeySum is CacheKey over a precomputed source digest: the SHA-256 of
// "fingerprint\x00name\x00hex(srcSum)\x00pkg\x00verify", hex-encoded.
func CacheKeySum(fingerprint, name string, srcSum SourceSum, pkg string, verify bool) string {
	var stack [256]byte
	b := append(stack[:0], fingerprint...)
	b = append(b, 0)
	b = append(b, name...)
	b = append(b, 0)
	b = hex.AppendEncode(b, srcSum[:])
	b = append(b, 0)
	b = append(b, pkg...)
	b = append(b, 0)
	b = strconv.AppendBool(b, verify)
	sum := sha256.Sum256(b)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}

// useCaseTemplate is one embedded use case as the daemon keys it.
type useCaseTemplate struct {
	name, src string
	sum       SourceSum
}

// useCaseTemplates resolves every embedded use case once: its file name,
// source, and source digest never change for the life of the process.
var useCaseTemplates = sync.OnceValue(func() map[int]useCaseTemplate {
	out := map[int]useCaseTemplate{}
	for _, uc := range append(append([]templates.UseCase(nil), templates.UseCases...), templates.Extensions...) {
		if src, err := templates.Source(uc); err == nil {
			out[uc.ID] = useCaseTemplate{name: uc.File, src: src, sum: SumSource(src)}
		}
	}
	return out
})

// UseCaseSource resolves an embedded use case to the template file name
// and source a daemon generates from, plus the source digest its cache key
// folds in — all computed once per use case.
func UseCaseSource(id int) (name, src string, sum SourceSum, err error) {
	t, ok := useCaseTemplates()[id]
	if !ok {
		_, err := templates.ByID(id)
		if err == nil {
			err = fmt.Errorf("wire: use case %d has no embedded source", id)
		}
		return "", "", SourceSum{}, err
	}
	return t.name, t.src, t.sum, nil
}

// RouteKey computes the routing key for a GenerateRequest as the daemon
// will see it: a UseCase reference is resolved to its embedded template
// file and source first, so a client routing {"usecase": 3} and a daemon
// hashing the resolved template agree on the owner. fingerprint may be ""
// when the client has not yet observed the cluster's rule-set fingerprint;
// the key is then still deterministic, merely in a different (equally
// consistent) shard layout, and the owning daemon's one-hop forward
// corrects any disagreement.
func RouteKey(fingerprint string, req GenerateRequest) string {
	if req.UseCase != 0 {
		if name, _, sum, err := UseCaseSource(req.UseCase); err == nil {
			return CacheKeySum(fingerprint, name, sum, req.Package, req.Verify)
		}
	}
	name := req.Name
	if name == "" {
		name = "template.go"
	}
	return CacheKey(fingerprint, name, req.Source, req.Package, req.Verify)
}

// rendezvousScore is the highest-random-weight score of (node, key).
// FNV-1a is plenty: the keys are already SHA-256 hex strings, so the
// score's input entropy is high, and the hash only has to spread it.
func rendezvousScore(node, key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(node))
	h.Write([]byte{0})
	h.Write([]byte(key))
	return h.Sum64()
}

// RendezvousOwner returns the node owning key under rendezvous
// (highest-random-weight) hashing: the node whose score for the key is
// highest. Rendezvous hashing gives the two properties the cluster needs
// with no ring state: keys spread near-uniformly across nodes, and
// removing a node moves only the keys it owned (every other key keeps its
// owner — minimal reshuffle). Returns "" for an empty node list. Ties
// break toward the lexically smaller node so every caller agrees.
func RendezvousOwner(key string, nodes []string) string {
	var owner string
	var best uint64
	for _, n := range nodes {
		s := rendezvousScore(n, key)
		if owner == "" || s > best || (s == best && n < owner) {
			owner, best = n, s
		}
	}
	return owner
}

// RendezvousRank returns nodes ordered by descending rendezvous score for
// key: the owner first, then the node that would own the key if the owner
// vanished, and so on. Clients walk this order on failover so a dead
// owner's keys migrate consistently to the same runner-up everywhere.
func RendezvousRank(key string, nodes []string) []string {
	ranked := append([]string(nil), nodes...)
	sort.Slice(ranked, func(i, j int) bool {
		si, sj := rendezvousScore(ranked[i], key), rendezvousScore(ranked[j], key)
		if si != sj {
			return si > sj
		}
		return ranked[i] < ranked[j]
	})
	return ranked
}
