package service

import (
	"container/list"
	"sync"

	"cognicryptgen/internal/persist"
	"cognicryptgen/wire"
)

// The cache-key derivation lives in wire.CacheKey now: the key doubles as
// the cluster routing key, so the daemon, the SDK's rendezvous router, and
// the peer forwarder must share one definition.

// resultCache is a mutex-guarded LRU of generation responses. Entries are
// stored by value and returned by value, so callers may mark their copy
// (Cached: true) without racing other requests.
type resultCache struct {
	mu  sync.Mutex
	max int
	ll  *list.List // front = most recently used
	m   map[string]*list.Element
}

// cacheEntry carries the request tuple alongside the response so the
// warm-restart snapshot is self-contained: a restored entry can refill the
// result cache by key AND re-warm the plan cache from its (name, source,
// package, verify) tuple without re-deriving anything.
type cacheEntry struct {
	key    string
	resp   wire.GenerateResponse
	name   string
	src    string
	pkg    string
	verify bool
}

func newResultCache(max int) *resultCache {
	if max < 1 {
		max = 1
	}
	return &resultCache{max: max, ll: list.New(), m: make(map[string]*list.Element, max)}
}

func (c *resultCache) get(key string) (wire.GenerateResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return wire.GenerateResponse{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).resp, true
}

func (c *resultCache) put(key string, resp wire.GenerateResponse, name, src, pkg string, verify bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		el.Value.(*cacheEntry).resp = resp
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, resp: resp, name: name, src: src, pkg: pkg, verify: verify})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*cacheEntry).key)
	}
}

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// export walks the cache LRU-first into snapshot entries, so a restore
// replaying them in order (each insert becoming most-recent) reproduces
// today's recency ordering exactly.
func (c *resultCache) export() []persist.Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]persist.Entry, 0, c.ll.Len())
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*cacheEntry)
		out = append(out, persist.Entry{
			Key: e.key, Name: e.name, Source: e.src, Package: e.pkg, Verify: e.verify,
			Response: e.resp,
		})
	}
	return out
}

// restore refills the cache from snapshot entries (LRU-first order, as
// export wrote them). Entries beyond the cache bound evict normally, so a
// snapshot from a larger cache degrades to the newest entries that fit.
func (c *resultCache) restore(entries []persist.Entry) int {
	for _, e := range entries {
		if e.Key == "" || e.Response.Output == "" {
			continue
		}
		c.put(e.Key, e.Response, e.Name, e.Source, e.Package, e.Verify)
	}
	return c.len()
}
