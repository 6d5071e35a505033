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
// (Cached: true) without racing other requests. Each entry also memoizes
// the HTTP body its hits are served with (see getBody).
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
//
// body memoizes the compact JSON of the hit-shaped response (Cached: true),
// cut just before its trailing duration_ms field: every hit on the entry
// serves the same bytes apart from that field, so the transport splices
// body + duration instead of re-encoding. It is filled on the entry's first
// hit, never persisted, and an entry is immutable once cached — put on an
// existing key installs a fresh entry, so a replaced response can never be
// served with the old body.
type cacheEntry struct {
	key    string
	resp   wire.GenerateResponse
	name   string
	src    string
	pkg    string
	verify bool
	body   []byte
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

// getBody is get for the HTTP transport: it returns the entry's memoized
// hit body, encoding it on the entry's first hit. The encode runs outside
// the mutex, and its result is kept only if the entry was not replaced or
// evicted meanwhile (the bytes are still right for this hit either way).
func (c *resultCache) getBody(key string) ([]byte, bool, error) {
	c.mu.Lock()
	el, ok := c.m[key]
	if !ok {
		c.mu.Unlock()
		return nil, false, nil
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	body := e.body
	c.mu.Unlock()
	if body != nil {
		return body, true, nil
	}
	resp := e.resp
	resp.Cached = true
	body, err := encodeBody(resp)
	if err != nil {
		return nil, true, err
	}
	c.mu.Lock()
	if el, ok := c.m[key]; ok && el.Value == e {
		e.body = body
	}
	c.mu.Unlock()
	return body, true, nil
}

func (c *resultCache) put(key string, resp wire.GenerateResponse, name, src, pkg string, verify bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := &cacheEntry{key: key, resp: resp, name: name, src: src, pkg: pkg, verify: verify}
	if el, ok := c.m[key]; ok {
		el.Value = e
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(e)
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
