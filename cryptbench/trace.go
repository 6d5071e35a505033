package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the span that caused this one (0 = none).
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID and a function that closes it.
func (t *tracer) begin(name string, parent, req int64) (int64, func()) {
	id := t.ids.Add(1)
	start := time.Since(t.epoch)
	return id, func() {
		end := time.Since(t.epoch)
		t.mu.Lock()
		t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req, Start: int64(start), End: int64(end)})
		t.mu.Unlock()
	}
}

type spanCtxKey struct{}

// spanRef names the enclosing span of a request.
type spanRef struct{ req, span int64 }

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, ref)
}

// call runs fn inside a root span for a new request, passing the span to
// layers below through the context.
func (t *tracer) call(ctx context.Context, name string, fn func(context.Context) error) error {
	req := t.ids.Add(1)
	id, end := t.begin(name, 0, req)
	err := fn(withSpan(ctx, spanRef{req: req, span: id}))
	end()
	return err
}

// headerSpan carries "<req>:<span>" from the round tripper to the server
// middleware when both run in the benchmark's process.
const headerSpan = "X-Cryptbench-Span"

// roundTripper records an http.roundtrip span per request, from the send
// until the response body is read to its end (or closed).
type roundTripper struct {
	t    *tracer
	base http.RoundTripper
}

func (rt roundTripper) RoundTrip(r *http.Request) (*http.Response, error) {
	ref, _ := r.Context().Value(spanCtxKey{}).(spanRef)
	id, end := rt.t.begin("http.roundtrip", ref.span, ref.req)
	r = r.Clone(r.Context())
	r.Header.Set(headerSpan, strconv.FormatInt(ref.req, 10)+":"+strconv.FormatInt(id, 10))
	resp, err := rt.base.RoundTrip(r)
	if err != nil {
		end()
		return nil, err
	}
	resp.Body = &endOnEOF{ReadCloser: resp.Body, end: end}
	return resp, nil
}

// endOnEOF closes a span once its body has been read to the end or closed.
type endOnEOF struct {
	io.ReadCloser
	end  func()
	once sync.Once
}

func (b *endOnEOF) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.once.Do(b.end)
	}
	return n, err
}

func (b *endOnEOF) Close() error {
	b.once.Do(b.end)
	return b.ReadCloser.Close()
}

// middleware records a service.handler span around next, parented to the
// round-trip span named in the request header.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req, parent int64
		if v := r.Header.Get(headerSpan); v != "" {
			a, b, _ := strings.Cut(v, ":")
			req, _ = strconv.ParseInt(a, 10, 64)
			parent, _ = strconv.ParseInt(b, 10, 64)
		}
		_, end := t.begin("service.handler", parent, req)
		next.ServeHTTP(w, r)
		end()
	})
}

// requestsSince returns the requests whose spans began after ID first.
func (t *tracer) requestsSince(first int64) map[int64]bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int64]bool{}
	for _, s := range t.spans {
		if s.Req > first {
			out[s.Req] = true
		}
	}
	return out
}

// selfTimes returns, per span name, each span's duration and its self time:
// the duration minus the part of it that child spans cover.
func (t *tracer) selfTimes(reqs map[int64]bool) (durs, selfs map[string][]time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if reqs[s.Req] {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	durs, selfs = map[string][]time.Duration{}, map[string][]time.Duration{}
	for _, s := range t.spans {
		if !reqs[s.Req] {
			continue
		}
		dur := time.Duration(s.End - s.Start)
		durs[s.Name] = append(durs[s.Name], dur)
		selfs[s.Name] = append(selfs[s.Name], dur-covered(s, children[s.ID]))
	}
	return durs, selfs
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	kids = slices.Clone(kids)
	slices.SortFunc(kids, func(a, b span) int { return int(a.Start - b.Start) })
	var total, reach int64 = 0, parent.Start
	for _, k := range kids {
		start, end := max(k.Start, reach), min(k.End, parent.End)
		if end > start {
			total += end - start
			reach = end
		}
	}
	return time.Duration(total)
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
