// Package service turns the CogniCryptGEN pipeline (DESIGN.md S1–S12) into
// a long-running, concurrent generation daemon — the engine behind
// cmd/cryptgend.
//
// The one-shot CLIs (cmd/cryptgen, cmd/cryptanalyze) re-parse, re-compile,
// and re-minimize all fourteen embedded rules' ORDER automata on every
// invocation, and re-enumerate each rule's accepting paths once per
// generated chain. A process that serves many requests can do all of that
// exactly once. The package is built from four pieces:
//
//   - Registry (registry.go): parses and compiles the embedded rule set
//     once at startup, fingerprints it (crysl.RuleSet.Fingerprint), warms a
//     shared gen.PathCache with every rule's accepting-path enumeration,
//     and swaps in a freshly compiled set atomically on Reload.
//
//   - Pool (pool.go): a bounded worker pool. Each worker owns its own
//     gen.Generator and analysis.Analyzer (a Generator is not safe for
//     concurrent use) while all workers share the registry's immutable
//     rule set and path cache. Jobs carry a context that is propagated
//     into the generation pipeline (gen.GenerateFileCtx), so work that is
//     cancelled while queued is skipped and work cancelled mid-flight
//     stops at the next workflow-step boundary. Submissions and shutdown
//     are fenced by an RWMutex so a Submit racing Close either lands
//     before the workers' final drain or fails with ErrClosed — never
//     strands a job. Close drains queued jobs before returning (graceful
//     SIGTERM shutdown).
//
//   - resultCache (cache.go) + flightGroup (singleflight.go): an LRU over
//     generation results keyed by (template-source hash, rule-set
//     fingerprint, options), fronted by singleflight coalescing — N
//     concurrent identical cache misses submit exactly one generation and
//     the followers wait for the leader's result. Each entry memoizes the
//     compact JSON body its hits are served with, so an HTTP hit writes
//     stored bytes plus its duration_ms instead of re-encoding.
//
//   - Server (server.go, batch.go): the HTTP JSON API — POST /v1/generate,
//     POST /v1/generate/batch (concurrent fan-out with per-item results
//     and partial success), POST /v1/analyze, POST /v1/reload,
//     GET /v1/rules, GET /v1/templates, GET /healthz, GET /metrics — with
//     expvar-typed counters (requests, cache hits/misses, coalesced,
//     queue depth, nearest-rank p50/p99 latency) behind /metrics.
//
// Generation through the service is byte-identical to cmd/cryptgen: both
// run the same Generator over the same compiled rules; the service merely
// amortises rule compilation and path enumeration and adds caching.
package service
