package main

import (
	"fmt"
	"math/rand/v2"
	"regexp"
	"strings"
	"sync"
	"time"

	"cognicryptgen/templates"
	"cognicryptgen/wire"
)

type opKind int

const (
	opGenerate opKind = iota
	opAnalyze
)

// op is one request the load process sends. The daemon only ever sees the
// wire request; the other fields tell the load process what to expect.
type op struct {
	kind opKind
	gen  wire.GenerateRequest
	// tmpl indexes allTemplates for generate ops (and for analyze ops on
	// generated output).
	tmpl int
	// analyze ops: the source and whether it is a known misuse (which must
	// report at least one finding) or generated output (which must report
	// none).
	an       wire.AnalyzeRequest
	negative bool
}

// opSource yields a workload's ops in a fixed order derived from the seed.
// next is safe for concurrent use.
type opSource interface {
	next() op
	// warmup lists the ops sent before timing starts.
	warmup() []op
}

// workload is one traffic mix against the daemon.
type workload struct {
	name string
	// rate is the open-loop arrival rate in requests per second, fixed once
	// at about a third of the workload's closed-loop throughput_rps in the
	// host's slowest phase seen on the seed commit (2 shared vCPUs), so the
	// open loop stays far from saturation when the host slows down.
	rate float64
	// reloadEvery issues a same-rules /v1/reload this often during both
	// timed phases (0 = never).
	reloadEvery time.Duration
	source      func(seed uint64) opSource
	// selfCheck proves from daemon counter diffs over the timed phases that
	// the workload exercised the serving path it exists for.
	selfCheck func(c counterDiff, r *recorder) error
}

var workloads = []*workload{
	{
		// repeat-hot exists to isolate the result-cache hit path: after the
		// warm-up every request is a hit, so time goes to the HTTP handler,
		// JSON encoding, the SDK and wire.CacheKey, not to generation. It is
		// the workload where encoding and allocation cuts must show.
		name:   "repeat-hot",
		rate:   400,
		source: newRepeatHot,
		selfCheck: func(c counterDiff, _ *recorder) error {
			if c.pipelineRuns() != 0 {
				return fmt.Errorf("repeat-hot ran the pipeline %d times in the timed window", c.pipelineRuns())
			}
			if c.hits != c.generates {
				return fmt.Errorf("repeat-hot: %d of %d generates were result-cache hits", c.hits, c.generates)
			}
			return nil
		},
	},
	{
		// fresh-template exists to load the full generation pipeline: every
		// body is new to the daemon, so every request type-checks a
		// template, generates chains, synthesises usage, splices and gofmts,
		// and type-checks the output, queueing on the worker pool. HTTP is a
		// few percent of a request here, so an encoding cut must show no
		// change on this workload.
		name:   "fresh-template",
		rate:   80,
		source: newFreshTemplate,
		selfCheck: func(c counterDiff, _ *recorder) error {
			if c.pipelineRuns() != c.generates || c.hits != 0 || c.planHits != 0 || c.coalesced != 0 {
				return fmt.Errorf("fresh-template: %d generates, %d pipeline runs, %d cache hits, %d plan hits, %d coalesced; want every generate to run the pipeline",
					c.generates, c.pipelineRuns(), c.hits, c.planHits, c.coalesced)
			}
			return nil
		},
	},
	{
		// rename-mix exists to put writes beside reads on the same caches:
		// known bodies under names and packages the result cache has not
		// seen are served by a plan splice and inserted into the result
		// cache (LRU churn), analyses run on the worker pool, and reloads
		// swap the registry while reads continue. It catches a change that
		// speeds up hits by slowing inserts, reloads or analysis.
		name:        "rename-mix",
		rate:        250,
		reloadEvery: 2 * time.Second,
		source:      newRenameMix,
		selfCheck: func(c counterDiff, r *recorder) error {
			switch {
			case c.generates == 0:
				return fmt.Errorf("rename-mix sent no generates")
			case float64(c.planServed()) < 0.9*float64(c.generates):
				return fmt.Errorf("rename-mix: only %d of %d generates were plan-served", c.planServed(), c.generates)
			case float64(c.hits) > 0.01*float64(c.generates):
				return fmt.Errorf("rename-mix: %d of %d generates were result-cache hits", c.hits, c.generates)
			case c.reloads < 1:
				return fmt.Errorf("rename-mix: no reload happened in the timed window")
			case r.negSent == 0 || r.negFlagged != r.negSent:
				return fmt.Errorf("rename-mix: %d of %d known misuses flagged", r.negFlagged, r.negSent)
			}
			return nil
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// allTemplates is the 13 embedded use cases: Table 1 plus the extensions.
var allTemplates = append(append([]templates.UseCase(nil), templates.UseCases...), templates.Extensions...)

// templateSources holds each use case's template text, in allTemplates
// order.
var templateSources = func() []string {
	out := make([]string, len(allTemplates))
	for i, uc := range allTemplates {
		src, err := templates.Source(uc)
		if err != nil {
			panic(err) // embedded at build time
		}
		out[i] = src
	}
	return out
}()

// repeatHot draws Zipf-skewed keys from 13 templates × 6 package/verify
// variants (78 keys, well inside the daemon's 256-entry result cache).
type repeatHot struct {
	mu   sync.Mutex
	keys []op
	zipf *rand.Zipf
}

func newRepeatHot(seed uint64) opSource {
	r := rand.New(rand.NewPCG(seed, 0x686f74))
	pkgs := []string{"", fmt.Sprintf("hot%d", r.IntN(1000)), fmt.Sprintf("cache%d", r.IntN(1000))}
	order := r.Perm(len(allTemplates))
	// Rank i belongs to template order[i%13], so every template gets one
	// key in each band of 13 ranks: the seed moves which key is hottest
	// without moving much traffic between large and small templates.
	var keys []op
	for v := 0; v < 2*len(pkgs); v++ {
		for _, t := range order {
			keys = append(keys, op{kind: opGenerate, tmpl: t, gen: wire.GenerateRequest{
				UseCase: allTemplates[t].ID,
				Package: pkgs[v%len(pkgs)],
				Verify:  v >= len(pkgs),
			}})
		}
	}
	return &repeatHot{keys: keys, zipf: rand.NewZipf(r, 1.1, 8, uint64(len(keys)-1))}
}

func (h *repeatHot) warmup() []op { return h.keys }

func (h *repeatHot) next() op {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.keys[h.zipf.Uint64()]
}

// structNames holds each template's one struct type, the identifier that
// freshTemplate renames, with a pattern matching it as a whole word.
var structNames = func() []struct {
	name  string
	ident *regexp.Regexp
} {
	decl := regexp.MustCompile(`(?m)^type (\w+) struct\{\}`)
	out := make([]struct {
		name  string
		ident *regexp.Regexp
	}, len(templateSources))
	for i, src := range templateSources {
		out[i].name = decl.FindStringSubmatch(src)[1]
		out[i].ident = regexp.MustCompile(`\b` + out[i].name + `\b`)
	}
	return out
}()

// freshTemplate makes a body no earlier request used: a seeded template
// whose struct type is renamed and whose doc comment gains a line. Both
// edits keep it type-checking and change the generated output.
type freshTemplate struct {
	mu  sync.Mutex
	r   *rand.Rand
	tag uint64
	n   int
}

func newFreshTemplate(seed uint64) opSource {
	return &freshTemplate{r: rand.New(rand.NewPCG(seed, 0x6672657368)), tag: seed}
}

func (f *freshTemplate) next() op {
	f.mu.Lock()
	t, n := f.r.IntN(len(allTemplates)), f.n
	f.n++
	f.mu.Unlock()
	return freshOp(t, fmt.Sprintf("S%dN%d", f.tag, n))
}

// freshOp is template t made new by the suffix (see freshTemplate).
func freshOp(t int, suffix string) op {
	name := structNames[t].name
	body := structNames[t].ident.ReplaceAllString(templateSources[t], name+suffix)
	body = strings.Replace(body, "\ntype "+name+suffix+" struct{}", "\n// Variant "+suffix+".\ntype "+name+suffix+" struct{}", 1)
	return op{kind: opGenerate, tmpl: t, gen: wire.GenerateRequest{
		Name:   allTemplates[t].File,
		Source: body,
		Verify: true,
	}}
}

func (f *freshTemplate) warmup() []op {
	// Fresh bodies too, so warm-up never seeds a cache the timed window
	// could hit; enough to give both workers a few pipelines each.
	var out []op
	for i := 0; i < 8; i++ {
		out = append(out, f.next())
	}
	return out
}

// renameMix cycles through a seeded permutation of 13 templates × 24
// names × 6 package overrides (1872 combinations). A combination comes
// back only after 1871 others, long after the 256-entry result cache
// evicted it, so each generate misses the result cache and hits the plan
// cache. Every 20th op is an analyze, alternating generated output
// (expected clean) and a known misuse (expected flagged). At 5% the
// analyses sit in the latency tail beyond p90, so p90 measures the plan
// path; at 10% p90 would fall on the edge between the two populations and
// jump between them from run to run.
type renameMix struct {
	mu     sync.Mutex
	combos []wire.GenerateRequest
	tmplOf []int
	i      int
	nAn    int
}

func newRenameMix(seed uint64) opSource {
	r := rand.New(rand.NewPCG(seed, 0x72656e616d65))
	names := make([]string, 24)
	for i := range names {
		names[i] = fmt.Sprintf("impl_%d_%d.go", r.IntN(1<<20), i)
	}
	pkgs := []string{""}
	for len(pkgs) < 6 {
		pkgs = append(pkgs, fmt.Sprintf("pkg%d_%d", r.IntN(1<<20), len(pkgs)))
	}
	m := &renameMix{}
	for t := range allTemplates {
		for _, n := range names {
			for _, p := range pkgs {
				m.combos = append(m.combos, wire.GenerateRequest{Name: n, Source: templateSources[t], Package: p})
				m.tmplOf = append(m.tmplOf, t)
			}
		}
	}
	r.Shuffle(len(m.combos), func(i, j int) {
		m.combos[i], m.combos[j] = m.combos[j], m.combos[i]
		m.tmplOf[i], m.tmplOf[j] = m.tmplOf[j], m.tmplOf[i]
	})
	return m
}

// warmup generates each known body once under its template's own name:
// the daemon's plans were warmed at boot, so these are plan splices, and
// their outputs are what the clean analyze ops send back.
func (m *renameMix) warmup() []op {
	var out []op
	for t := range allTemplates {
		out = append(out, op{kind: opGenerate, tmpl: t, gen: wire.GenerateRequest{Name: allTemplates[t].File, Source: templateSources[t]}})
	}
	return out
}

func (m *renameMix) next() op {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := m.i
	m.i++
	if i%20 == 19 {
		k := m.nAn
		m.nAn++
		if k%2 == 1 {
			neg := misuses[(k/2)%len(misuses)]
			return op{kind: opAnalyze, negative: true, an: wire.AnalyzeRequest{Name: neg.name, Source: neg.src}}
		}
		// No source: the runner sends the daemon's own warm-up output for
		// template t.
		t := (k / 2) % len(allTemplates)
		return op{kind: opAnalyze, tmpl: t, an: wire.AnalyzeRequest{Name: "generated_" + allTemplates[t].File}}
	}
	c := (i - i/20) % len(m.combos)
	return op{kind: opGenerate, tmpl: m.tmplOf[c], gen: m.combos[c]}
}

// misuses is the negative corpus: crypto code that compiles but breaks a
// CrySL rule, one snippet per misuse class. The analyzer must flag each.
var misuses = []struct{ name, src string }{
	// The paper's Figure 1: a constant salt.
	{"figure1.go", `package main

import "cognicryptgen/gca"

func generateKey(pwd []rune) (*gca.SecretKeySpec, error) {
	salt := []byte{15, 244, 94, 0, 12, 3, 65, 73, 255, 84, 35, 1, 2, 3, 4, 5}
	spec, err := gca.NewPBEKeySpec(pwd, salt, 100000, 256)
	if err != nil {
		return nil, err
	}
	skf, err := gca.NewSecretKeyFactory("PBKDF2WithHmacSHA256")
	if err != nil {
		return nil, err
	}
	prf, err := skf.GenerateSecret(spec)
	if err != nil {
		return nil, err
	}
	return gca.NewSecretKeySpec(prf.Encoded(), "AES")
}
`},
	// Too few PBKDF2 iterations.
	{"lowiter.go", `package main

import "cognicryptgen/gca"

func derive(pwd []rune, salt []byte) {
	spec, _ := gca.NewPBEKeySpec(pwd, salt, 500, 256)
	spec.ClearPassword()
}
`},
	// A forbidden constructor: password-based key spec without salt.
	{"nosalt.go", `package main

import "cognicryptgen/gca"

func derive(pwd []rune) {
	spec, _ := gca.NewPBEKeySpecNoSalt(pwd)
	_ = spec
}
`},
	// Wrong call order: a key generated before the generator is set up.
	{"order.go", `package main

import "cognicryptgen/gca"

func newKey() ([]byte, error) {
	kg, err := gca.NewKeyGenerator("AES")
	if err != nil {
		return nil, err
	}
	key, err := kg.GenerateKey()
	if err != nil {
		return nil, err
	}
	return key.Encoded(), nil
}
`},
	// A broken hash algorithm.
	{"md5.go", `package main

import "cognicryptgen/gca"

func sum(data []byte) ([]byte, error) {
	md, err := gca.NewMessageDigest("MD5")
	if err != nil {
		return nil, err
	}
	if err := md.Update(data); err != nil {
		return nil, err
	}
	return md.Digest()
}
`},
}
