package cognicryptgen_test

// Benchmark harness regenerating the paper's evaluation (see DESIGN.md's
// experiment index):
//
//	E1/E2  BenchmarkGen/*          — Table 1 runtime and memory, per use case
//	E6     BenchmarkOldGen/*       — the XSL+Clafer baseline on its 8 use cases
//	E7     BenchmarkAblation/*     — generator design-choice ablations
//	       BenchmarkAnalysis/*     — misuse-analyzer throughput
//	       BenchmarkRuleSetLoad    — CrySL parse+compile cost
//	       BenchmarkFSM/*          — DFA vs NFA order-checking (ablation)
//
// Absolute numbers are not comparable to the paper's Eclipse-on-Windows
// testbed; the reproduced shape is per-use-case uniformity and
// interactive-scale latency (paper: 6.6–8.1 s inside Eclipse; this
// library: milliseconds, as it skips the IDE).

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"cognicryptgen/analysis"
	"cognicryptgen/crysl/fsm"
	"cognicryptgen/crysl/parser"
	"cognicryptgen/gen"
	"cognicryptgen/oldgen"
	"cognicryptgen/rules"
	"cognicryptgen/service"
	"cognicryptgen/templates"
	"cognicryptgen/wire"
)

var (
	benchOnce sync.Once
	benchGen  *gen.Generator
	benchAna  *analysis.Analyzer
	benchErr  error
)

func benchSetup(b *testing.B) (*gen.Generator, *analysis.Analyzer) {
	b.Helper()
	benchOnce.Do(func() {
		rs := rules.MustLoad()
		benchGen, benchErr = gen.New(rs, "", gen.Options{})
		if benchErr != nil {
			return
		}
		benchAna, benchErr = analysis.New(rs, "", analysis.Options{})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchGen, benchAna
}

// BenchmarkGen regenerates Table 1: one sub-benchmark per use case running
// the complete generation pipeline (template type-check, linking, path
// selection, parameter resolution, emission, gofmt).
func BenchmarkGen(b *testing.B) {
	g, _ := benchSetup(b)
	for _, uc := range templates.UseCases {
		src, err := templates.Source(uc)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("uc%02d_%s", uc.ID, uc.File), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := g.GenerateFile(uc.File, src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGenVerified includes the go/types verification pass of the
// output, the paper's compilability guarantee.
func BenchmarkGenVerified(b *testing.B) {
	benchSetup(b)
	rs := rules.MustLoad()
	g, err := gen.New(rs, "", gen.Options{Verify: true})
	if err != nil {
		b.Fatal(err)
	}
	uc, _ := templates.ByID(3)
	src, _ := templates.Source(uc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.GenerateFile(uc.File, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOldGen runs the XSL+Clafer baseline on its eight use cases
// (experiment E6).
func BenchmarkOldGen(b *testing.B) {
	for _, uc := range oldgen.UseCases {
		b.Run(fmt.Sprintf("uc%02d_%s", uc.ID, uc.Task), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := oldgen.Generate(uc, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRuleSetLoad measures parsing and compiling the full embedded
// rule set (14 rules: lexing, parsing, semantic checks, NFA construction,
// determinization, minimization).
func BenchmarkRuleSetLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := rules.LoadFresh(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation regenerates all use cases with individual generator
// features disabled (experiment E7). Configurations that break a use case
// count failures via the failures/op metric instead of aborting, because
// "how much the heuristic matters" is exactly what the ablation measures.
func BenchmarkAblation(b *testing.B) {
	benchSetup(b)
	rs := rules.MustLoad()
	configs := []struct {
		name string
		opts gen.Options
	}{
		{"Full", gen.Options{}},
		{"NoLinkPreference", gen.Options{NoLinkPreference: true}},
		{"NoDerivation", gen.Options{NoDerivation: true}},
		{"NoBindingFilter", gen.Options{NoBindingFilter: true}},
	}
	for _, cfg := range configs {
		g, err := gen.New(rs, "", cfg.opts)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(cfg.name, func(b *testing.B) {
			failures := 0
			pushups := 0
			for i := 0; i < b.N; i++ {
				for _, uc := range templates.UseCases {
					src, err := templates.Source(uc)
					if err != nil {
						b.Fatal(err)
					}
					res, err := g.GenerateFile(uc.File, src)
					if err != nil {
						failures++
						continue
					}
					pushups += len(res.Report.PushedUp)
				}
			}
			b.ReportMetric(float64(failures)/float64(b.N), "failures/op")
			b.ReportMetric(float64(pushups)/float64(b.N), "pushups/op")
		})
	}
}

// figure1Misuse is the paper's Figure 1 example for analyzer throughput.
const figure1Misuse = `package main

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
`

// BenchmarkAnalysis measures the misuse analyzer on the Figure 1 program
// and on a clean generated use case.
func BenchmarkAnalysis(b *testing.B) {
	g, an := benchSetup(b)
	uc, _ := templates.ByID(3)
	src, _ := templates.Source(uc)
	res, err := g.GenerateFile(uc.File, src)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Figure1Misuse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := an.AnalyzeSource("fig1.go", figure1Misuse); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("CleanGenerated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := an.AnalyzeSource("gen.go", res.Output); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFSM compares DFA against direct NFA simulation for order
// checking (the E7 automaton ablation), on the Cipher rule's automaton.
func BenchmarkFSM(b *testing.B) {
	rs := rules.MustLoad()
	rule, ok := rs.Get("gca.Cipher")
	if !ok {
		b.Fatal("cipher rule missing")
	}
	seq := []string{"c1", "i2", "a1", "u1", "f1"}
	b.Run("DFA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !rule.DFA.Accepts(seq) {
				b.Fatal("sequence must be accepted")
			}
		}
	})
	b.Run("NFA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !rule.NFA.Accepts(seq) {
				b.Fatal("sequence must be accepted")
			}
		}
	})
	b.Run("PathEnumeration", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if paths := rule.DFA.AcceptingPaths(512); len(paths) == 0 {
				b.Fatal("no accepting paths")
			}
		}
	})
}

// allUseCases returns the 11 Table 1 use cases plus the two extensions —
// the 13 templates cryptgend serves.
func allUseCases() []templates.UseCase {
	return append(append([]templates.UseCase(nil), templates.UseCases...), templates.Extensions...)
}

// BenchmarkServiceGenerate measures daemon throughput: concurrent clients
// round-robining over all 13 use cases against one warm service (compiled
// rule registry shared, result cache enabled). The op is one /v1/generate
// equivalent through the pool + cache.
func BenchmarkServiceGenerate(b *testing.B) {
	srv, err := service.New(service.Config{CacheSize: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cases := allUseCases()
	// Warm: one generation per use case populates the result cache.
	for _, uc := range cases {
		if _, err := srv.Generate(context.Background(), wire.GenerateRequest{UseCase: uc.ID}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	var next int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := atomic.AddInt64(&next, 1)
			uc := cases[int(i)%len(cases)]
			if _, err := srv.Generate(context.Background(), wire.GenerateRequest{UseCase: uc.ID}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServiceColdVsWarm quantifies what the daemon amortises: Cold is
// the one-shot CLI cost (compile all 14 rules, build a Generator, generate)
// per request; Warm is the same request against a long-lived service with
// the compiled-rule registry and result cache. The acceptance bar for the
// service subsystem is Warm ≥ 5× faster than Cold.
func BenchmarkServiceColdVsWarm(b *testing.B) {
	uc, _ := templates.ByID(3)
	src, err := templates.Source(uc)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("ColdSingleShot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rs, err := rules.LoadFresh()
			if err != nil {
				b.Fatal(err)
			}
			g, err := gen.New(rs, "", gen.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := g.GenerateFile(uc.File, src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("WarmService", func(b *testing.B) {
		srv, err := service.New(service.Config{})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		if _, err := srv.Generate(context.Background(), wire.GenerateRequest{UseCase: uc.ID}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := srv.Generate(context.Background(), wire.GenerateRequest{UseCase: uc.ID}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServiceUncached isolates pool + registry overhead with the
// result cache defeated (unique template name per iteration): what a
// stream of never-before-seen templates costs on a warm daemon.
func BenchmarkServiceUncached(b *testing.B) {
	srv, err := service.New(service.Config{CacheSize: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	uc, _ := templates.ByID(11)
	src, err := templates.Source(uc)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the workers' generators.
	if _, err := srv.Generate(context.Background(), wire.GenerateRequest{Name: "warm.go", Source: src}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("uniq%d.go", i)
		if _, err := srv.Generate(context.Background(), wire.GenerateRequest{Name: name, Source: src}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseRule measures single-rule front-end throughput.
func BenchmarkParseRule(b *testing.B) {
	srcs, err := rules.Sources()
	if err != nil {
		b.Fatal(err)
	}
	src := srcs["Cipher.crysl"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parser.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeterminize isolates subset construction on the largest rule.
func BenchmarkDeterminize(b *testing.B) {
	rs := rules.MustLoad()
	rule, _ := rs.Get("gca.Cipher")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := fsm.Determinize(rule.NFA); d.NumStates == 0 {
			b.Fatal("empty DFA")
		}
	}
}

// BenchmarkMinimize isolates Hopcroft-style minimization on the largest
// rule automaton.
func BenchmarkMinimize(b *testing.B) {
	rs := rules.MustLoad()
	rule, _ := rs.Get("gca.Cipher")
	d := fsm.Determinize(rule.NFA)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := fsm.Minimize(d); m.NumStates == 0 {
			b.Fatal("empty DFA")
		}
	}
}
