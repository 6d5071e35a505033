package main

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"time"

	"cognicryptgen/analysis"
	"cognicryptgen/gen"
	"cognicryptgen/rules"
)

// checkOutputs regenerates every distinct request the daemon answered with
// a plan-free, cache-free in-process gen.Generator, on `workers`
// goroutines, and counts outputs that are not byte-identical. It then
// re-analyzes the sampled outputs, which must show zero findings, and the
// known misuses, which must each show at least one. It runs after the
// timed window, so it does not compete with the daemon for CPU.
//
// Its gen.New is the first in the process, so it pays the type-check
// universe build; with a non-nil ledger that time is recorded as
// srccheck.first_checker_ms.
func checkOutputs(root string, outputs map[refKey][32]byte, samples []string, workers int, ledger map[string]metric) (mismatches int64, err error) {
	ruleSet, err := rules.Load()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	base, err := gen.New(ruleSet, root, gen.Options{})
	if err != nil {
		return 0, err
	}
	if ledger != nil {
		ledger["srccheck.first_checker_ms"] = metric{ms(time.Since(start)), "ms"}
	}
	keys := make(chan refKey)
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range keys {
				g := base.WithOptions(gen.Options{PackageName: k.pkg, Verify: k.verify})
				res, err := g.GenerateFile(k.name, k.src)
				if err == nil && sha256.Sum256([]byte(res.Output)) == outputs[k] {
					continue
				}
				mu.Lock()
				mismatches++
				if firstErr == nil {
					firstErr = fmt.Errorf("%s (package %q, verify %t): daemon output differs from the in-process generator (generator error: %v)", k.name, k.pkg, k.verify, err)
				}
				mu.Unlock()
			}
		}()
	}
	for k := range outputs {
		keys <- k
	}
	close(keys)
	wg.Wait()

	an, err := analysis.New(ruleSet, root, analysis.Options{})
	if err != nil {
		return mismatches, err
	}
	for i, out := range samples {
		if out == "" {
			continue
		}
		rep, err := an.AnalyzeSource("generated_"+allTemplates[i].File, out)
		if err != nil || rep.HasFindings() {
			mismatches++
			if firstErr == nil {
				firstErr = fmt.Errorf("re-analysis of generated %s: err %v, findings %v", allTemplates[i].File, err, rep)
			}
		}
	}
	for _, neg := range misuses {
		rep, err := an.AnalyzeSource(neg.name, neg.src)
		if err != nil || !rep.HasFindings() {
			mismatches++
			if firstErr == nil {
				firstErr = fmt.Errorf("known misuse %s not flagged (err %v)", neg.name, err)
			}
		}
	}
	return mismatches, firstErr
}
