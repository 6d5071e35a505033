package gen

import (
	"fmt"
	"go/types"
	"strings"

	"cognicryptgen/crysl"
	"cognicryptgen/crysl/ast"
	"cognicryptgen/crysl/constraint"
)

// genObject is an object available during generation: either a template
// binding or a value produced by an earlier generated call. Predicates
// accumulate on it as ENSURES clauses fire.
type genObject struct {
	expr         string
	goType       types.Type
	preds        map[string]bool
	fromTemplate bool
	producedBy   int // invocation index, -1 for template objects
}

func (o *genObject) grant(pred string) {
	if o.preds == nil {
		o.preds = map[string]bool{}
	}
	o.preds[pred] = true
}

// names allocates collision-free variable names within one method.
type names struct{ used map[string]bool }

func newNames(m *TemplateMethod) *names {
	n := &names{used: map[string]bool{"err": true}}
	for v := range m.VarTypes {
		n.used[v] = true
	}
	if len(m.Decl.Recv.List) > 0 && len(m.Decl.Recv.List[0].Names) > 0 {
		n.used[m.Decl.Recv.List[0].Names[0].Name] = true
	}
	return n
}

func (n *names) alloc(base string) string {
	if base == "" {
		base = "v"
	}
	if !n.used[base] {
		n.used[base] = true
		return base
	}
	for i := 2; ; i++ {
		cand := fmt.Sprintf("%s%d", base, i)
		if !n.used[cand] {
			n.used[cand] = true
			return cand
		}
	}
}

// lowerFirst lowercases only the first rune: PBEKeySpec -> pBEKeySpec,
// matching the paper's generated naming style (Figure 5).
func lowerFirst(s string) string {
	if s == "" {
		return s
	}
	return strings.ToLower(s[:1]) + s[1:]
}

// plannedEvent is one fully or partially resolved call of a selected path.
type plannedEvent struct {
	label    string
	pattern  *ast.EventPattern
	shape    *callShape
	isCtor   bool
	args     []string
	deferred bool // NEGATES-triggering call, emitted at the end of the chain
	// resultObj is the generated object bound to the call's value result
	// ("" when unbound or the call has no value result).
	resultObj string
}

// chainState threads mutable generation state through one fluent chain.
type chainState struct {
	pool     []*genObject
	names    *names
	lines    []string
	deferred []string
	declared []string // names declared by generated statements
	errRet   string   // the generated "return ..., err" statement
}

// generateChain produces replacement source for one fluent chain
// (workflow steps ②-⑤ for every rule of the chain).
func (g *Generator) generateChain(tmpl *Template, m *TemplateMethod, chain *Chain, methodNames *names, mr *MethodReport, report *Report) (string, error) {
	ri := resultInfo(m.Decl, tmpl.Info)
	if !ri.hasErr {
		return "", fmt.Errorf("template method must have error as final result so generated code can propagate failures")
	}
	errRet := "return err"
	if len(ri.zeros) > 0 {
		errRet = "return " + strings.Join(ri.zeros, ", ") + ", err"
	}
	st := &chainState{names: methodNames, errRet: errRet}
	g.curPool = nil
	candidates := g.chainCandidates(tmpl, m, chain)
	links := g.computeLinks(chain, candidates)

	for idx, inv := range chain.Invocations {
		rule, ok := g.rules.Get(inv.RuleName)
		if !ok {
			return "", fmt.Errorf("unknown rule %q", inv.RuleName)
		}
		rr := &RuleReport{Rule: rule.SpecType()}
		mr.Rules = append(mr.Rules, rr)
		if err := g.generateInvocation(tmpl, m, inv, idx, rule, candidates[idx], links, st, rr, report); err != nil {
			return "", fmt.Errorf("rule %s: %w", rule.SpecType(), err)
		}
	}
	st.lines = append(st.lines, st.deferred...)
	st.suppressUnused()
	return strings.Join(st.lines, "\n"), nil
}

// suppressUnused appends blank-identifier assignments for generated
// variables that ended up unreferenced (e.g. when a tie in path ranking
// produced both halves of a key pair but only one is consumed), keeping
// the guarantee that generated code always compiles.
func (st *chainState) suppressUnused() {
	if len(st.declared) == 0 {
		return
	}
	text := strings.Join(st.lines, "\n")
	for _, name := range st.declared {
		if countWord(text, name, 2) < 2 {
			st.lines = append(st.lines, "_ = "+name)
		}
	}
}

// chainCandidates returns, per invocation of the chain, the accepting
// paths that cover its template bindings and return object, in enumeration
// order (nil for an unknown rule). Link computation and path selection
// both read these lists; each is a fresh slice, so sorting one never
// reorders the shared path cache.
func (g *Generator) chainCandidates(tmpl *Template, m *TemplateMethod, chain *Chain) [][][]string {
	out := make([][][]string, len(chain.Invocations))
	for i, inv := range chain.Invocations {
		rule, ok := g.rules.Get(inv.RuleName)
		if !ok {
			continue
		}
		for _, p := range g.acceptingPaths(rule) {
			if !g.opts.NoBindingFilter && !pathCoversBindings(rule, p, inv) {
				continue
			}
			if !g.pathCoversReturn(tmpl, m, rule, p, inv) {
				continue
			}
			out[i] = append(out[i], p)
		}
	}
	return out
}

// generateInvocation selects a path for one rule invocation from its
// candidates (see chainCandidates), resolves its parameters, and emits its
// statements.
func (g *Generator) generateInvocation(tmpl *Template, m *TemplateMethod, inv *Invocation, idx int, rule *crysl.Rule, candidates [][]string, links []link, st *chainState, rr *RuleReport, report *Report) error {
	if len(candidates) == 0 {
		if len(g.acceptingPaths(rule)) == 0 {
			return fmt.Errorf("ORDER pattern has no accepting path")
		}
		return fmt.Errorf("no accepting path covers the template bindings %v and return object %q", bindingVars(inv), inv.ReturnObj)
	}

	// Variables this invocation should consume, and predicates it should
	// grant, via links (soft preferences for path ranking).
	wantVars := map[string]bool{}
	wantGrants := map[string]bool{}
	if !g.opts.NoLinkPreference {
		for _, l := range links {
			if l.consumer == idx && l.consumerVar != "" {
				wantVars[l.consumerVar] = true
			}
			if l.producer == idx {
				wantGrants[l.pred] = true
			}
		}
	}
	g.sortPaths(rule, candidates, wantVars, wantGrants)

	var fallback *resolved
	var fallbackPath []string
	var lastErr error
	for _, path := range candidates {
		res, err := g.resolvePath(tmpl, m, inv, idx, rule, path, st)
		if err != nil {
			lastErr = err
			continue
		}
		env := res.env
		env.Called = calledSet(rule, path)
		if v := evalConstraints(rule, env); len(v) > 0 {
			lastErr = fmt.Errorf("path %v violates constraints: %s", path, strings.Join(v, "; "))
			continue
		}
		if len(res.pushed) == 0 {
			return g.emit(tmpl, m, inv, idx, rule, path, res, st, rr, report)
		}
		if fallback == nil {
			fallback = res
			fallbackPath = path
		}
	}
	if fallback != nil {
		// Paper §3.3: prioritise compilability over completeness — emit the
		// best partially resolved path with pushed-up parameters.
		return g.emit(tmpl, m, inv, idx, rule, fallbackPath, fallback, st, rr, report)
	}
	if lastErr != nil {
		return lastErr
	}
	return fmt.Errorf("no usable path")
}

func bindingVars(inv *Invocation) []string {
	out := make([]string, 0, len(inv.Bindings))
	for v := range inv.Bindings {
		out = append(out, v)
	}
	return out
}

// resolved is the outcome of resolvePath.
type resolved struct {
	plan        []*plannedEvent
	receiver    string
	objects     map[string]*genObject // rule var -> object
	env         *constraint.Env
	pushed      []string
	assumptions []string
}

// resolvePath performs the paper's two-phase parameter resolution over one
// candidate path: phase A binds template objects and predicate-linked pool
// objects; phase B derives remaining basic values from constraints; what
// is left is pushed up.
func (g *Generator) resolvePath(tmpl *Template, m *TemplateMethod, inv *Invocation, idx int, rule *crysl.Rule, path []string, st *chainState) (*resolved, error) {
	res := &resolved{objects: map[string]*genObject{}}
	env := m.bindingConstEnv(g.api, inv)
	res.env = env
	specName := g.api.unqualify(rule.SpecType())

	// Receiver: a constructor on the path creates it; otherwise it must
	// come from a template binding of "this" or a this-REQUIRES link.
	ctorLabel := ""
	for _, label := range path {
		ev, ok := rule.Event(label)
		if !ok {
			return nil, fmt.Errorf("path references aggregate label %q", label)
		}
		if _, isCtor := g.api.constructorFor(ev.Method, specName); isCtor {
			ctorLabel = label
			break
		}
	}
	if ctorLabel == "" {
		if ident, ok := inv.Bindings["this"]; ok {
			res.receiver = ident
			res.assumptions = append(res.assumptions,
				fmt.Sprintf("%s: receiver %q supplied by template; its REQUIRES are assumed satisfied", rule.SpecType(), ident))
		} else if obj := g.findThisObject(rule, idx); obj != nil {
			res.receiver = obj.expr
			res.objects["this"] = obj
		} else {
			return nil, fmt.Errorf("no constructor on path %v and no object of type %s available", path, rule.SpecType())
		}
	}

	// Phase A: bindings and predicate-linked pool objects for every
	// variable referenced on the path.
	for _, label := range path {
		ev, _ := rule.Event(label)
		for _, prm := range ev.Params {
			if prm.Wildcard || prm.Name == "this" {
				continue
			}
			if _, done := res.objects[prm.Name]; done {
				continue
			}
			if obj, assumption := g.resolvePhaseA(tmpl, m, inv, rule, prm.Name, env); obj != nil {
				res.objects[prm.Name] = obj
				if assumption != "" {
					res.assumptions = append(res.assumptions, assumption)
				}
			}
		}
	}

	// Phase B: derive remaining basic-typed variables from constraints, in
	// event/parameter order, feeding each derived value back into env.
	// pushedSeen dedupes the push-up list: a parameter that occurs on
	// several events of the path (or a wildcard diagnostic repeated per
	// occurrence) is one unresolved hole, not many — pushing it once per
	// event made emit declare one placeholder per occurrence, rebind the
	// rule variable to the last, and leave the earlier declarations unused
	// (an outright compile error under Options.Verify).
	pushedSeen := map[string]bool{}
	for _, label := range path {
		ev, _ := rule.Event(label)
		for _, prm := range ev.Params {
			if prm.Wildcard {
				diag := fmt.Sprintf("%s wildcard parameter of %s", rule.SpecType(), ev.Method)
				if !pushedSeen[diag] {
					pushedSeen[diag] = true
					res.pushed = append(res.pushed, diag)
				}
				continue
			}
			if prm.Name == "this" {
				continue
			}
			if _, done := res.objects[prm.Name]; done {
				continue
			}
			decl, ok := rule.Objects[prm.Name]
			if !ok {
				return nil, fmt.Errorf("event %s references undeclared object %q", label, prm.Name)
			}
			if !g.opts.NoDerivation && !decl.Type.Slice && !decl.Type.IsNamed() {
				if v, ok := constraint.Derive(prm.Name, rule.AST.Constraints, env); ok {
					env.Vars[prm.Name] = v
					res.objects[prm.Name] = &genObject{expr: describeValue(v), producedBy: idx}
					continue
				}
			}
			if !pushedSeen[prm.Name] {
				pushedSeen[prm.Name] = true
				res.pushed = append(res.pushed, prm.Name)
			}
		}
	}
	res.plan = g.planEvents(rule, path, specName)
	if res.plan == nil {
		return nil, fmt.Errorf("API model has no function or method for an event on path %v", path)
	}
	return res, nil
}

// resolvePhaseA implements cascade steps (a) template binding and (b)
// predicate-carrying generated object.
func (g *Generator) resolvePhaseA(tmpl *Template, m *TemplateMethod, inv *Invocation, rule *crysl.Rule, varName string, env *constraint.Env) (*genObject, string) {
	decl := rule.Objects[varName]
	if ident, ok := inv.Bindings[varName]; ok {
		obj := &genObject{expr: ident, fromTemplate: true, producedBy: -1}
		if t, ok := m.VarTypes[ident]; ok {
			obj.goType = t
		}
		assumption := ""
		for _, req := range rule.AST.Requires {
			if len(req.Params) > 0 && req.Params[0].Name == varName {
				assumption = fmt.Sprintf("%s: template-supplied %q assumed to satisfy %s", rule.SpecType(), ident, req.Name)
			}
		}
		return obj, assumption
	}
	// Predicate-matched pool object: only when the rule REQUIRES a
	// predicate on this variable.
	for _, req := range rule.AST.Requires {
		if len(req.Params) == 0 || req.Params[0].Name != varName {
			continue
		}
		for _, pool := range g.poolFor(varName) {
			if pool.preds[req.Name] && (pool.goType == nil || decl == nil || g.api.matchesCrySLType(pool.goType, decl.Type)) {
				if decl != nil && pool.goType != nil {
					if name := typeNameOf(pool.goType); name != "" {
						env.Types[varName] = g.api.qualified(name)
					}
				}
				return pool, ""
			}
		}
	}
	return nil, ""
}

// poolFor returns the current pool most-recent-first, giving later
// productions priority — a freshly derived key outranks an older one.
func (g *Generator) poolFor(string) []*genObject {
	out := make([]*genObject, len(g.curPool))
	for i, o := range g.curPool {
		out[len(g.curPool)-1-i] = o
	}
	return out
}

// findThisObject searches the pool for an object satisfying the rule's
// this-REQUIRES predicates and spec type.
func (g *Generator) findThisObject(rule *crysl.Rule, idx int) *genObject {
	specDecl := ast.Type{Name: rule.SpecType()}
	for _, req := range rule.AST.Requires {
		if len(req.Params) == 0 || !req.Params[0].This {
			continue
		}
		for _, obj := range g.curPool {
			if obj.preds[req.Name] && obj.goType != nil && g.api.matchesCrySLType(obj.goType, specDecl) {
				return obj
			}
		}
	}
	// No this-REQUIRES: fall back to any pool object of the spec type.
	if len(rule.AST.Requires) == 0 || !hasThisRequires(rule) {
		for i := len(g.curPool) - 1; i >= 0; i-- {
			obj := g.curPool[i]
			if obj.goType != nil && g.api.matchesCrySLType(obj.goType, specDecl) {
				return obj
			}
		}
	}
	return nil
}

func hasThisRequires(rule *crysl.Rule) bool {
	for _, req := range rule.AST.Requires {
		if len(req.Params) > 0 && req.Params[0].This {
			return true
		}
	}
	return false
}

// planEvents maps each path label to its API call shape.
func (g *Generator) planEvents(rule *crysl.Rule, path []string, specName string) []*plannedEvent {
	negating := rule.NegatingLabels()
	var plan []*plannedEvent
	for _, label := range path {
		ev, _ := rule.Event(label)
		pe := &plannedEvent{label: label, pattern: ev, deferred: negating[label]}
		if shape, ok := g.api.constructorFor(ev.Method, specName); ok {
			pe.shape = shape
			pe.isCtor = true
		} else if shape, ok := g.api.methodOn(specName, ev.Method); ok {
			pe.shape = shape
		} else {
			return nil
		}
		plan = append(plan, pe)
	}
	return plan
}
