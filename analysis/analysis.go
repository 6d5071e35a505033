// Package analysis is a GoCrySL-driven static misuse analyzer for code
// using the gca crypto façade — the analog of CogniCryptSAST in the
// CogniCrypt ecosystem (paper §1, §5.1): the very same rule set that
// drives code generation is reused to detect misuses in existing code.
//
// The analyzer is intra-procedural. Per function it tracks every local
// object of a specified type, simulates the rule's ORDER automaton over
// the observed call sequence, accumulates constant argument values, and
// propagates ENSURES/REQUIRES predicates between objects. It reports five
// finding kinds, mirroring CogniCryptSAST's error taxonomy:
//
//   - TypestateError: a call that the ORDER automaton cannot accept at the
//     current state.
//   - IncompleteOperationError: an object whose use ends in a
//     non-accepting state (e.g. PBEKeySpec never cleared).
//   - ConstraintError: a constant argument that violates a CONSTRAINTS
//     entry (e.g. iteration count below 10,000, blacklisted algorithm).
//   - RequiredPredicateError: a REQUIRES predicate that no local producer
//     established (e.g. a salt from a constant instead of SecureRandom).
//   - ForbiddenMethodError: a call to a FORBIDDEN method.
//
// Values that flow in from parameters or from outside the analysed file
// set are treated as unknown: the analyzer records an assumption instead
// of a finding, which keeps it useful on the generator's per-method
// output. Within the file set, depth-1 function summaries propagate the
// predicates helpers grant on their results (a salt randomized inside a
// helper is a valid salt at the call site), and type-conversion origins
// feed the neverTypeOf constraint (a password that was ever a Go string
// is flagged, per the paper's §2.1).
package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"

	"cognicryptgen/crysl"
	crylAst "cognicryptgen/crysl/ast"
	"cognicryptgen/crysl/constraint"
	"cognicryptgen/internal/srccheck"
)

// Kind classifies a finding.
type Kind int

// Finding kinds, mirroring CogniCryptSAST's error taxonomy.
const (
	TypestateError Kind = iota
	IncompleteOperationError
	ConstraintError
	RequiredPredicateError
	ForbiddenMethodError
)

// String returns the CogniCryptSAST-style name of the kind.
func (k Kind) String() string {
	switch k {
	case TypestateError:
		return "TypestateError"
	case IncompleteOperationError:
		return "IncompleteOperationError"
	case ConstraintError:
		return "ConstraintError"
	case RequiredPredicateError:
		return "RequiredPredicateError"
	case ForbiddenMethodError:
		return "ForbiddenMethodError"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Finding is one reported misuse.
type Finding struct {
	Kind     Kind
	Pos      token.Position
	Rule     string // specified type, e.g. "gca.PBEKeySpec"
	Function string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [%s] in %s: %s", f.Pos, f.Kind, f.Rule, f.Function, f.Message)
}

// Report is the outcome of analysing one file.
type Report struct {
	Findings []Finding
	// Assumptions records flows the intra-procedural analysis could not
	// verify (parameters, cross-function values).
	Assumptions []string
}

// HasFindings reports whether any misuse was found.
func (r *Report) HasFindings() bool { return len(r.Findings) > 0 }

// Options tunes the analyzer.
type Options struct {
	// NFASimulation simulates call sequences on the epsilon-NFA instead of
	// the DFA (ablation E7; results are identical, speed differs).
	NFASimulation bool
}

// Analyzer checks Go source against a GoCrySL rule set.
type Analyzer struct {
	rules   *crysl.RuleSet
	checker *srccheck.Checker
	gcaPkg  *types.Package
	opts    Options
}

// New creates an Analyzer. dir locates the module ("" = working
// directory).
func New(ruleSet *crysl.RuleSet, dir string, opts Options) (*Analyzer, error) {
	checker, err := srccheck.NewChecker(dir)
	if err != nil {
		return nil, err
	}
	pkg, err := checker.ImportPackage(srccheck.ModulePath + "/gca")
	if err != nil {
		return nil, err
	}
	return &Analyzer{rules: ruleSet, checker: checker, gcaPkg: pkg, opts: opts}, nil
}

// AnalyzeSource type-checks and analyses a single Go file.
func (a *Analyzer) AnalyzeSource(name, src string) (*Report, error) {
	file, _, info, err := a.checker.CheckSource(name, src)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s does not type-check: %w", name, err)
	}
	defer a.checker.Release(file) // findings resolve their positions first
	return a.analyzeFiles([]*ast.File{file}, info), nil
}

// AnalyzeDir analyses every non-test file of the Go package in dir as one
// unit (types resolve across files; the typestate analysis itself stays
// per-function).
func (a *Analyzer) AnalyzeDir(dir string) (*Report, error) {
	files, _, info, err := a.checker.CheckDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s does not type-check: %w", dir, err)
	}
	defer a.checker.Release(files...)
	return a.analyzeFiles(files, info), nil
}

func sortFindings(report *Report) {
	sort.Slice(report.Findings, func(i, j int) bool {
		pi, pj := report.Findings[i].Pos, report.Findings[j].Pos
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
}

// funcSummary records, per result index, the predicates a function
// establishes on the values it returns — the depth-1 interprocedural
// summary callers consume (CogniCryptSAST performs this flow
// whole-program; here it spans the analysed file set).
type funcSummary struct {
	results map[int]map[string]bool
}

// analyzeFiles runs the two-pass analysis: pass 1 computes function
// summaries (findings discarded), pass 2 reports findings with summaries
// available at call sites.
func (a *Analyzer) analyzeFiles(files []*ast.File, info *types.Info) *Report {
	summaries := map[types.Object]*funcSummary{}
	for _, file := range files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			def := info.Defs[fd.Name]
			if def == nil {
				continue
			}
			out := &funcSummary{results: map[int]map[string]bool{}}
			fa := a.newFuncAnalysis(fd, info, &Report{}, nil)
			fa.summaryOut = out
			fa.run()
			if len(out.results) > 0 {
				summaries[def] = out
			}
		}
	}

	report := &Report{}
	for _, file := range files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fa := a.newFuncAnalysis(fd, info, report, summaries)
			fa.run()
		}
	}
	sortFindings(report)
	return report
}

func (a *Analyzer) newFuncAnalysis(fd *ast.FuncDecl, info *types.Info, report *Report, summaries map[types.Object]*funcSummary) *funcAnalysis {
	return &funcAnalysis{
		a:         a,
		info:      info,
		report:    report,
		fn:        fd,
		tracked:   map[types.Object]*trackedObject{},
		preds:     map[types.Object]map[string]bool{},
		lens:      map[types.Object]int{},
		summaries: summaries,
	}
}

// ruleForType returns the rule specifying the (possibly pointer) type.
func (a *Analyzer) ruleForType(t types.Type) (*crysl.Rule, bool) {
	name := namedTypeName(t)
	if name == "" {
		return nil, false
	}
	return a.rules.Get(a.gcaPkg.Name() + "." + name)
}

func namedTypeName(t types.Type) string {
	switch t := t.(type) {
	case *types.Pointer:
		return namedTypeName(t.Elem())
	case *types.Named:
		return t.Obj().Name()
	}
	return ""
}

// satisfiesCrySLType reports whether a Go type matches a GoCrySL declared
// type, walking gca interface satisfaction and struct embedding.
func (a *Analyzer) satisfiesCrySLType(goType types.Type, decl crylAst.Type) bool {
	if goType == nil {
		return false
	}
	if !decl.IsNamed() {
		return true // basic/slice types: trust go/types, the call compiled
	}
	wantObj := a.gcaPkg.Scope().Lookup(trimPkg(decl.Name))
	if wantObj == nil {
		return false
	}
	want := wantObj.Type()
	if types.AssignableTo(goType, want) || types.AssignableTo(types.NewPointer(goType), want) {
		return true
	}
	// Struct embedding: SecretKeySpec embeds SecretKey.
	base := goType
	if p, ok := base.(*types.Pointer); ok {
		base = p.Elem()
	}
	if named, ok := base.(*types.Named); ok {
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if f.Embedded() && a.satisfiesCrySLType(f.Type(), decl) {
					return true
				}
			}
		}
	}
	return types.Identical(base, want)
}

func trimPkg(qname string) string {
	for i := len(qname) - 1; i >= 0; i-- {
		if qname[i] == '.' {
			return qname[i+1:]
		}
	}
	return qname
}

// constValueOf extracts a constraint value from a constant expression.
func constValueOf(info *types.Info, e ast.Expr) (constraint.Value, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return constraint.Unknown, false
	}
	switch tv.Value.Kind() {
	case constant.Int:
		if i, ok := constant.Int64Val(tv.Value); ok {
			return constraint.IntVal(i), true
		}
	case constant.String:
		return constraint.StrVal(constant.StringVal(tv.Value)), true
	case constant.Bool:
		return constraint.BoolVal(constant.BoolVal(tv.Value)), true
	}
	return constraint.Unknown, false
}
