// Package lint implements edgecache's custom static analyzers and the
// small driver framework they run on. The analyzers encode the invariants
// the hot-path, privacy, and protocol layers depend on but the compiler
// cannot check:
//
//	noalloc      //edgecache:noalloc functions (and their module-internal
//	             callees) contain no allocating constructs
//	determinism  no wall-clock reads, global math/rand, or map-order
//	             iteration in protocol/solver packages
//	floateq      no exact ==/!= between computed float64 values
//	flataccess   no raw Mat/Tensor3 backing-slice access outside
//	             internal/model
//	lockedsend   no blocking transport Send/Recv while a sync mutex is held
//	privflow     //edgecache:private data must pass an LPPM sanitizer
//	             before transport/checkpoint/log egress (interprocedural
//	             taint)
//	goleak       goroutines in cluster/parallel code need a reachable
//	             join; tickers/timers need a Stop path
//	atomicmix    a location accessed via sync/atomic is never touched
//	             plainly
//
// The framework mirrors the golang.org/x/tools/go/analysis shape
// (Analyzer, Pass, Diagnostic, suggested fixes) but is built purely on the
// standard library's go/ast + go/types, because this build environment
// cannot fetch external modules. Packages are analyzed concurrently (the
// whole-program passes memoize behind sync.Once). Diagnostics can be
// suppressed line-by-line with
//
//	//edgecache:lint-ignore <analyzer> <reason>
//
// where the reason is mandatory and unused or malformed directives are
// themselves diagnostics, so stale suppressions cannot linger.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Analyzer is one static check.
type Analyzer struct {
	// Name is the identifier used in diagnostics and lint-ignore
	// directives; Doc is the one-line description `edgelint -list` prints.
	Name string
	Doc  string
	// Run reports the analyzer's findings for one package.
	Run func(*Pass)
}

// Pass carries one (analyzer, package) run.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Prog     *Program
	diags    *[]Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Analyzer names the check that produced the finding.
	Analyzer string
	Pos      token.Position
	Message  string
	// Fixes, when non-empty, is a machine-applicable rewrite (edgelint
	// -fix applies it).
	Fixes []TextEdit
}

// TextEdit replaces the source bytes of [Pos, End) with NewText.
type TextEdit struct {
	Pos, End token.Pos
	NewText  string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(pos, fmt.Sprintf(format, args...), nil)
}

// Report records a finding with optional fixes.
func (p *Pass) Report(pos token.Pos, message string, fixes []TextEdit) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Prog.Fset.Position(pos),
		Message:  message,
		Fixes:    fixes,
	})
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NoAlloc,
		Determinism,
		FloatEq,
		FlatAccess,
		LockedSend,
		Privflow,
		Goleak,
		Atomicmix,
	}
}

// ByName resolves a comma-separated analyzer list ("" means all). An
// unknown or repeated name is an error: a repeat would run the analyzer
// twice and report every finding twice.
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return Analyzers(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range Analyzers() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	seen := map[*Analyzer]bool{}
	for _, name := range strings.Split(names, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", name)
		}
		if seen[a] {
			return nil, fmt.Errorf("lint: analyzer %q named twice", name)
		}
		seen[a] = true
		out = append(out, a)
	}
	return out, nil
}

// FixtureDirFragment marks the packages holding deliberate violations for
// the analyzer test suite; the driver skips them.
const FixtureDirFragment = "/internal/lint/fixtures/"

// DefaultSkip reports whether the driver should skip pkgPath: analyzer
// fixtures contain deliberate violations by design.
func DefaultSkip(pkgPath string) bool {
	return strings.Contains(pkgPath+"/", FixtureDirFragment)
}

// Run executes the analyzers over every loaded package for which skip
// returns false (nil means analyze everything), applies the lint-ignore
// directives, and returns the surviving diagnostics in file/line order.
// Packages run concurrently; the analyzers only read the type-checked
// program, and the whole-program passes memoize behind sync.Once, so a
// per-package fan-out is safe.
func (prog *Program) Run(analyzers []*Analyzer, skip func(pkgPath string) bool) []Diagnostic {
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}

	// Warm the shared whole-program results serially when their analyzers
	// are requested: the first computation touches big shared state, and
	// front-loading it keeps the per-package goroutines read-only.
	for _, a := range analyzers {
		switch a.Name {
		case "noalloc":
			prog.noallocResults()
		case "privflow":
			prog.privflowResults()
		case "atomicmix":
			prog.atomicResults()
		}
	}

	results := make([][]Diagnostic, len(prog.Packages))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, pkg := range prog.Packages {
		if skip != nil && skip(pkg.Path) {
			continue
		}
		wg.Add(1)
		go func(i int, pkg *Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			ignores := collectIgnores(prog, pkg)
			var pkgDiags []Diagnostic
			for _, a := range analyzers {
				pass := &Pass{Analyzer: a, Pkg: pkg, Prog: prog, diags: &pkgDiags}
				a.Run(pass)
			}
			results[i] = applyIgnores(pkgDiags, ignores, ran, known)
		}(i, pkg)
	}
	wg.Wait()

	var diags []Diagnostic
	for _, pkgDiags := range results {
		diags = append(diags, pkgDiags...)
	}
	sortDiagnostics(diags)
	return diags
}

// sortDiagnostics orders findings by file, line, column, analyzer.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}

// ignoreDirective is one parsed //edgecache:lint-ignore comment.
type ignoreDirective struct {
	analyzer string
	pos      token.Position
	// line is the source line the directive suppresses (the directive's
	// own line for trailing comments, the following line for standalone
	// comment lines).
	line int
	used bool
	// bad holds the malformed-directive diagnostic, when applicable.
	bad string
}

const ignorePrefix = "//edgecache:lint-ignore"

// collectIgnores parses every lint-ignore directive in the package.
func collectIgnores(prog *Program, pkg *Package) []*ignoreDirective {
	var out []*ignoreDirective
	for i, file := range pkg.Files {
		src := pkg.Sources[i]
		for _, group := range file.Comments {
			for _, c := range group.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := prog.Fset.Position(c.Pos())
				d := &ignoreDirective{pos: pos, line: pos.Line}
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				fields := strings.Fields(rest)
				switch {
				case len(fields) == 0:
					d.bad = "lint-ignore directive names no analyzer"
				case len(fields) == 1:
					d.bad = fmt.Sprintf("lint-ignore %s gives no reason; a written reason is mandatory", fields[0])
				default:
					d.analyzer = fields[0]
				}
				// A directive on its own line suppresses the next line; a
				// trailing directive suppresses its own line.
				if standaloneComment(src, pos) {
					d.line = pos.Line + 1
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// standaloneComment reports whether only whitespace precedes the comment
// on its line.
func standaloneComment(src []byte, pos token.Position) bool {
	offset := pos.Offset
	for offset > 0 && src[offset-1] != '\n' {
		offset--
		if ch := src[offset]; ch != ' ' && ch != '\t' {
			return false
		}
	}
	return true
}

// applyIgnores drops diagnostics covered by a well-formed directive and
// appends diagnostics for malformed or unused directives. ran is the set
// of analyzers executed this run (a directive for an analyzer that did
// not run cannot be judged unused); known is the full suite, so a
// directive naming a nonexistent analyzer is caught as a typo.
func applyIgnores(diags []Diagnostic, ignores []*ignoreDirective, ran, known map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		suppressed := false
		for _, ig := range ignores {
			if ig.bad == "" && ig.analyzer == d.Analyzer &&
				ig.pos.Filename == d.Pos.Filename && ig.line == d.Pos.Line {
				ig.used = true
				suppressed = true
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	for _, ig := range ignores {
		switch {
		case ig.bad != "":
			out = append(out, Diagnostic{Analyzer: "directive", Pos: ig.pos, Message: ig.bad})
		case !known[ig.analyzer]:
			out = append(out, Diagnostic{
				Analyzer: "directive",
				Pos:      ig.pos,
				Message:  fmt.Sprintf("lint-ignore names unknown analyzer %q", ig.analyzer),
			})
		case !ig.used && ran[ig.analyzer]:
			out = append(out, Diagnostic{
				Analyzer: "directive",
				Pos:      ig.pos,
				Message:  fmt.Sprintf("unused lint-ignore %s directive (nothing to suppress on its line); delete it", ig.analyzer),
			})
		}
	}
	return out
}

// noallocDirective marks a function whose body (and module-internal call
// closure) must not allocate.
const noallocDirective = "//edgecache:noalloc"

// hasNoallocDirective reports whether the function declaration carries the
// directive in its doc comment.
func hasNoallocDirective(decl *ast.FuncDecl) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if text := strings.TrimSpace(c.Text); text == noallocDirective {
			return true
		}
	}
	return false
}
