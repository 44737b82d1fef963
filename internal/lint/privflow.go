package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Privflow enforces the paper's privacy invariant (§IV, Theorem 5)
// statically: raw per-MU demand, dual multipliers μ, and pre-LPPM routing
// shares never reach an egress point un-noised. Sources are declarations
// tagged //edgecache:private (struct fields whose reads yield raw values,
// and functions whose results are raw); sinks are transport sends
// (Endpoint.Send and every implementation), checkpoint encoding
// (CheckpointSink.Save, Checkpoint.MarshalBinary), and logging (log.*,
// fmt.Print family); the only sanitizers are the LPPM noise mechanisms
// (dp.LPPMNoise, dp.BoundedLaplace.Sample, core.LPPM.Perturb/PerturbSBS).
// Any source→sink dataflow path that does not pass a sanitizer is a
// finding.
//
// The analysis is a summary-based interprocedural taint propagation:
// every module function gets a fixpoint summary (which parameters flow to
// its results, which parameters it forwards to a sink), and a reporting
// pass then walks each body with those summaries, flagging sink calls —
// direct or through a summarized callee — whose arguments carry
// source-derived taint.
//
// Dataflow semantics, chosen to match the repo's sanitization idiom:
//
//   - assignments to a plain variable are strong updates in lexical
//     order ("last writer wins"), so the canonical shape
//     `routing := res.Routing; if lppm != nil { routing, _ =
//     lppm.Perturb(...) }` leaves routing clean — the analyzer trusts the
//     nil-guard, because lppm == nil means privacy is configured off;
//   - writes through a local's field/index (`ck.Mu[n] = raw`) taint the
//     local as a whole (weak update), so building a checkpoint from raw μ
//     taints the checkpoint value handed to Save;
//   - stores into non-local state (receiver fields, SetSBS-style calls)
//     are NOT tracked — heap flows are privflow's documented blind spot,
//     exactly as interface dispatch is noalloc's. Egress code in this
//     repo reads its payloads from values built locally, which the
//     tracked flows cover;
//   - calls outside the module conservatively taint their results when
//     any argument is tainted; dynamic calls through function values
//     propagate the same way but are never reported (no static callee to
//     name).
var Privflow = &Analyzer{
	Name: "privflow",
	Doc:  "tagged //edgecache:private data must pass an LPPM sanitizer before transport, checkpoint, or log egress",
	Run:  runPrivflow,
}

// privateDirective tags a struct field or function whose value/results are
// raw private data. Trailing words describe what is private.
const privateDirective = "//edgecache:private"

func runPrivflow(pass *Pass) {
	for _, d := range pass.Prog.privflowResults()[pass.Pkg.Path] {
		*pass.diags = append(*pass.diags, d)
	}
}

// taintMask tracks what a value may derive from: bit i = "depends on
// parameter i of the function under analysis", and the top bit = "derives
// from a tagged source". Parameter bits feed the summaries; the inherent
// bit is what the reporting pass flags at sinks.
type taintMask uint64

const (
	inherentTaint taintMask = 1 << 63
	paramBits     taintMask = inherentTaint - 1
)

func paramBit(i int) taintMask {
	if i > 62 {
		i = 62 // merge overflow params; precision loss only, never unsoundness
	}
	return 1 << uint(i)
}

// funcSummary is the fixpoint summary of one module function.
type funcSummary struct {
	// retMask: parameter bits whose taint flows into some result, plus
	// the inherent bit when a result derives from a source regardless of
	// arguments (tagged functions, or bodies reading tagged fields).
	retMask taintMask
	// sinkParams: parameter bits that reach a sink inside the function
	// (transitively); sinkDesc names the sink for the caller-side report.
	sinkParams taintMask
	sinkDesc   string
}

// privConfig is the program-wide source/sink/sanitizer classification.
type privConfig struct {
	sourceFields map[types.Object]bool
	sourceFuncs  map[*types.Func]bool
	endpoint     *types.Interface // edgecache/internal/transport.Endpoint
	ckptSink     *types.Interface // edgecache/internal/model.CheckpointSink
}

// privflowResults runs the whole-program analysis once and caches the
// per-package diagnostics.
func (prog *Program) privflowResults() map[string][]Diagnostic {
	prog.privflowOnce.Do(func() {
		prog.privflowDiag = map[string][]Diagnostic{}
		cfg := &privConfig{
			sourceFields: map[types.Object]bool{},
			sourceFuncs:  map[*types.Func]bool{},
			endpoint:     namedInterface(prog, transportPkgPath, "Endpoint"),
			ckptSink:     namedInterface(prog, "edgecache/internal/model", "CheckpointSink"),
		}
		prog.collectPrivateTags(cfg)
		funcs := prog.moduleFuncs()

		// Fixpoint over function summaries. Summaries only grow (masks OR
		// monotonically), so iteration terminates; the bound guards
		// against pathological chains.
		summaries := map[*types.Func]*funcSummary{}
		for fn := range funcs {
			s := &funcSummary{}
			if cfg.sourceFuncs[fn] {
				s.retMask = inherentTaint
			}
			summaries[fn] = s
		}
		for round := 0; round < 32; round++ {
			changed := false
			for fn, mf := range funcs {
				w := newTaintWalker(prog, mf.pkg, cfg, funcs, summaries, nil)
				w.seedParams(fn, mf.decl)
				w.walkBody(mf.decl.Body)
				s := summaries[fn]
				retMask := s.retMask | w.retMask
				sinkParams := s.sinkParams | (w.sinkParams & paramBits)
				if retMask != s.retMask || sinkParams != s.sinkParams {
					s.retMask, s.sinkParams = retMask, sinkParams
					if s.sinkDesc == "" {
						s.sinkDesc = w.sinkDesc
					}
					changed = true
				}
			}
			if !changed {
				break
			}
		}

		// Reporting pass: parameters start clean; only inherent taint
		// (source reads in this body or via callee summaries) can reach a
		// sink and be flagged.
		for _, mf := range funcs {
			pkg := mf.pkg
			w := newTaintWalker(prog, pkg, cfg, funcs, summaries, func(pos token.Pos, msg string) {
				prog.privflowDiag[pkg.Path] = append(prog.privflowDiag[pkg.Path], Diagnostic{
					Analyzer: "privflow",
					Pos:      prog.Fset.Position(pos),
					Message:  msg,
				})
			})
			w.walkBody(mf.decl.Body)
		}
	})
	return prog.privflowDiag
}

// collectPrivateTags finds every //edgecache:private directive on struct
// fields and function declarations.
func (prog *Program) collectPrivateTags(cfg *privConfig) {
	hasTag := func(doc *ast.CommentGroup) bool {
		if doc == nil {
			return false
		}
		for _, c := range doc.List {
			if text := strings.TrimSpace(c.Text); text == privateDirective ||
				strings.HasPrefix(text, privateDirective+" ") {
				return true
			}
		}
		return false
	}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch node := n.(type) {
				case *ast.FuncDecl:
					if hasTag(node.Doc) {
						if fn, ok := pkg.Info.Defs[node.Name].(*types.Func); ok {
							cfg.sourceFuncs[fn] = true
						}
					}
					return true
				case *ast.StructType:
					for _, field := range node.Fields.List {
						if !hasTag(field.Doc) && !hasTag(field.Comment) {
							continue
						}
						for _, name := range field.Names {
							if obj := pkg.Info.Defs[name]; obj != nil {
								cfg.sourceFields[obj] = true
							}
						}
					}
				}
				return true
			})
		}
	}
}

// isSanitizer matches the LPPM noise mechanisms by identity: package path,
// receiver type name, function name.
func isSanitizer(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv = recvName(sig.Recv().Type())
	}
	switch fn.Pkg().Path() {
	case "edgecache/internal/dp":
		return (recv == "" && fn.Name() == "LPPMNoise") ||
			(recv == "BoundedLaplace" && fn.Name() == "Sample")
	case "edgecache/internal/core":
		return recv == "LPPM" && (fn.Name() == "Perturb" || fn.Name() == "PerturbSBS")
	}
	return false
}

// fmtPrintSinks are the fmt functions that write to a stream; Sprint* only
// build strings and merely propagate taint.
var fmtPrintSinks = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// sinkDescFor classifies a resolved callee as a sink and names it.
func (cfg *privConfig) sinkDescFor(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	if fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "log":
			return "log output"
		case "fmt":
			if fmtPrintSinks[fn.Name()] {
				return "stream print"
			}
		}
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	recv := sig.Recv().Type()
	if fn.Name() == "Send" && implementsOrIs(recv, cfg.endpoint) {
		return "transport send"
	}
	if fn.Name() == "Save" && implementsOrIs(recv, cfg.ckptSink) {
		return "checkpoint save"
	}
	if fn.Name() == "MarshalBinary" && recvName(recv) == "Checkpoint" &&
		fn.Pkg() != nil && fn.Pkg().Path() == "edgecache/internal/model" {
		return "checkpoint encode"
	}
	return ""
}

// taintWalker evaluates taint over one function body. With report == nil
// it runs in summary mode (parameters seeded with their bits); otherwise
// it runs in reporting mode (parameters clean, sinks flagged).
type taintWalker struct {
	prog      *Program
	pkg       *Package
	cfg       *privConfig
	funcs     map[*types.Func]modFunc
	summaries map[*types.Func]*funcSummary
	report    func(pos token.Pos, msg string)

	state      map[types.Object]taintMask
	retMask    taintMask
	sinkParams taintMask
	sinkDesc   string
	// reported dedups findings: loop bodies are walked twice for
	// convergence, and a sink must still be flagged exactly once.
	reported map[token.Pos]bool
	// locals are the variables declared inside the body under analysis.
	// Weak updates (writes through a field/index) only taint these:
	// `ck.Mu[n] = raw` taints the locally-built ck, while stores through
	// parameters and receivers are the documented heap blind spot.
	locals map[types.Object]bool
}

func newTaintWalker(prog *Program, pkg *Package, cfg *privConfig,
	funcs map[*types.Func]modFunc, summaries map[*types.Func]*funcSummary,
	report func(token.Pos, string)) *taintWalker {
	return &taintWalker{
		prog: prog, pkg: pkg, cfg: cfg, funcs: funcs, summaries: summaries,
		report: report, state: map[types.Object]taintMask{},
		reported: map[token.Pos]bool{},
		locals:   map[types.Object]bool{},
	}
}

// seedParams assigns parameter bit i to parameter i (receiver first).
func (w *taintWalker) seedParams(fn *types.Func, decl *ast.FuncDecl) {
	i := 0
	assign := func(fields *ast.FieldList) {
		if fields == nil {
			return
		}
		for _, f := range fields.List {
			if len(f.Names) == 0 {
				i++
				continue
			}
			for _, name := range f.Names {
				if obj := w.pkg.Info.Defs[name]; obj != nil {
					w.state[obj] = paramBit(i)
				}
				i++
			}
		}
	}
	assign(decl.Recv)
	assign(decl.Type.Params)
}

// paramMasks returns the call-site masks aligned with the callee's
// parameter numbering (receiver first when present).
func (w *taintWalker) paramMasks(callee *types.Func, call *ast.CallExpr) []taintMask {
	var masks []taintMask
	if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			masks = append(masks, w.evalMask(sel.X))
		} else {
			masks = append(masks, 0)
		}
	}
	for _, arg := range call.Args {
		masks = append(masks, w.evalMask(arg))
	}
	return masks
}

func (w *taintWalker) walkBody(block *ast.BlockStmt) {
	if block == nil {
		return
	}
	for _, stmt := range block.List {
		w.walkStmt(stmt)
	}
}

func (w *taintWalker) walkStmt(stmt ast.Stmt) {
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		w.walkAssign(s)
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		w.evalMask(s.Cond)
		w.walkBody(s.Body)
		if s.Else != nil {
			w.walkStmt(s.Else)
		}
	case *ast.BlockStmt:
		w.walkBody(s)
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		if s.Cond != nil {
			w.evalMask(s.Cond)
		}
		// Two passes so taint flowing backwards through loop-carried
		// variables (x = y; y = raw) converges.
		for i := 0; i < 2; i++ {
			w.walkBody(s.Body)
			if s.Post != nil {
				w.walkStmt(s.Post)
			}
		}
	case *ast.RangeStmt:
		m := w.evalMask(s.X)
		for _, lhs := range []ast.Expr{s.Key, s.Value} {
			if ident, ok := lhs.(*ast.Ident); ok && ident.Name != "_" {
				if obj := w.lhsObject(ident, s.Tok == token.DEFINE); obj != nil {
					if s.Tok == token.DEFINE {
						w.locals[obj] = true
					}
					w.state[obj] = m
				}
			}
		}
		for i := 0; i < 2; i++ {
			w.walkBody(s.Body)
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		if s.Tag != nil {
			w.evalMask(s.Tag)
		}
		for _, clause := range s.Body.List {
			for _, st := range clause.(*ast.CaseClause).Body {
				w.walkStmt(st)
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		// `switch p := v.(type)` binds a fresh p in every clause; each one
		// carries v's taint.
		var m taintMask
		switch a := s.Assign.(type) {
		case *ast.AssignStmt:
			m = w.evalMask(a.Rhs[0])
		case *ast.ExprStmt:
			w.evalMask(a.X)
		}
		for _, clause := range s.Body.List {
			if obj := w.pkg.Info.Implicits[clause]; obj != nil {
				w.locals[obj] = true
				w.state[obj] = m
			}
		}
		for _, clause := range s.Body.List {
			for _, st := range clause.(*ast.CaseClause).Body {
				w.walkStmt(st)
			}
		}
	case *ast.SelectStmt:
		for _, clause := range s.Body.List {
			cc := clause.(*ast.CommClause)
			if cc.Comm != nil {
				w.walkStmt(cc.Comm)
			}
			for _, st := range cc.Body {
				w.walkStmt(st)
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.retMask |= w.evalMask(e)
		}
	case *ast.ExprStmt:
		w.evalMask(s.X)
	case *ast.GoStmt:
		w.evalMask(s.Call)
	case *ast.DeferStmt:
		w.evalMask(s.Call)
	case *ast.SendStmt:
		m := w.evalMask(s.Value)
		if obj := baseObject(w.pkg, s.Chan); obj != nil {
			w.state[obj] |= m
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var m taintMask
					if len(vs.Values) == len(vs.Names) {
						m = w.evalMask(vs.Values[i])
					} else if len(vs.Values) == 1 {
						m = w.evalMask(vs.Values[0])
					}
					if obj := w.pkg.Info.Defs[name]; obj != nil {
						w.locals[obj] = true
						w.state[obj] = m
					}
				}
			}
		}
	case *ast.IncDecStmt:
		w.evalMask(s.X)
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt)
	case *ast.BranchStmt, *ast.EmptyStmt, nil:
	default:
		ast.Inspect(stmt, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				w.evalMask(e)
				return false
			}
			return true
		})
	}
}

// walkAssign applies the update semantics: strong for plain identifiers,
// weak (container-tainting) for writes through a local's field/index.
func (w *taintWalker) walkAssign(s *ast.AssignStmt) {
	var masks []taintMask
	if len(s.Rhs) == len(s.Lhs) {
		for _, rhs := range s.Rhs {
			masks = append(masks, w.evalMask(rhs))
		}
	} else {
		// Tuple assignment from one call: every LHS gets the call's mask.
		m := w.evalMask(s.Rhs[0])
		for range s.Lhs {
			masks = append(masks, m)
		}
	}
	for i, lhs := range s.Lhs {
		if ident, ok := lhs.(*ast.Ident); ok {
			if ident.Name == "_" {
				continue
			}
			if obj := w.lhsObject(ident, s.Tok == token.DEFINE); obj != nil {
				if s.Tok == token.DEFINE {
					w.locals[obj] = true
				}
				if s.Tok == token.ASSIGN || s.Tok == token.DEFINE {
					w.state[obj] = masks[i]
				} else {
					w.state[obj] |= masks[i] // op= reads the old value too
				}
			}
			continue
		}
		if obj := rootIdentObject(w.pkg, lhs); obj != nil && w.locals[obj] {
			w.state[obj] |= masks[i]
		}
	}
}

// rootIdentObject resolves the identifier an lvalue is rooted at (`ck`
// for `ck.Mu[n]`), unlike baseObject which prefers the field.
func rootIdentObject(pkg *Package, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if obj := pkg.Info.Uses[x]; obj != nil {
				return obj
			}
			return pkg.Info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func (w *taintWalker) lhsObject(ident *ast.Ident, define bool) types.Object {
	if define {
		if obj := w.pkg.Info.Defs[ident]; obj != nil {
			return obj
		}
	}
	return w.pkg.Info.Uses[ident]
}

func (w *taintWalker) evalMask(e ast.Expr) taintMask {
	switch x := e.(type) {
	case nil:
		return 0
	case *ast.Ident:
		if obj := w.pkg.Info.Uses[x]; obj != nil {
			return w.state[obj]
		}
		return 0
	case *ast.SelectorExpr:
		if obj := w.pkg.Info.Uses[x.Sel]; obj != nil && w.cfg.sourceFields[obj] {
			return inherentTaint | w.evalMask(x.X)
		}
		return w.evalMask(x.X)
	case *ast.CallExpr:
		return w.evalCall(x)
	case *ast.CompositeLit:
		var m taintMask
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				m |= w.evalMask(kv.Value)
			} else {
				m |= w.evalMask(elt)
			}
		}
		return m
	case *ast.UnaryExpr:
		return w.evalMask(x.X)
	case *ast.BinaryExpr:
		return w.evalMask(x.X) | w.evalMask(x.Y)
	case *ast.ParenExpr:
		return w.evalMask(x.X)
	case *ast.StarExpr:
		return w.evalMask(x.X)
	case *ast.IndexExpr:
		w.evalMask(x.Index)
		return w.evalMask(x.X)
	case *ast.SliceExpr:
		return w.evalMask(x.X)
	case *ast.TypeAssertExpr:
		return w.evalMask(x.X)
	case *ast.FuncLit:
		// Closures share the enclosing state: they capture the same
		// locals, and the repo's goroutine bodies egress captured data.
		w.walkBody(x.Body)
		return 0
	default:
		return 0
	}
}

func (w *taintWalker) evalCall(call *ast.CallExpr) taintMask {
	// Conversions pass taint through.
	if tv, ok := w.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		var m taintMask
		for _, arg := range call.Args {
			m |= w.evalMask(arg)
		}
		return m
	}
	// Builtins: len/cap of a tainted container is a benign scalar;
	// everything else (append, copy targets, ...) propagates.
	if ident, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := w.pkg.Info.Uses[ident].(*types.Builtin); isBuiltin {
			var m taintMask
			for _, arg := range call.Args {
				m |= w.evalMask(arg)
			}
			if ident.Name == "len" || ident.Name == "cap" {
				return 0
			}
			return m
		}
	}

	callee := calleeFunc(w.pkg, call)
	if callee == nil {
		// Dynamic call through a function value: propagate, never report.
		var m taintMask
		for _, arg := range call.Args {
			m |= w.evalMask(arg)
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			m |= w.evalMask(sel.X)
		}
		w.taintAddrArgs(call, m)
		return m
	}

	masks := w.paramMasks(callee, call)
	var combined taintMask
	for _, m := range masks {
		combined |= m
	}

	if isSanitizer(callee) {
		return 0
	}
	if desc := w.cfg.sinkDescFor(callee); desc != "" {
		w.hitSink(call.Pos(), desc, combined, "")
		return 0
	}
	if s, ok := w.summaries[callee]; ok {
		if s.sinkParams != 0 {
			var fwd taintMask
			for i, m := range masks {
				if s.sinkParams&paramBit(i) != 0 {
					fwd |= m
				}
			}
			w.hitSink(call.Pos(), s.sinkDesc, fwd, callee.Name())
		}
		var ret taintMask
		if s.retMask&inherentTaint != 0 {
			ret |= inherentTaint
		}
		for i, m := range masks {
			if s.retMask&paramBit(i) != 0 {
				ret |= m
			}
		}
		return ret
	}
	// Non-module call: conservative propagation (fmt.Sprintf, json.Marshal,
	// append-style helpers all keep their inputs recoverable).
	w.taintAddrArgs(call, combined)
	return combined
}

// taintAddrArgs conservatively taints address-taken locals anywhere in a
// call to an unresolved callee: fmt.Sscanf(s, "%f", &x) writes through the
// pointer, and chained builders like json.NewEncoder(&buf).Encode(v) write
// the encoded v into buf. Scanning the whole call expression (not just the
// outermost argument list) is what lets such a buffer pick up its input's
// taint.
func (w *taintWalker) taintAddrArgs(call *ast.CallExpr, mask taintMask) {
	if mask == 0 {
		return
	}
	ast.Inspect(call, func(n ast.Node) bool {
		if un, ok := n.(*ast.UnaryExpr); ok && un.Op == token.AND {
			if obj := rootIdentObject(w.pkg, un.X); obj != nil && w.locals[obj] {
				w.state[obj] |= mask
			}
		}
		return true
	})
}

// hitSink records a sink contact: parameter-derived taint feeds the
// summary, inherent taint is a finding in reporting mode.
func (w *taintWalker) hitSink(pos token.Pos, desc string, mask taintMask, via string) {
	if desc == "" {
		desc = "sink"
	}
	w.sinkParams |= mask & paramBits
	if w.sinkDesc == "" {
		w.sinkDesc = desc
	}
	if w.report != nil && mask&inherentTaint != 0 && !w.reported[pos] {
		w.reported[pos] = true
		msg := fmt.Sprintf("//edgecache:private data reaches %s without passing an LPPM sanitizer (dp.LPPMNoise, dp.BoundedLaplace.Sample, core.LPPM.Perturb/PerturbSBS)", desc)
		if via != "" {
			msg = fmt.Sprintf("//edgecache:private data reaches %s via %s without passing an LPPM sanitizer", desc, via)
		}
		w.report(pos, msg)
	}
}
