package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockedSend forbids blocking transport calls (Endpoint.Send/Recv and any
// implementation's Send/Recv) while a sync.Mutex or sync.RWMutex is held.
// The send-retry loop makes this shape actively dangerous: a Send can
// sleep through several backoff windows, so a mutex held across it
// stalls every other goroutine touching that lock — in the
// worst case the very Recv loop whose progress the Send is waiting on,
// which is a deadlock, not a slowdown. The fix is the pattern
// ReliableEndpoint.Send itself uses: update state under the lock, release
// it, then perform the blocking call.
//
// The analysis is a per-function lexical scan: Lock/RLock adds the lock
// expression to the held set, Unlock/RUnlock removes it, a deferred
// Unlock pins it for the rest of the function, and nested function
// literals start with a clean slate (they run on their own goroutine or
// after return).
var LockedSend = &Analyzer{
	Name: "lockedsend",
	Doc:  "no blocking transport Send/Recv while a sync.Mutex/RWMutex is held",
	Run:  runLockedSend,
}

const transportPkgPath = "edgecache/internal/transport"

func runLockedSend(pass *Pass) {
	endpoint := endpointInterface(pass.Prog)
	if endpoint == nil {
		return // module slice under analysis does not include the transport layer
	}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			scanLockedSend(pass, endpoint, fd.Body, map[string]token.Pos{})
		}
	}
}

// endpointInterface finds transport.Endpoint's interface type in the
// loaded program.
func endpointInterface(prog *Program) *types.Interface {
	pkg := prog.ByPath[transportPkgPath]
	if pkg == nil {
		return nil
	}
	obj := pkg.Types.Scope().Lookup("Endpoint")
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

// scanLockedSend walks one statement list with the current held-lock set
// (keyed by the lock expression's source text). Branch bodies get a copy:
// an Unlock inside an if releases the lock only on that path, and after a
// conditional release the conservative answer is "still held" — a Send
// that is safe only on one branch is still a bug on the other.
func scanLockedSend(pass *Pass, endpoint *types.Interface, block *ast.BlockStmt, held map[string]token.Pos) {
	for _, stmt := range block.List {
		scanLockedSendStmt(pass, endpoint, stmt, held)
	}
}

func scanLockedSendStmt(pass *Pass, endpoint *types.Interface, stmt ast.Stmt, held map[string]token.Pos) {
	copyHeld := func() map[string]token.Pos {
		cp := make(map[string]token.Pos, len(held))
		for k, v := range held {
			cp[k] = v
		}
		return cp
	}
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if name, recv, kind := lockCall(pass.Pkg, call); kind != 0 {
				if kind > 0 {
					held[recv] = call.Pos()
				} else {
					delete(held, recv)
				}
				_ = name
				return
			}
		}
		checkSendsUnder(pass, endpoint, s.X, held)
	case *ast.DeferStmt:
		if _, recv, kind := lockCall(pass.Pkg, s.Call); kind < 0 {
			// Deferred unlock: the lock stays held for the remainder of
			// the function body, which is exactly what the scan models by
			// leaving it in the set.
			_ = recv
			return
		}
		checkSendsUnder(pass, endpoint, s.Call, held)
	case *ast.IfStmt:
		if s.Init != nil {
			scanLockedSendStmt(pass, endpoint, s.Init, held)
		}
		checkSendsUnder(pass, endpoint, s.Cond, held)
		scanLockedSend(pass, endpoint, s.Body, copyHeld())
		if s.Else != nil {
			scanLockedSendStmt(pass, endpoint, s.Else, copyHeld())
		}
	case *ast.BlockStmt:
		scanLockedSend(pass, endpoint, s, held)
	case *ast.ForStmt:
		if s.Init != nil {
			scanLockedSendStmt(pass, endpoint, s.Init, held)
		}
		if s.Cond != nil {
			checkSendsUnder(pass, endpoint, s.Cond, held)
		}
		scanLockedSend(pass, endpoint, s.Body, copyHeld())
	case *ast.RangeStmt:
		checkSendsUnder(pass, endpoint, s.X, held)
		scanLockedSend(pass, endpoint, s.Body, copyHeld())
	case *ast.SwitchStmt:
		if s.Init != nil {
			scanLockedSendStmt(pass, endpoint, s.Init, held)
		}
		if s.Tag != nil {
			checkSendsUnder(pass, endpoint, s.Tag, held)
		}
		for _, clause := range s.Body.List {
			cc := clause.(*ast.CaseClause)
			cp := copyHeld()
			for _, st := range cc.Body {
				scanLockedSendStmt(pass, endpoint, st, cp)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, clause := range s.Body.List {
			cc := clause.(*ast.CaseClause)
			cp := copyHeld()
			for _, st := range cc.Body {
				scanLockedSendStmt(pass, endpoint, st, cp)
			}
		}
	case *ast.SelectStmt:
		for _, clause := range s.Body.List {
			cc := clause.(*ast.CommClause)
			cp := copyHeld()
			if cc.Comm != nil {
				scanLockedSendStmt(pass, endpoint, cc.Comm, cp)
			}
			for _, st := range cc.Body {
				scanLockedSendStmt(pass, endpoint, st, cp)
			}
		}
	case *ast.GoStmt:
		// The goroutine body runs concurrently with its own (empty) lock
		// state; function-literal bodies are scanned below.
		scanFuncLits(pass, endpoint, s.Call)
	case *ast.LabeledStmt:
		scanLockedSendStmt(pass, endpoint, s.Stmt, held)
	default:
		if stmt != nil {
			ast.Inspect(stmt, func(n ast.Node) bool {
				if e, ok := n.(ast.Expr); ok {
					checkSendsUnder(pass, endpoint, e, held)
					return false
				}
				return true
			})
		}
	}
}

// checkSendsUnder flags transport Send/Recv calls inside expr while locks
// are held, and scans nested function literals with a clean slate.
func checkSendsUnder(pass *Pass, endpoint *types.Interface, expr ast.Expr, held map[string]token.Pos) {
	if expr == nil {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.FuncLit:
			scanLockedSend(pass, endpoint, node.Body, map[string]token.Pos{})
			return false
		case *ast.CallExpr:
			if len(held) == 0 {
				return true
			}
			if target := transportCallName(pass.Pkg, endpoint, node); target != "" {
				for lock, pos := range held {
					pass.Reportf(node.Pos(),
						"%s while %s is held (locked at %s): release the mutex before blocking transport calls",
						target, lock, pass.Prog.Fset.Position(pos))
					break
				}
			}
		}
		return true
	})
}

// scanFuncLits scans function literals below n with empty lock state.
func scanFuncLits(pass *Pass, endpoint *types.Interface, n ast.Node) {
	ast.Inspect(n, func(m ast.Node) bool {
		if fl, ok := m.(*ast.FuncLit); ok {
			scanLockedSend(pass, endpoint, fl.Body, map[string]token.Pos{})
			return false
		}
		return true
	})
}

// lockCall classifies a call as a sync mutex Lock (+1) / Unlock (-1) and
// returns the lock expression's source text; kind 0 means not a lock op.
func lockCall(pkg *Package, call *ast.CallExpr) (name, recv string, kind int) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", 0
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", 0
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return "", "", 0
	}
	recvType := sig.Recv().Type()
	if ptr, ok := recvType.(*types.Pointer); ok {
		recvType = ptr.Elem()
	}
	named, ok := recvType.(*types.Named)
	if !ok {
		return "", "", 0
	}
	if n := named.Obj().Name(); n != "Mutex" && n != "RWMutex" {
		return "", "", 0
	}
	recv = types.ExprString(sel.X)
	switch fn.Name() {
	case "Lock", "RLock":
		return fn.Name(), recv, 1
	case "Unlock", "RUnlock":
		return fn.Name(), recv, -1
	}
	return "", "", 0
}

// transportCallName returns a printable name when the call is a blocking
// transport call: a Send/Recv method on transport.Endpoint itself or on
// any type implementing it.
func transportCallName(pkg *Package, endpoint *types.Interface, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return ""
	}
	if fn.Name() != "Send" && fn.Name() != "Recv" {
		return ""
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return ""
	}
	recvType := sig.Recv().Type()
	if types.Implements(recvType, endpoint) {
		return recvName(recvType) + "." + fn.Name()
	}
	if _, isIface := recvType.Underlying().(*types.Interface); isIface {
		if types.Identical(recvType.Underlying(), endpoint) {
			return recvName(recvType) + "." + fn.Name()
		}
	}
	return ""
}

func recvName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}
