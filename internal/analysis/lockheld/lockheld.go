// Package lockheld defines an Analyzer that forbids blocking
// operations while a sync.Mutex or sync.RWMutex is held, and enforces
// a consistent acquisition order over lock arrays (a per-item
// `locks []sync.Mutex` pattern).
//
// Blocking operations are: channel send and receive, select without a
// default clause, ranging over a channel, sync.WaitGroup.Wait,
// time.Sleep, and file/network I/O (os, net, net/http, os/exec). A
// function containing one of these — or
// calling, however deep, a function that does — is marked with a
// "may block" fact that is exported across package boundaries via the
// go/analysis facts mechanism, so `mu.Lock(); s.Close()` is caught
// even when the WaitGroup.Wait hides three packages away.
//
// Why it matters here: the serve fleet and the planner cache serialise
// their state behind mutexes that the request hot path also takes
// (serve's per-device plans need none: each device has one worker). A
// blocking operation inside such a critical section converts an
// isolated stall (one slow device, one draining replica) into a
// pile-up of every goroutine that touches the lock. Lock-ordering
// violations on a lock array are rarer but worse: two goroutines
// acquiring locks[i]/locks[j] in opposite orders deadlock each other.
//
// The lock-held state comes from the paircheck lockflow layer: a
// forward may-analysis over the ctrlflow CFG, so a lock released on
// one branch but not the other still counts as (possibly) held after
// the merge, and a `defer mu.Unlock()` keeps the lock held to the end
// of the body — precisely the region the check must police.
//
// Suppress intentional blocking-under-lock (a mutex whose purpose is
// to serialise the blocking section itself, e.g. obs's process-wide
// CPU-profile window) with //lint:ignore lockheld <reason>.
package lockheld

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path/filepath"
	"runtime"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"gpucnn/internal/analysis/lintutil"
	"gpucnn/internal/analysis/paircheck"
)

const doc = `check that no blocking operation runs while a mutex is held

Channel operations, WaitGroup.Wait, time.Sleep and file/network I/O
must not execute inside a sync.Mutex/RWMutex critical section; calls
to functions that transitively block are tracked via facts. Locks
taken from the same array must be acquired in increasing index order.`

// Analyzer is the lockheld pass.
var Analyzer = &analysis.Analyzer{
	Name:      "lockheld",
	Doc:       doc,
	Run:       run,
	Requires:  []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer},
	FactTypes: []analysis.Fact{(*blocksFact)(nil)},
}

// blocksFact marks a function that may block: it contains a blocking
// operation, or calls a function carrying this fact.
type blocksFact struct {
	Why string
}

func (*blocksFact) AFact()           {}
func (f *blocksFact) String() string { return "mayBlock(" + f.Why + ")" }

// candidate is one direct blocking operation found in a function body,
// keyed in funcScan by the node the CFG carries for it.
type candidate struct {
	desc string
}

// funcScan is the per-function result of scanBody.
type funcScan struct {
	cands   map[ast.Node]candidate
	callees []*ast.CallExpr // statically-resolved calls, for fact lookup
}

func run(pass *analysis.Pass) (any, error) {
	// Standard-library bodies are out of scope: the curated intrinsic
	// list below IS the stdlib blocking model. Analyzing GOROOT source
	// would mark half of fmt as blocking through channel operations on
	// cold panic paths and drown real findings in noise.
	if len(pass.Files) > 0 {
		if f := pass.Fset.File(pass.Files[0].Pos()); f != nil && inGoroot(f.Name()) {
			return nil, nil
		}
	}
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)

	// Phase 1: compute the "may block" property for every declared
	// function — seeded by direct blocking operations and by facts
	// imported from dependencies, then propagated to fixpoint through
	// the package-local call graph — and export it as facts.
	type finfo struct {
		obj  *types.Func
		scan funcScan
	}
	var infos []finfo
	insp.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		decl := n.(*ast.FuncDecl)
		obj, ok := pass.TypesInfo.Defs[decl.Name].(*types.Func)
		if !ok || decl.Body == nil {
			return
		}
		infos = append(infos, finfo{obj: obj, scan: scanBody(pass, decl.Body)})
	})

	blocked := map[*types.Func]string{}
	calleeWhy := func(fn *types.Func) (string, bool) {
		if why, ok := blocked[fn]; ok {
			return why, true
		}
		if fn.Pkg() != nil && fn.Pkg() != pass.Pkg {
			var fact blocksFact
			if pass.ImportObjectFact(fn, &fact) {
				return fact.Why, true
			}
		}
		return "", false
	}
	for _, fi := range infos {
		for _, c := range fi.scan.cands {
			blocked[fi.obj] = c.desc
			break
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range infos {
			if _, done := blocked[fi.obj]; done {
				continue
			}
			for _, call := range fi.scan.callees {
				callee := staticCallee(pass, call)
				if callee == nil || callee == fi.obj {
					continue
				}
				if why, ok := calleeWhy(callee); ok {
					blocked[fi.obj] = trimWhy(callee.Name() + ": " + why)
					changed = true
					break
				}
			}
		}
	}
	for obj, why := range blocked {
		pass.ExportObjectFact(obj, &blocksFact{Why: why})
	}

	// Phase 2: lock-aware check of every function and function literal.
	insp.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		if lintutil.IsTestFile(pass.Fset, n.Pos()) {
			return
		}
		var body *ast.BlockStmt
		var flow *paircheck.LockFlow
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body == nil {
				return
			}
			body = fn.Body
			flow = paircheck.NewLockFlow(pass, cfgs.FuncDecl(fn))
		case *ast.FuncLit:
			body = fn.Body
			flow = paircheck.NewLockFlow(pass, cfgs.FuncLit(fn))
		}
		scan := scanBody(pass, body)
		reported := map[ast.Node]bool{}
		flow.VisitHeld(func(n ast.Node, held paircheck.HeldSet) {
			if reported[n] {
				return
			}
			call, isCall := n.(*ast.CallExpr)

			// Acquisition ordering over lock arrays: taking locks[j]
			// while locks[i] from the same array is held requires a
			// provably increasing index (i < j, both constant).
			if isCall {
				if op, lock, ok := paircheck.MutexCall(pass, call); ok {
					if op == paircheck.OpAcquire && lock.Base != "" {
						for _, h := range held {
							if h.Base != lock.Base || h.Key == lock.Key {
								continue
							}
							if h.IndexVal != nil && lock.IndexVal != nil &&
								constant.Compare(h.IndexVal, token.LSS, lock.IndexVal) {
								continue // provably increasing order
							}
							reported[n] = true
							report(pass, call, "%s acquired while %s is held: same lock array without provably increasing index order", lock.Key, h.Key)
							break
						}
					}
					return // mutex ops themselves are not blocking candidates
				}
			}

			if len(held) == 0 {
				return
			}
			h, _ := held.Any()
			hline := pass.Fset.Position(h.Acquired).Line
			if c, ok := scan.cands[n]; ok {
				reported[n] = true
				report(pass, n, "%s may block while %s is held (acquired line %d); release the lock first", c.desc, h.Key, hline)
				return
			}
			if isCall {
				callee := staticCallee(pass, call)
				if callee == nil {
					return
				}
				if why, ok := calleeWhy(callee); ok {
					reported[n] = true
					report(pass, n, "call to %s may block (%s) while %s is held (acquired line %d); release the lock first", callee.Name(), trimWhy(why), h.Key, hline)
				}
			}
		})
	})
	return nil, nil
}

func report(pass *analysis.Pass, n ast.Node, format string, args ...any) {
	lintutil.Report(pass, "lockheld", analysis.Diagnostic{
		Pos: n.Pos(), End: n.End(),
		Message: fmt.Sprintf(format, args...),
	})
}

// inGoroot reports whether filename lies under GOROOT/src.
func inGoroot(filename string) bool {
	root := runtime.GOROOT()
	if root == "" {
		return false
	}
	prefix := filepath.Join(root, "src") + string(filepath.Separator)
	return strings.HasPrefix(filename, prefix)
}

// trimWhy bounds the transitive-reason chain in diagnostics and facts.
func trimWhy(why string) string {
	const max = 120
	if len(why) > max {
		return why[:max] + "..."
	}
	return why
}

// staticCallee resolves call to a statically-known function or method;
// nil for indirect, interface-method, builtin and conversion calls.
// Interface methods have no analyzable body anywhere, so facts never
// attach to them — filtering keeps them from looking resolvable.
func staticCallee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	if m := lintutil.MethodCallee(pass.TypesInfo, call); m != nil {
		recv := m.Type().(*types.Signature).Recv().Type()
		if _, isIface := recv.Underlying().(*types.Interface); isIface {
			return nil
		}
		return m
	}
	return lintutil.FuncCallee(pass.TypesInfo, call)
}

// scanBody finds every direct blocking operation in body, skipping
// nested function literals, defers and go statements (they do not
// block body at that point), and collects statically-resolved calls
// for the transitive fact lookup. Select statements are handled as a
// unit: a select with a default clause never blocks (its comm
// operations are exempt), a select without one blocks and is recorded
// once, anchored at its first comm statement — the node the CFG
// carries for it.
func scanBody(pass *analysis.Pass, body *ast.BlockStmt) funcScan {
	scan := funcScan{cands: map[ast.Node]candidate{}}
	if body == nil {
		return scan
	}
	exempt := map[ast.Node]bool{}
	markExempt := func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			if m != nil {
				exempt[m] = true
			}
			return true
		})
	}
	addCand := func(n ast.Node, desc string) {
		if !exempt[n] {
			scan.cands[n] = candidate{desc: desc}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case nil:
			return true
		case *ast.FuncLit, *ast.DeferStmt, *ast.GoStmt:
			return false
		case *ast.SelectStmt:
			hasDefault := false
			var firstComm ast.Stmt
			for _, cc := range s.Body.List {
				clause := cc.(*ast.CommClause)
				if clause.Comm == nil {
					hasDefault = true
				} else {
					if firstComm == nil {
						firstComm = clause.Comm
					}
					markExempt(clause.Comm)
				}
			}
			if !hasDefault && firstComm != nil {
				scan.cands[firstComm] = candidate{desc: "select without default"}
			}
		case *ast.SendStmt:
			addCand(s, "channel send")
		case *ast.UnaryExpr:
			if s.Op == token.ARROW {
				addCand(s, "channel receive")
			}
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(s.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					addCand(s.X, "range over channel")
				}
			}
		case *ast.CallExpr:
			if desc, ok := intrinsicBlocking(pass, s); ok {
				addCand(s, desc)
			} else if staticCallee(pass, s) != nil {
				scan.callees = append(scan.callees, s)
			}
		}
		return true
	})
	return scan
}

// intrinsicBlocking matches the curated list of known-blocking calls.
func intrinsicBlocking(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	if m := lintutil.MethodCallee(pass.TypesInfo, call); m != nil {
		recv := m.Type().(*types.Signature).Recv().Type()
		name := m.Name()
		switch {
		case lintutil.IsNamed(recv, "sync", "WaitGroup") && name == "Wait":
			return "sync.WaitGroup.Wait", true
		case lintutil.IsNamed(recv, "os", "File") &&
			(name == "Read" || name == "ReadAt" || name == "Write" ||
				name == "WriteAt" || name == "WriteString" || name == "Sync" || name == "Close"):
			return "os.File." + name, true
		case lintutil.IsNamed(recv, "http", "Client") &&
			(name == "Do" || name == "Get" || name == "Post" || name == "PostForm" || name == "Head"):
			return "http.Client." + name, true
		case lintutil.IsNamed(recv, "http", "Server") &&
			(name == "ListenAndServe" || name == "Serve" || name == "Shutdown"):
			return "http.Server." + name, true
		case lintutil.IsNamed(recv, "exec", "Cmd") &&
			(name == "Run" || name == "Wait" || name == "Output" || name == "CombinedOutput"):
			return "exec.Cmd." + name, true
		}
		return "", false
	}
	fn := lintutil.FuncCallee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	path, name := fn.Pkg().Path(), fn.Name()
	switch {
	case path == "time" && name == "Sleep":
		return "time.Sleep", true
	case path == "os":
		switch name {
		case "Open", "OpenFile", "Create", "ReadFile", "WriteFile",
			"Remove", "RemoveAll", "Rename", "Mkdir", "MkdirAll", "ReadDir":
			return "os." + name, true
		}
	case path == "net":
		switch name {
		case "Dial", "DialTimeout", "Listen", "ListenPacket":
			return "net." + name, true
		}
	case lintutil.PathIs(path, "http"):
		switch name {
		case "Get", "Head", "Post", "PostForm", "ListenAndServe", "ListenAndServeTLS":
			return "http." + name, true
		}
	}
	return "", false
}
