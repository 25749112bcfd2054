// Package lockdisc machine-enforces lock discipline on the engine's
// mutexes, in two rules:
//
//  1. A mutex must not be held across a blocking operation — a channel
//     send/receive, a range over a channel, a default-less select, or a
//     call into a function that (transitively) performs one, like a
//     helper that waits for a worker's result on a channel. Holding a
//     lock while parked turns one slow unit into a convoy across every
//     worker that needs the same lock.
//  2. A value containing a lock (sync.Mutex, RWMutex, WaitGroup, Once,
//     Cond, Pool — directly or in a nested field) must not be copied by
//     assignment or by a range clause: the copy has its own lock state
//     and silently stops excluding anyone.
//
// The held-set tracking is lexical (source order within one function
// body, function literals excluded), which matches the repo's
// straight-line lock/unlock style; flow-sensitive cleverness gets a
// //lint:allow with its rationale. Three facts carry the discipline
// across function and package boundaries: Blocks (the function parks),
// HoldsLock (the function returns holding a lock — a lock helper), and
// ReleasesLock (an unlock helper).
package lockdisc

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"ncdrf/internal/analysis"
)

// Blocks marks a function that (transitively) performs a blocking
// operation. Op describes the operation and where it bottoms out,
// e.g. "channel receive in ld.(*Cache).Blocker".
type Blocks struct {
	Op string
}

// AFact marks Blocks as a fact type.
func (*Blocks) AFact() {}

// HoldsLock marks a lock helper: the function returns with the named
// lock held. Lock is receiver-relative for methods ("mu" on a *Cache
// method means the caller's c.mu).
type HoldsLock struct {
	Lock string
}

// AFact marks HoldsLock as a fact type.
func (*HoldsLock) AFact() {}

// ReleasesLock marks an unlock helper: the function releases the named
// lock its caller holds.
type ReleasesLock struct {
	Lock string
}

// AFact marks ReleasesLock as a fact type.
func (*ReleasesLock) AFact() {}

var Analyzer = &analysis.Analyzer{
	Name:      "lockdisc",
	Doc:       "flag mutexes held across blocking operations and lock values copied by assignment or range",
	Run:       run,
	FactTypes: []analysis.Fact{(*Blocks)(nil), (*HoldsLock)(nil), (*ReleasesLock)(nil)},
}

func run(pass *analysis.Pass) error {
	var fns []*ast.FuncDecl
	objOf := make(map[*ast.FuncDecl]*types.Func)
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func); obj != nil {
					fns = append(fns, fd)
					objOf[fd] = obj
				}
			}
		}
	}

	// Round 1: a fact-computing walk of every function — no reporting,
	// no helper facts applied — yielding each function's direct
	// blocking op, call sites, and net lock effect.
	holds := make(map[*types.Func]string)    // lock helper -> lock name
	releases := make(map[*types.Func]string) // unlock helper -> lock name
	scans := make(map[*ast.FuncDecl]*walker)
	for _, fd := range fns {
		w := newWalker(pass, nil, nil, nil)
		w.walk(fd)
		scans[fd] = w
		obj := objOf[fd]
		if lock, ok := w.netHeld(); ok {
			holds[obj] = stripRecv(fd, lock)
			pass.ExportObjectFact(obj, &HoldsLock{Lock: holds[obj]})
		}
		if lock, ok := w.netReleased(); ok {
			releases[obj] = stripRecv(fd, lock)
			pass.ExportObjectFact(obj, &ReleasesLock{Lock: releases[obj]})
		}
	}

	// Blocks fixpoint over the package call graph, seeded by the direct
	// ops and the dependencies' imported facts.
	blocks := make(map[*types.Func]string)
	for _, fd := range fns {
		if w := scans[fd]; w.directOp != "" {
			blocks[objOf[fd]] = w.directOp + " in " + objOf[fd].FullName()
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fd := range fns {
			obj := objOf[fd]
			if _, ok := blocks[obj]; ok {
				continue
			}
			for _, cs := range scans[fd].calls {
				if op, ok := blocks[cs.fn]; ok {
					blocks[obj] = op
					changed = true
					break
				}
				var fact Blocks
				if cs.fn.Pkg() != pass.Pkg && pass.ImportObjectFact(cs.fn, &fact) {
					blocks[obj] = fact.Op
					changed = true
					break
				}
			}
		}
	}
	for obj, op := range blocks {
		pass.ExportObjectFact(obj, &Blocks{Op: op})
	}

	// Round 2: the reporting walk, with the helper and blocking facts
	// in hand.
	for _, fd := range fns {
		w := newWalker(pass, blocks, holds, releases)
		w.report = pass.Reportf
		w.walk(fd)
	}
	return nil
}

// stripRecv makes a held-lock key receiver-relative: "c.mu" inside a
// method with receiver c becomes "mu", so a caller can re-anchor it on
// its own receiver expression.
func stripRecv(fd *ast.FuncDecl, lock string) string {
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		if rest, ok := strings.CutPrefix(lock, fd.Recv.List[0].Names[0].Name+"."); ok {
			return rest
		}
	}
	return lock
}

// callSite is one resolved static call, in source order.
type callSite struct {
	fn  *types.Func
	pos token.Pos
}

// walker performs the lexical scan of one function body.
type walker struct {
	pass     *analysis.Pass
	blocks   map[*types.Func]string // round 2 only
	holds    map[*types.Func]string
	releases map[*types.Func]string
	report   func(token.Pos, string, ...any) // nil in round 1

	held     map[string]bool // lock expr -> currently held
	deferRel map[string]bool // released by a defer (held until return)
	released map[string]bool // net releases (unlock helper shape)
	directOp string          // first direct blocking op, for Blocks
	calls    []callSite
	deferred map[*ast.CallExpr]bool
}

func newWalker(pass *analysis.Pass, blocks, holds, releases map[*types.Func]string) *walker {
	return &walker{
		pass:     pass,
		blocks:   blocks,
		holds:    holds,
		releases: releases,
		held:     make(map[string]bool),
		deferRel: make(map[string]bool),
		released: make(map[string]bool),
		deferred: make(map[*ast.CallExpr]bool),
	}
}

// netHeld reports the lock (if exactly one) the function still holds
// at return — the lock-helper signature. Multiple net locks held is
// strange enough to stay a local matter.
func (w *walker) netHeld() (string, bool) {
	var locks []string
	for k := range w.held {
		if !w.deferRel[k] {
			locks = append(locks, k)
		}
	}
	sort.Strings(locks)
	if len(locks) != 1 {
		return "", false
	}
	return locks[0], true
}

// netReleased is the unlock-helper analogue.
func (w *walker) netReleased() (string, bool) {
	var locks []string
	for k := range w.released {
		locks = append(locks, k)
	}
	sort.Strings(locks)
	if len(locks) != 1 {
		return "", false
	}
	return locks[0], true
}

func (w *walker) walk(fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, w.visit)
}

func (w *walker) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.FuncLit:
		// A literal's body runs on its own schedule (goroutine,
		// callback, defer); its ops are not this function's.
		return false
	case *ast.DeferStmt:
		w.deferred[n.Call] = true
	case *ast.CallExpr:
		w.call(n)
	case *ast.SendStmt:
		w.blocking(n.Pos(), "channel send")
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			w.blocking(n.Pos(), "channel receive")
		}
	case *ast.SelectStmt:
		// The select as a whole is the blocking op (iff it has no
		// default); its comm statements never block on their own, so
		// walk only the clause bodies.
		if !hasDefault(n) {
			w.blocking(n.Pos(), "select")
		}
		for _, cl := range n.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				for _, stmt := range cc.Body {
					ast.Inspect(stmt, w.visit)
				}
			}
		}
		return false
	case *ast.RangeStmt:
		if t := w.pass.TypesInfo.TypeOf(n.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				w.blocking(n.Pos(), "range over channel")
			}
		}
		w.rangeCopy(n)
	case *ast.AssignStmt:
		w.assignCopy(n)
	}
	return true
}

// call classifies one call: direct mutex Lock/Unlock, a helper with a
// HoldsLock/ReleasesLock fact, or a callee that blocks.
func (w *walker) call(call *ast.CallExpr) {
	fn := analysis.Callee(w.pass.TypesInfo, call)
	if fn == nil {
		return
	}
	w.calls = append(w.calls, callSite{fn: fn, pos: call.Pos()})

	// x.mu.Lock() and friends: the lock key is the receiver expression.
	if recv, ok := analysis.IsMethod(fn); ok && isLockType(recv) {
		sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if sel == nil {
			return
		}
		key := types.ExprString(sel.X)
		switch fn.Name() {
		case "Lock", "RLock":
			if !w.deferred[call] {
				w.held[key] = true
			}
		case "Unlock", "RUnlock":
			switch {
			case w.deferred[call]:
				w.deferRel[key] = true
			case w.held[key]:
				delete(w.held, key)
			default:
				w.released[key] = true
			}
		}
		return
	}

	// Lock/unlock helpers, via round-1 local facts or imported ones.
	if lock, ok := w.helperFact(fn, w.holds, &HoldsLock{}); ok {
		if !w.deferred[call] {
			w.held[w.anchor(call, fn, lock)] = true
		}
		return
	}
	if lock, ok := w.helperFact(fn, w.releases, &ReleasesLock{}); ok {
		key := w.anchor(call, fn, lock)
		switch {
		case w.deferred[call]:
			w.deferRel[key] = true
		case w.held[key]:
			delete(w.held, key)
		default:
			w.released[key] = true
		}
		return
	}

	// A callee that parks, called while a lock is held.
	if w.report == nil || w.deferred[call] {
		return
	}
	if heldLock := w.anyHeld(); heldLock != "" {
		if op, ok := w.blocks[fn]; ok {
			w.report(call.Pos(), "lock %s held across call to %s, which blocks (%s)", heldLock, fn.Name(), op)
			return
		}
		var fact Blocks
		if fn.Pkg() != w.pass.Pkg && w.pass.ImportObjectFact(fn, &fact) {
			w.report(call.Pos(), "lock %s held across call to %s, which blocks (%s)", heldLock, fn.Name(), fact.Op)
		}
	}
}

// helperFact resolves a helper's lock name from the local round-1 map
// or, cross-package, from the imported fact. probe must be a fresh
// fact value of the wanted type.
func (w *walker) helperFact(fn *types.Func, local map[*types.Func]string, probe analysis.Fact) (string, bool) {
	if lock, ok := local[fn]; ok {
		return lock, true
	}
	if fn.Pkg() == w.pass.Pkg || !w.pass.ImportObjectFact(fn, probe) {
		return "", false
	}
	switch f := probe.(type) {
	case *HoldsLock:
		return f.Lock, true
	case *ReleasesLock:
		return f.Lock, true
	}
	return "", false
}

// anchor rebuilds a helper's receiver-relative lock name in the
// caller's frame: c.lock() holding "mu" means c.mu here.
func (w *walker) anchor(call *ast.CallExpr, fn *types.Func, lock string) string {
	if _, ok := analysis.IsMethod(fn); ok {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			return types.ExprString(sel.X) + "." + lock
		}
	}
	return lock
}

// blocking handles a direct blocking operation: remember the first one
// for the Blocks fact, and report it if a lock is held.
func (w *walker) blocking(pos token.Pos, op string) {
	if w.directOp == "" {
		w.directOp = op
	}
	if w.report == nil {
		return
	}
	if heldLock := w.anyHeld(); heldLock != "" {
		w.report(pos, "lock %s held across %s; release it before blocking", heldLock, op)
	}
}

// anyHeld returns a deterministic representative of the held set, or
// "" when empty.
func (w *walker) anyHeld() string {
	var locks []string
	for k := range w.held {
		locks = append(locks, k)
	}
	if len(locks) == 0 {
		return ""
	}
	sort.Strings(locks)
	return locks[0]
}

// assignCopy flags assignments whose right-hand side copies an
// existing value that contains a lock. Composite literals and call
// results are not "existing values": initialization is how lock-bearing
// structs are born, and a function returning one by value is the
// callee's sin to report.
func (w *walker) assignCopy(st *ast.AssignStmt) {
	if w.report == nil || len(st.Lhs) != len(st.Rhs) {
		return
	}
	for i, rhs := range st.Rhs {
		// Discarding to blank copies nothing anyone can use.
		if id, ok := st.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		rhs = ast.Unparen(rhs)
		switch rhs.(type) {
		case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		default:
			continue
		}
		t := w.pass.TypesInfo.TypeOf(rhs)
		if lockName := containsLock(t, nil); lockName != "" {
			w.report(st.Pos(), "assignment copies %s, whose type contains %s; share it through a pointer", types.ExprString(rhs), lockName)
		}
	}
}

// rangeCopy flags `for _, v := range xs` where each iteration copies a
// lock-bearing element into v.
func (w *walker) rangeCopy(n *ast.RangeStmt) {
	if w.report == nil {
		return
	}
	id, ok := n.Value.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := w.pass.TypesInfo.Defs[id]
	if obj == nil {
		return
	}
	if lockName := containsLock(obj.Type(), nil); lockName != "" {
		w.report(n.Pos(), "range copies lock-bearing elements into %s (type contains %s); iterate by index or store pointers", id.Name, lockName)
	}
}

func hasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// lockTypes are the sync types whose values must not be copied and
// whose Lock/Unlock pairs the held tracking follows (Mutex, RWMutex).
var lockTypes = []string{"Mutex", "RWMutex", "WaitGroup", "Once", "Cond", "Pool"}

func isLockType(t types.Type) bool {
	return analysis.IsNamedType(t, "sync", "Mutex") || analysis.IsNamedType(t, "sync", "RWMutex")
}

// containsLock reports the first sync lock type reachable through t's
// value (struct fields and array elements recurse; pointers, slices,
// maps and channels share rather than copy), or "".
func containsLock(t types.Type, seen map[types.Type]bool) string {
	if t == nil {
		return ""
	}
	for _, name := range lockTypes {
		if analysis.IsNamedType(t, "sync", name) {
			// IsNamedType looks through a pointer; a *sync.Mutex copy
			// copies the pointer, which is fine.
			if _, isPtr := types.Unalias(t).(*types.Pointer); !isPtr {
				return "sync." + name
			}
			return ""
		}
	}
	if seen[t] {
		return ""
	}
	if seen == nil {
		seen = make(map[types.Type]bool)
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if name := containsLock(u.Field(i).Type(), seen); name != "" {
				return name
			}
		}
	case *types.Array:
		return containsLock(u.Elem(), seen)
	}
	return ""
}
