package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Summary is one function's facts, extracted in a single AST walk and
// consumed interprocedurally by the program analyzers. Events that matter
// for lock ordering (Locks) keep source order; everything else is a bag.
type Summary struct {
	// Hot is set by a //shm:hotpath directive in the function's doc
	// comment: the function and everything it transitively calls inside
	// the module must be allocation-free on the steady-state path.
	Hot bool

	// AsmBacked marks a body-less declaration implemented in assembly (or
	// provided by the linker). Its summary is empty by construction — Go
	// assembly cannot heap-allocate or take a sync lock without calling
	// back into Go — so the engine treats it as a verified leaf: hotalloc
	// traverses through it without flagging, lockorder sees no events.
	AsmBacked bool

	// Locks is the in-order stream of lock acquisitions, releases, and
	// calls, the input to the lockorder simulation.
	Locks []LockEvent

	// Allocs are the function's heap-allocation sites. Sites the model
	// excuses (error construction on a return path, cap-guarded grow-only
	// scratch, ...) carry a non-empty Exempt reason and are kept so the
	// engine's decisions stay inspectable.
	Allocs []AllocSite

	// Fields are accesses to atomic-capable struct fields and package
	// vars, split into sync/atomic accesses and plain ones.
	Fields []FieldUse

	// Opcodes are uses of op*-named constants with the syntactic role the
	// use plays in the wire protocol (encode argument, dispatch case,
	// other).
	Opcodes []OpcodeUse

	// Switches are the switch statements over locally-declared constant
	// types, with the exact values their cases cover and the positions of
	// case labels that are not named constants.
	Switches []ConstSwitch

	// Calls are the function's statically-resolved callees (module and
	// stdlib alike), deduplicated, first call position kept.
	Calls []CallSite
}

// Lock event kinds. A deferred release keeps the lock held for the rest of
// the body (the event stream position is where the defer is *written*, not
// where it runs) but counts as released at function exit, so the lock does
// not escape to callers.
const (
	lockAcquire = iota
	lockRelease
	lockDeferRelease
	lockCall
)

// LockEvent is one step of the lockorder simulation: acquiring or
// releasing a mutex, or calling a function that may do either.
type LockEvent struct {
	Kind  int
	Class string // resolved lock class; "" when untracked (local mutex)
	// Param is >= 0 when the mutex is the function's own pointer
	// parameter (the lockWait(&seg.locks[i]) helper pattern): the class
	// is resolved at each call site instead.
	Param  int
	RLock  bool
	Pos    token.Pos
	Callee *types.Func // Kind == lockCall
	// ArgLocks records mutex-pointer arguments of the call so a callee's
	// parameter locks resolve to caller-side classes.
	ArgLocks []ArgLock
}

// ArgLock is one *sync.Mutex / *sync.RWMutex argument at a call site.
type ArgLock struct {
	Index int    // callee parameter index
	Class string // caller-side class, "" if unresolvable
	Param int    // >= 0: the argument is the caller's own parameter
}

// AllocSite is one potential heap allocation.
type AllocSite struct {
	Pos    token.Pos
	What   string // human description ("composite literal []byte{...}")
	Exempt string // non-empty: why the steady-state model excuses it
}

// FieldUse is one access to an atomic-capable field or package variable.
type FieldUse struct {
	Obj    *types.Var
	Atomic bool
	Write  bool // plain access on the left of an assignment / inc-dec
	Pos    token.Pos
}

// Opcode use roles.
const (
	OpUseOther = iota
	// OpUseEncode: the constant flows into a call argument — a client (or
	// server reply path) putting the opcode on the wire.
	OpUseEncode
	// OpUseDispatch: the constant labels a case in a switch over its type
	// — a server routing an inbound frame.
	OpUseDispatch
)

// OpcodeUse is one reference to a constant of a locally-declared constant
// type.
type OpcodeUse struct {
	Const *types.Const
	Role  int
	Pos   token.Pos
}

// ConstSwitch is one switch over a locally-declared constant type.
type ConstSwitch struct {
	TypeName *types.TypeName
	Covered  []string    // exact constant values the cases cover
	Raw      []token.Pos // case labels that are literals, not named consts
	Arms     []SwitchArm // per-case facts, in source order
	Pos      token.Pos
}

// SwitchArm is one case clause of a ConstSwitch: the constant values its
// labels cover and the statically-resolved callees of its body. The
// wireproto analyzer walks Callees transitively to decide whether a
// dispatch arm records a latency observation.
type SwitchArm struct {
	Values  []string
	Callees []*types.Func
	Pos     token.Pos
}

// CallSite is one statically-resolved callee.
type CallSite struct {
	Callee *types.Func
	Pos    token.Pos
}

// hotDirective is the doc-comment marker for allocation-free roots.
const hotDirective = "//shm:hotpath"

// summarizer walks one function body accumulating its Summary.
type summarizer struct {
	fi    *FuncInfo
	sum   *Summary
	info  *types.Info
	stack []ast.Node // ancestors of the node being visited
	// funcLit > 0 while inside a nested function literal: lock events are
	// not recorded there (the literal runs at an unknown time), allocation
	// and field facts still are.
	funcLit int
	// atomicArgs marks expressions consumed as &x arguments of sync/atomic
	// calls so the later visit of x does not record a plain access.
	atomicArgs map[ast.Expr]bool
	calls      map[*types.Func]bool
}

// summarize extracts fi's Summary.
func summarize(fi *FuncInfo) *Summary {
	s := &summarizer{
		fi:         fi,
		sum:        &Summary{},
		info:       fi.Pkg.Info,
		atomicArgs: make(map[ast.Expr]bool),
		calls:      make(map[*types.Func]bool),
	}
	if doc := fi.Decl.Doc; doc != nil {
		for _, c := range doc.List {
			if c.Text == hotDirective || strings.HasPrefix(c.Text, hotDirective+" ") {
				s.sum.Hot = true
			}
		}
	}
	if fi.Decl.Body == nil {
		// Assembly-backed (or linker-provided) declaration: no AST to walk.
		// The empty summary is the correct model, not a gap — see AsmBacked.
		s.sum.AsmBacked = true
		return s.sum
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if n == nil {
			popped := s.stack[len(s.stack)-1]
			s.stack = s.stack[:len(s.stack)-1]
			if _, ok := popped.(*ast.FuncLit); ok {
				s.funcLit--
			}
			return true
		}
		s.visit(n)
		s.stack = append(s.stack, n)
		if _, ok := n.(*ast.FuncLit); ok {
			s.funcLit++
		}
		return true
	})
	return s.sum
}

// visit dispatches on one node. The ancestor stack does not yet include n.
func (s *summarizer) visit(n ast.Node) {
	switch n := n.(type) {
	case *ast.CallExpr:
		s.visitCall(n)
	case *ast.CompositeLit:
		s.visitComposite(n)
	case *ast.GoStmt:
		s.alloc(n.Pos(), "go statement spawns a goroutine")
	case *ast.FuncLit:
		s.alloc(n.Pos(), "function literal (closure)")
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			s.visitMapWrite(lhs)
		}
	case *ast.IncDecStmt:
		s.visitMapWrite(n.X)
	case *ast.SwitchStmt:
		s.visitSwitch(n)
	case *ast.SelectorExpr:
		s.visitFieldUse(n, n.Sel)
	case *ast.Ident:
		s.visitIdent(n)
	}
}

// visitCall handles lock operations, sync/atomic calls, conversions,
// interface boxing, known-allocating stdlib calls, builtins, and the call
// graph.
func (s *summarizer) visitCall(call *ast.CallExpr) {
	// Conversions: string ↔ []byte/[]rune copy their operand.
	if tv, ok := s.info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		s.visitConversion(call, tv.Type)
		return
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := s.info.Uses[id].(*types.Builtin); ok {
			s.visitBuiltin(call, b.Name())
			return
		}
	}
	callee := s.calleeOf(call)
	if callee == nil {
		return // interface call, func value, ...: outside the static model
	}
	full := callee.FullName()
	switch full {
	case "(*sync.Mutex).Lock", "(*sync.RWMutex).Lock", "(*sync.RWMutex).RLock":
		s.lockOp(call, lockAcquire, full == "(*sync.RWMutex).RLock")
		return
	case "(*sync.Mutex).Unlock", "(*sync.RWMutex).Unlock", "(*sync.RWMutex).RUnlock":
		kind := lockRelease
		if s.inDefer() {
			kind = lockDeferRelease
		}
		s.lockOp(call, kind, full == "(*sync.RWMutex).RUnlock")
		return
	}
	if strings.HasPrefix(full, "sync/atomic.") && len(call.Args) > 0 {
		s.visitAtomic(call)
		return
	}
	if what := knownAllocCall(full); what != "" {
		s.alloc(call.Pos(), what)
	}
	s.visitBoxing(call, callee)
	if !s.calls[callee] {
		s.calls[callee] = true
		s.sum.Calls = append(s.sum.Calls, CallSite{Callee: callee, Pos: call.Pos()})
	}
	if s.funcLit == 0 {
		ev := LockEvent{Kind: lockCall, Param: -1, Pos: call.Pos(), Callee: callee}
		sig, _ := callee.Type().(*types.Signature)
		if sig != nil {
			for i, arg := range call.Args {
				if i >= sig.Params().Len() {
					break
				}
				if !isMutexPtr(sig.Params().At(i).Type()) {
					continue
				}
				class, param := s.lockClassOf(arg)
				ev.ArgLocks = append(ev.ArgLocks, ArgLock{Index: i, Class: class, Param: param})
			}
		}
		s.sum.Locks = append(s.sum.Locks, ev)
	}
}

// calleeOf statically resolves a call's target function, or nil.
func (s *summarizer) calleeOf(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := s.info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := s.info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// lockOp records one Lock/Unlock-family call on a mutex.
func (s *summarizer) lockOp(call *ast.CallExpr, kind int, rlock bool) {
	if s.funcLit > 0 {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	class, param := s.lockRecvClass(sel)
	s.sum.Locks = append(s.sum.Locks, LockEvent{
		Kind: kind, Class: class, Param: param, RLock: rlock, Pos: call.Pos(),
	})
}

// lockRecvClass resolves the receiver of a mutex method call to a lock
// class. An embedded mutex (type T struct { sync.Mutex }) resolves through
// the method selection's field path.
func (s *summarizer) lockRecvClass(sel *ast.SelectorExpr) (class string, param int) {
	if msel := s.info.Selections[sel]; msel != nil && len(msel.Index()) > 1 {
		// s.Lock() through an embedded mutex: class = T.<embedded field>.
		t := msel.Recv()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			if st, ok := named.Underlying().(*types.Struct); ok {
				f := st.Field(msel.Index()[0])
				return qualifyField(named, f), -1
			}
		}
	}
	return s.lockClassOf(sel.X)
}

// lockClassOf maps a mutex-valued expression (receiver or call argument)
// to a lock class. Index and slice expressions collapse onto the backing
// field — every element of segment.locks is one class, which is exactly
// the granularity deadlock ordering needs (two stripes of one table are
// interchangeable; their acquisition order is a property of the table).
func (s *summarizer) lockClassOf(expr ast.Expr) (class string, param int) {
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.UnaryExpr:
			if e.Op != token.AND {
				return "", -1
			}
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		case *ast.SelectorExpr:
			fsel := s.info.Selections[e]
			if fsel == nil || fsel.Kind() != types.FieldVal {
				return "", -1
			}
			f, _ := fsel.Obj().(*types.Var)
			t := fsel.Recv()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok && f != nil {
				return qualifyField(named, f), -1
			}
			return "", -1
		case *ast.Ident:
			obj, _ := s.info.Uses[e].(*types.Var)
			if obj == nil {
				return "", -1
			}
			if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				return obj.Pkg().Path() + "." + obj.Name(), -1
			}
			if i := s.paramIndex(obj); i >= 0 {
				return "", i
			}
			return "", -1 // local mutex: untracked
		default:
			return "", -1
		}
	}
}

// paramIndex returns the index of obj among the function's parameters, or
// -1.
func (s *summarizer) paramIndex(obj *types.Var) int {
	sig, _ := s.fi.Obj.Type().(*types.Signature)
	if sig == nil {
		return -1
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == obj {
			return i
		}
	}
	return -1
}

// qualifyField renders a field's lock class: "pkgpath.Type.field".
func qualifyField(owner *types.Named, f *types.Var) string {
	path := ""
	if owner.Obj().Pkg() != nil {
		path = owner.Obj().Pkg().Path() + "."
	}
	return path + owner.Obj().Name() + "." + f.Name()
}

// isMutexPtr reports whether t is *sync.Mutex or *sync.RWMutex.
func isMutexPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync" &&
		(named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex")
}

// inDefer reports whether the node being visited is the immediate call of
// a defer statement.
func (s *summarizer) inDefer() bool {
	if len(s.stack) == 0 {
		return false
	}
	_, ok := s.stack[len(s.stack)-1].(*ast.DeferStmt)
	return ok
}

// visitAtomic records a sync/atomic function-style access: the &x operands
// become atomic field uses and are excluded from plain-use collection.
func (s *summarizer) visitAtomic(call *ast.CallExpr) {
	for _, arg := range call.Args {
		un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
		if !ok || un.Op != token.AND {
			continue
		}
		target := ast.Unparen(un.X)
		obj := s.atomicCapableVar(target)
		if obj == nil {
			continue
		}
		s.atomicArgs[target] = true
		s.sum.Fields = append(s.sum.Fields, FieldUse{Obj: obj, Atomic: true, Pos: un.Pos()})
	}
}

// atomicCapableVar resolves expr to a struct field or package-level var of
// a type the sync/atomic functions operate on, or nil.
func (s *summarizer) atomicCapableVar(expr ast.Expr) *types.Var {
	var obj *types.Var
	switch e := expr.(type) {
	case *ast.SelectorExpr:
		if fsel := s.info.Selections[e]; fsel != nil && fsel.Kind() == types.FieldVal {
			obj, _ = fsel.Obj().(*types.Var)
		}
	case *ast.Ident:
		if v, ok := s.info.Uses[e].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			obj = v
		}
	}
	if obj == nil || !isAtomicCapable(obj.Type()) {
		return nil
	}
	return obj
}

// isAtomicCapable reports whether sync/atomic's function-style API can
// target a value of type t.
func isAtomicCapable(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		switch u.Kind() {
		case types.Int32, types.Int64, types.Uint32, types.Uint64, types.Uintptr, types.UnsafePointer:
			return true
		}
	case *types.Pointer:
		return true
	}
	return false
}

// visitFieldUse records a plain access to an atomic-capable struct field.
func (s *summarizer) visitFieldUse(sel *ast.SelectorExpr, name *ast.Ident) {
	if s.atomicArgs[sel] {
		return
	}
	fsel := s.info.Selections[sel]
	if fsel == nil || fsel.Kind() != types.FieldVal {
		return
	}
	obj, _ := fsel.Obj().(*types.Var)
	if obj == nil || !isAtomicCapable(obj.Type()) {
		return
	}
	s.sum.Fields = append(s.sum.Fields, FieldUse{
		Obj: obj, Write: s.isAssigned(sel), Pos: sel.Pos(),
	})
}

// visitIdent records plain accesses to atomic-capable package-level vars
// and opcode-constant uses.
func (s *summarizer) visitIdent(id *ast.Ident) {
	switch obj := s.info.Uses[id].(type) {
	case *types.Var:
		if s.atomicArgs[id] {
			return
		}
		if obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() || !isAtomicCapable(obj.Type()) {
			return
		}
		s.sum.Fields = append(s.sum.Fields, FieldUse{
			Obj: obj, Write: s.isAssigned(id), Pos: id.Pos(),
		})
	case *types.Const:
		named, ok := obj.Type().(*types.Named)
		if !ok || named.Obj().Pkg() != s.fi.Pkg.Types {
			return
		}
		s.sum.Opcodes = append(s.sum.Opcodes, OpcodeUse{
			Const: obj, Role: s.constRole(id), Pos: id.Pos(),
		})
	}
}

// isAssigned reports whether expr is a direct assignment target (or
// inc/dec operand) in its immediate parent.
func (s *summarizer) isAssigned(expr ast.Expr) bool {
	if len(s.stack) == 0 {
		return false
	}
	switch p := s.stack[len(s.stack)-1].(type) {
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if lhs == expr {
				return true
			}
		}
	case *ast.IncDecStmt:
		return p.X == expr
	case *ast.UnaryExpr:
		return p.Op == token.AND // address taken: aliases into plain access
	}
	return false
}

// constRole classifies a constant reference: a case label is dispatch, a
// call argument (looking through conversions like byte(opX) and struct
// literals like call{op: opX}) is encode, anything else — comparisons,
// assignments — is other.
func (s *summarizer) constRole(id *ast.Ident) int {
	pos := id.Pos()
	for i := len(s.stack) - 1; i >= 0; i-- {
		switch p := s.stack[i].(type) {
		case *ast.CaseClause:
			for _, e := range p.List {
				if e.Pos() <= pos && pos <= e.End() {
					return OpUseDispatch
				}
			}
			return OpUseOther // inside the case body
		case *ast.CallExpr:
			inArg := false
			for _, a := range p.Args {
				if a.Pos() <= pos && pos <= a.End() {
					inArg = true
					break
				}
			}
			if !inArg {
				return OpUseOther // part of the Fun expression
			}
			if tv, ok := s.info.Types[p.Fun]; ok && tv.IsType() {
				continue // conversion: keep looking for the real call
			}
			return OpUseEncode
		case ast.Stmt:
			return OpUseOther
		}
	}
	return OpUseOther
}

// visitSwitch records switches over locally-declared constant types.
func (s *summarizer) visitSwitch(sw *ast.SwitchStmt) {
	if sw.Tag == nil {
		return
	}
	named, ok := s.info.TypeOf(sw.Tag).(*types.Named)
	if !ok || named.Obj().Pkg() != s.fi.Pkg.Types {
		return
	}
	cs := ConstSwitch{TypeName: named.Obj(), Pos: sw.Pos()}
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		arm := SwitchArm{Pos: cc.Pos()}
		for _, expr := range cc.List {
			tv, ok := s.info.Types[expr]
			if !ok || tv.Value == nil {
				continue
			}
			cs.Covered = append(cs.Covered, tv.Value.ExactString())
			arm.Values = append(arm.Values, tv.Value.ExactString())
			if !isConstRef(s.info, expr) {
				cs.Raw = append(cs.Raw, expr.Pos())
			}
		}
		seen := make(map[*types.Func]bool)
		for _, body := range cc.Body {
			ast.Inspect(body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := s.calleeOf(call); callee != nil && !seen[callee] {
					seen[callee] = true
					arm.Callees = append(arm.Callees, callee)
				}
				return true
			})
		}
		cs.Arms = append(cs.Arms, arm)
	}
	s.sum.Switches = append(s.sum.Switches, cs)
}

// isConstRef reports whether expr names a declared constant (possibly
// through a conversion), as opposed to a raw literal.
func isConstRef(info *types.Info, expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		_, ok := info.Uses[e].(*types.Const)
		return ok
	case *ast.SelectorExpr:
		_, ok := info.Uses[e.Sel].(*types.Const)
		return ok
	case *ast.CallExpr:
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return isConstRef(info, e.Args[0])
		}
	}
	return false
}

// visitComposite records allocating composite literals: slice and map
// literals always allocate; struct and array literals only when their
// address is taken (value literals live on the stack).
func (s *summarizer) visitComposite(lit *ast.CompositeLit) {
	if len(s.stack) > 0 {
		// The element literals of a larger composite are part of the outer
		// allocation, not separate sites.
		if _, ok := s.stack[len(s.stack)-1].(*ast.CompositeLit); ok {
			return
		}
	}
	t := s.info.TypeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		s.alloc(lit.Pos(), "slice literal "+types.TypeString(t, shortQualifier))
	case *types.Map:
		s.alloc(lit.Pos(), "map literal "+types.TypeString(t, shortQualifier))
	default:
		if len(s.stack) > 0 {
			if un, ok := s.stack[len(s.stack)-1].(*ast.UnaryExpr); ok && un.Op == token.AND {
				s.alloc(lit.Pos(), "&"+types.TypeString(t, shortQualifier)+"{...} escapes to the heap")
			}
		}
	}
}

// visitBuiltin records make/new/append allocation sites.
func (s *summarizer) visitBuiltin(call *ast.CallExpr, name string) {
	switch name {
	case "make":
		s.alloc(call.Pos(), "make")
	case "new":
		s.alloc(call.Pos(), "new")
	case "append":
		if len(call.Args) == 0 {
			return
		}
		if reason := s.growOnlyAppend(call); reason != "" {
			s.allocExemptAs(call.Pos(), "append", reason)
			return
		}
		s.alloc(call.Pos(), "append may grow")
	}
}

// growOnlyAppend recognizes the amortized builder idiom
// x.buf = append(x.buf, ...): the result is assigned back to the same
// persistent (non-local) expression, so capacity survives across calls and
// the steady state stops allocating. Appends to plain locals stay flagged
// — a fresh slice grows every call.
func (s *summarizer) growOnlyAppend(call *ast.CallExpr) string {
	if len(s.stack) == 0 {
		return ""
	}
	asg, ok := s.stack[len(s.stack)-1].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 || asg.Rhs[0] != call {
		return ""
	}
	lhs := ast.Unparen(asg.Lhs[0])
	if _, bare := lhs.(*ast.Ident); bare {
		return ""
	}
	if types.ExprString(lhs) != types.ExprString(ast.Unparen(call.Args[0])) {
		return ""
	}
	return "grow-only buffer append (capacity persists across calls)"
}

// visitMapWrite records map-index assignment targets (inserts may grow the
// table).
func (s *summarizer) visitMapWrite(lhs ast.Expr) {
	idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return
	}
	if _, isMap := s.info.TypeOf(idx.X).Underlying().(*types.Map); isMap {
		s.alloc(idx.Pos(), "map write may grow the table")
	}
}

// visitConversion records string ↔ byte/rune-slice conversions, which copy.
func (s *summarizer) visitConversion(call *ast.CallExpr, to types.Type) {
	from := s.info.TypeOf(call.Args[0])
	if from == nil {
		return
	}
	if isString(to) && isByteOrRuneSlice(from) || isString(from) && isByteOrRuneSlice(to) {
		s.alloc(call.Pos(), "string conversion copies")
	}
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// visitBoxing flags non-pointer concrete arguments passed to interface
// parameters — the values escape into the interface header. Pointers,
// interfaces, and nil never allocate on conversion.
func (s *summarizer) visitBoxing(call *ast.CallExpr, callee *types.Func) {
	sig, _ := callee.Type().(*types.Signature)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := s.info.TypeOf(arg)
		if at == nil || boxFree(at) {
			continue
		}
		s.allocAt(arg.Pos(), "interface boxing of "+types.TypeString(at, shortQualifier), arg)
	}
}

// boxFree reports whether converting a value of type t to an interface
// cannot allocate.
func boxFree(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UntypedNil || u.Kind() == types.UnsafePointer
	}
	return false
}

// alloc records an allocation site at pos, applying the contextual
// exemptions (error construction, cap-guarded growth, panic path).
func (s *summarizer) alloc(pos token.Pos, what string) {
	s.allocAt(pos, what, nil)
}

func (s *summarizer) allocAt(pos token.Pos, what string, node ast.Expr) {
	s.sum.Allocs = append(s.sum.Allocs, AllocSite{
		Pos: pos, What: what, Exempt: s.allocExemption(pos),
	})
}

func (s *summarizer) allocExemptAs(pos token.Pos, what, reason string) {
	s.sum.Allocs = append(s.sum.Allocs, AllocSite{Pos: pos, What: what, Exempt: reason})
}

// allocExemption scans the ancestor stack for contexts the steady-state
// model excuses: error values built on a return path (the contract is
// zero allocations on success), growth guarded by a cap() check (grow-only
// scratch reaching steady state stops allocating), and panic arguments
// (the process is dying).
func (s *summarizer) allocExemption(pos token.Pos) string {
	for i := len(s.stack) - 1; i >= 0; i-- {
		switch p := s.stack[i].(type) {
		case *ast.CallExpr:
			if id, ok := p.Fun.(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := s.info.Uses[id].(*types.Builtin); isBuiltin {
					return "panic path"
				}
			}
		case *ast.ReturnStmt:
			if s.errorResultAt(p, pos, i) {
				return "error construction on a return path"
			}
		case *ast.IfStmt:
			if inRange(p.Body, pos) && condMentionsCap(s.info, p.Cond) {
				return "cap-guarded growth (grow-only scratch)"
			}
		}
	}
	return ""
}

// errorResultAt reports whether pos falls inside a result expression of
// ret whose declared type is error. stackIdx is ret's position on the
// ancestor stack, used to find the innermost enclosing function signature.
func (s *summarizer) errorResultAt(ret *ast.ReturnStmt, pos token.Pos, stackIdx int) bool {
	var sig *types.Signature
	for j := stackIdx - 1; j >= 0 && sig == nil; j-- {
		if lit, ok := s.stack[j].(*ast.FuncLit); ok {
			sig, _ = s.info.TypeOf(lit).(*types.Signature)
		}
	}
	if sig == nil {
		sig, _ = s.fi.Obj.Type().(*types.Signature)
	}
	if sig == nil || sig.Results().Len() != len(ret.Results) {
		return false
	}
	for i, res := range ret.Results {
		if res.Pos() <= pos && pos <= res.End() && isErrorType(sig.Results().At(i).Type()) {
			return true
		}
	}
	return false
}

var errorIface = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool { return types.AssignableTo(t, errorIface) }

// inRange reports whether pos falls inside node.
func inRange(node ast.Node, pos token.Pos) bool {
	return node != nil && node.Pos() <= pos && pos <= node.End()
}

// condMentionsCap reports whether an if condition calls the cap builtin —
// the signature of the grow-only scratch idiom
// `if cap(buf) < n { buf = make(...) }`.
func condMentionsCap(info *types.Info, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && (id.Name == "cap" || id.Name == "len") {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// shortQualifier renders types with bare package names in diagnostics.
func shortQualifier(p *types.Package) string { return p.Name() }

// knownAllocCall maps always-allocating standard-library calls (by
// FullName) to a description, or "". The standard library is outside the
// program, so this denylist is how its allocation behaviour enters the
// model; everything not listed is assumed allocation-free, a documented
// optimistic bias (DESIGN.md §13).
func knownAllocCall(full string) string {
	switch {
	case strings.HasPrefix(full, "fmt."):
		return full + " formats and allocates"
	case full == "errors.New" || full == "errors.Join":
		return full + " allocates"
	case full == "strings.Join" || full == "strings.Repeat" || full == "strings.Split" ||
		full == "strings.Fields" || full == "strings.ReplaceAll" || full == "strings.ToUpper" ||
		full == "strings.ToLower" || full == "strings.Clone":
		return full + " builds a new string"
	case full == "bytes.Clone" || full == "bytes.Join" || full == "bytes.Repeat" ||
		full == "bytes.Split" || full == "bytes.Fields":
		return full + " builds a new slice"
	case full == "strconv.Itoa" || full == "strconv.FormatInt" || full == "strconv.FormatUint" ||
		full == "strconv.FormatFloat" || full == "strconv.Quote":
		return full + " builds a new string"
	case full == "sort.Slice" || full == "sort.SliceStable":
		return full + " boxes its closure"
	case full == "time.NewTimer" || full == "time.NewTicker" || full == "time.After" || full == "time.Tick":
		return full + " allocates a timer"
	}
	return ""
}
