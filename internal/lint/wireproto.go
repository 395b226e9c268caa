package lint

import (
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// WireProto checks opcode parity across the wire protocol. The SMB
// protocol has grown to 13 opcodes spread over four files, each added by
// hand in three places: the constant, the client encode, and the server
// dispatch arm. For every named constant type that (a) declares op*
// constants and (b) is switched on somewhere in the module, the analyzer
// requires each constant to be covered by a dispatch switch and to flow
// into at least one call argument (the encode side — which is also where
// the decoder learns the value, since decode in this codebase is dispatch).
// It additionally rejects duplicate wire values and raw-literal case
// labels, the two ways a hand-maintained opcode space corrupts silently.
//
// Data-plane discipline: every dispatch arm of a wire switch must record a
// latency observation — a Histogram Observe/ObserveSeconds or a telemetry
// Span.End reached transitively through the arm's callees. An opcode that
// dodges the latency surface is invisible to shmtop's p50/p99 columns and
// to the Fig. 6 timeline, which is how a slow verb hides in a fleet.
// Control-plane arms (create/lookup/hello, called once per session) carry
// //lint:ignore wireproto directives.
var WireProto = &Analyzer{
	Name:       "wireproto",
	Doc:        "require encoder/dispatch parity for op* wire constants",
	RunProgram: runWireProto,
}

func runWireProto(pass *ProgramPass) error {
	prog := pass.Prog

	// Program-wide facts from the summaries.
	covered := make(map[*types.TypeName]map[string]bool)
	switched := make(map[*types.TypeName]bool)
	encoded := make(map[*types.Const]bool)
	type rawCase struct {
		pos token.Pos
		tn  *types.TypeName
	}
	var raws []rawCase
	arms := make(map[*types.TypeName][]SwitchArm)
	for _, fi := range prog.FuncsInOrder() {
		for _, sw := range fi.Sum.Switches {
			switched[sw.TypeName] = true
			cv := covered[sw.TypeName]
			if cv == nil {
				cv = make(map[string]bool)
				covered[sw.TypeName] = cv
			}
			for _, v := range sw.Covered {
				cv[v] = true
			}
			for _, p := range sw.Raw {
				raws = append(raws, rawCase{p, sw.TypeName})
			}
			arms[sw.TypeName] = append(arms[sw.TypeName], sw.Arms...)
		}
		for _, ou := range fi.Sum.Opcodes {
			if ou.Role == OpUseEncode {
				encoded[ou.Const] = true
			}
		}
	}

	// Opcode constants, grouped by their declared type.
	groups := make(map[*types.TypeName][]*types.Const)
	var typeOrder []*types.TypeName
	for _, pkg := range prog.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			c, ok := scope.Lookup(name).(*types.Const)
			if !ok || !isOpName(name) {
				continue
			}
			named, ok := c.Type().(*types.Named)
			if !ok || named.Obj().Pkg() != pkg.Types {
				continue
			}
			tn := named.Obj()
			if groups[tn] == nil {
				typeOrder = append(typeOrder, tn)
			}
			groups[tn] = append(groups[tn], c)
		}
	}
	sort.Slice(typeOrder, func(i, j int) bool {
		a, b := typeOrder[i], typeOrder[j]
		if a.Pkg().Path() != b.Pkg().Path() {
			return a.Pkg().Path() < b.Pkg().Path()
		}
		return a.Name() < b.Name()
	})

	obs := &observer{prog: prog, memo: make(map[*types.Func]bool)}
	for _, tn := range typeOrder {
		if !switched[tn] {
			// A type nobody dispatches on is not a wire protocol.
			continue
		}
		consts := groups[tn]
		sort.Slice(consts, func(i, j int) bool { return consts[i].Pos() < consts[j].Pos() })
		firstByValue := make(map[string]*types.Const)
		for _, c := range consts {
			v := c.Val().ExactString()
			if prev, dup := firstByValue[v]; dup {
				pass.Reportf(c.Pos(), "opcode %s reuses wire value %s of %s", c.Name(), wireValue(c.Val()), prev.Name())
			} else {
				firstByValue[v] = c
			}
			if !covered[tn][v] {
				pass.Reportf(c.Pos(), "opcode %s (value %s) has no dispatch arm in any switch over %s", c.Name(), wireValue(c.Val()), tn.Name())
			}
			if !encoded[c] {
				pass.Reportf(c.Pos(), "opcode %s is never encoded: no call puts it on the wire", c.Name())
			}
		}
		for _, arm := range arms[tn] {
			if len(arm.Values) == 0 {
				continue // default clause: not an opcode handler
			}
			if obs.armObserves(arm) {
				continue
			}
			pass.Reportf(arm.Pos, "dispatch arm for %s records no latency observation (no Observe/ObserveSeconds/Span.End on any call path)",
				armLabel(arm, firstByValue))
		}
	}
	for _, r := range raws {
		if switched[r.tn] && groups[r.tn] != nil {
			pass.Reportf(r.pos, "raw literal case in switch over %s; use the named op* constant", r.tn.Name())
		}
	}
	return nil
}

// observer answers "does this function transitively record a latency
// observation?" with memoization over the program call graph.
type observer struct {
	prog *Program
	memo map[*types.Func]bool
}

// armObserves reports whether any call in the dispatch arm's body reaches a
// latency observation.
func (o *observer) armObserves(arm SwitchArm) bool {
	for _, c := range arm.Callees {
		if o.observes(c) {
			return true
		}
	}
	return false
}

// observes reports whether fn is itself a latency observation or reaches
// one through its module callees. The memo doubles as the cycle guard: a
// function mid-visit reads as false, which is the conservative fixpoint.
func (o *observer) observes(fn *types.Func) bool {
	if isObserveCall(fn) {
		return true
	}
	if done, ok := o.memo[fn]; ok {
		return done
	}
	o.memo[fn] = false
	fi := o.prog.Funcs[fn]
	if fi == nil {
		return false // outside the module: assumed not to observe
	}
	for _, c := range fi.Sum.Calls {
		if o.observes(c.Callee) {
			o.memo[fn] = true
			return true
		}
	}
	return false
}

// isObserveCall recognizes the latency-recording leaves: a Histogram's
// Observe/ObserveSeconds, and End/ObserveInto on a type named Span (the
// telemetry tracer's span, whose End records the phase sample).
func isObserveCall(fn *types.Func) bool {
	switch fn.Name() {
	case "Observe", "ObserveSeconds":
		return true
	case "End", "ObserveInto":
		sig, _ := fn.Type().(*types.Signature)
		if sig == nil || sig.Recv() == nil {
			return false
		}
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		return ok && named.Obj().Name() == "Span"
	}
	return false
}

// armLabel names a dispatch arm by its opcode constants for diagnostics.
func armLabel(arm SwitchArm, byValue map[string]*types.Const) string {
	names := make([]string, 0, len(arm.Values))
	for _, v := range arm.Values {
		if c := byValue[v]; c != nil {
			names = append(names, c.Name())
		} else {
			names = append(names, v)
		}
	}
	return strings.Join(names, ", ")
}

// isOpName matches the repo's opcode naming convention: "op" followed by an
// exported-style tail (opCreate, opSnapRead, opSeqAccumulate).
func isOpName(name string) bool {
	if !strings.HasPrefix(name, "op") || len(name) < 3 {
		return false
	}
	c := name[2]
	return c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_'
}

// wireValue renders a constant's value for diagnostics (decimal).
func wireValue(v constant.Value) string { return v.ExactString() }
