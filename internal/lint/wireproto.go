package lint

import (
	"go/types"
	"strings"
)

// WireProto enforces data-plane latency discipline on the wire protocol:
// every dispatch arm of a switch over a type that declares op* constants
// must record a latency observation — a Histogram Observe/ObserveSeconds
// or a telemetry Span.End reached transitively through the arm's callees.
// An opcode that dodges the latency surface is invisible to shmtop's
// p50/p99 columns and to the Fig. 6 timeline, which is how a slow verb
// hides in a fleet. Control-plane arms (create/lookup/hello, called once
// per session) carry //lint:ignore wireproto directives.
//
// Opcode parity is not checked here: smb's opTable is an indexed array
// literal, so a duplicate wire value does not compile, and
// TestOpTableMatchesDispatch pins that every op constant has a row and
// every row a server arm.
var WireProto = &Analyzer{
	Name:       "wireproto",
	Doc:        "every dispatch arm of an op* wire switch must record a latency observation",
	RunProgram: runWireProto,
}

func runWireProto(pass *ProgramPass) error {
	prog := pass.Prog
	// The wire types: named types declaring op* constants, each with its
	// constant names by value for diagnostics.
	opNames := make(map[*types.TypeName]map[string]string)
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
			if opNames[tn] == nil {
				opNames[tn] = make(map[string]string)
			}
			opNames[tn][c.Val().ExactString()] = name
		}
	}

	obs := &observer{prog: prog, memo: make(map[*types.Func]bool)}
	for _, fi := range prog.FuncsInOrder() {
		for _, sw := range fi.Sum.Switches {
			names := opNames[sw.TypeName]
			if names == nil {
				continue // not a wire protocol
			}
			for _, arm := range sw.Arms {
				// A default clause is not an opcode handler.
				if len(arm.Values) == 0 || obs.armObserves(arm) {
					continue
				}
				pass.Reportf(arm.Pos, "dispatch arm for %s records no latency observation (no Observe/ObserveSeconds/Span.End on any call path)",
					armLabel(arm, names))
			}
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
func armLabel(arm SwitchArm, names map[string]string) string {
	labels := make([]string, 0, len(arm.Values))
	for _, v := range arm.Values {
		if name, ok := names[v]; ok {
			labels = append(labels, name)
		} else {
			labels = append(labels, v)
		}
	}
	return strings.Join(labels, ", ")
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
