package lint

import (
	"go/token"
	"go/types"
	"sort"
)

// LockOrder infers the mutex acquisition order the module actually follows
// and flags cycles. Every acquisition while another lock is held — directly
// or through a call chain — contributes a directed edge between lock
// *classes* (a class is one mutex field or package variable; all stripes of
// segment.locks are one class). A cycle among classes means two goroutines
// can acquire the same pair in opposite orders and deadlock. The key-ordered
// dual-stripe acquisition in segment.accumulate shows up as a self-edge —
// correct only because of the key ordering, which is outside the model, so
// the code carries a //lint:ignore with that reason.
var LockOrder = &Analyzer{
	Name:       "lockorder",
	Doc:        "detect lock acquisition-order cycles across the call graph",
	RunProgram: runLockOrder,
}

// heldLock is one lock on the simulated hold stack: a resolved class, or
// the enclosing function's own parameter (class resolved per call site).
type heldLock struct {
	class string
	param int
}

// edgeKey/edgeInfo describe one held-before-acquired edge of the class
// graph: while `from` was held, `to` was acquired, first seen at pos in fn.
type edgeKey struct{ from, to string }

type edgeInfo struct {
	pos token.Pos
	fn  string
}

func runLockOrder(pass *ProgramPass) error {
	prog := pass.Prog
	funcs := prog.FuncsInOrder()

	// Interprocedural facts, computed to fixpoint because summaries refer
	// to each other through calls:
	//   paramLocks[f]: parameter indices f (transitively) locks,
	//   trans[f]:      every lock class f's call tree may acquire,
	//   escaping[f]:   locks f still holds when it returns (the
	//                  lockWait(&seg.locks[i]) helper pattern),
	//   netRelease[f]: classes f releases without having acquired them —
	//                  the unlockStripe(ci) wrapper pattern, where the
	//                  matching acquire happened in the caller. Without
	//                  this, a caller using acquire/release *methods* looks
	//                  like it holds the class forever: every later acquire
	//                  becomes a phantom self-edge and the class leaks into
	//                  escaping[caller], fabricating order cycles in
	//                  whatever calls *that*.
	paramLocks := make(map[*types.Func]map[int]bool)
	trans := make(map[*types.Func]map[string]bool)
	escaping := make(map[*types.Func][]heldLock)
	netRelease := make(map[*types.Func]map[string]bool)
	for _, fi := range funcs {
		paramLocks[fi.Obj] = make(map[int]bool)
		trans[fi.Obj] = make(map[string]bool)
		netRelease[fi.Obj] = make(map[string]bool)
	}
	streams := make(map[*types.Func][]LockEvent, len(funcs))
	for _, fi := range funcs {
		streams[fi.Obj] = atReturn(fi.Sum.Locks)
	}
	for iter := 0; iter <= len(funcs)+1; iter++ {
		changed := false
		for _, fi := range funcs {
			fn := fi.Obj
			pl, tr, nr := paramLocks[fn], trans[fn], netRelease[fn]
			var held, deferred []heldLock
			for _, ev := range streams[fn] {
				switch ev.Kind {
				case lockAcquire:
					if ev.Param >= 0 && !pl[ev.Param] {
						pl[ev.Param] = true
						changed = true
					}
					if ev.Class != "" && !tr[ev.Class] {
						tr[ev.Class] = true
						changed = true
					}
					if ev.Class != "" || ev.Param >= 0 {
						held = append(held, heldLock{ev.Class, ev.Param})
					}
				case lockRelease:
					after := popHeld(held, ev.Class, ev.Param)
					if len(after) == len(held) && ev.Class != "" && !nr[ev.Class] {
						// Released without a matching acquire: the caller
						// holds it — this function is a release wrapper.
						nr[ev.Class] = true
						changed = true
					}
					held = after
				case lockDeferRelease:
					deferred = append(deferred, heldLock{ev.Class, ev.Param})
				case lockCall:
					if prog.Funcs[ev.Callee] == nil {
						continue // outside the module: assumed lock-free
					}
					for c := range trans[ev.Callee] {
						if !tr[c] {
							tr[c] = true
							changed = true
						}
					}
					for _, al := range ev.ArgLocks {
						if !paramLocks[ev.Callee][al.Index] {
							continue
						}
						if al.Class != "" && !tr[al.Class] {
							tr[al.Class] = true
							changed = true
						}
						if al.Param >= 0 && !pl[al.Param] {
							pl[al.Param] = true
							changed = true
						}
					}
					for c := range netRelease[ev.Callee] {
						after := popHeld(held, c, -1)
						if len(after) == len(held) && !nr[c] {
							nr[c] = true // wrapper-of-wrapper: propagate up
							changed = true
						}
						held = after
					}
					held = append(held, resolveEscaping(escaping[ev.Callee], ev.ArgLocks)...)
				}
			}
			// Deferred unlocks run at return: drop them before deciding
			// what escapes.
			for _, d := range deferred {
				held = popHeld(held, d.class, d.param)
			}
			if !heldEqual(escaping[fn], held) {
				escaping[fn] = append([]heldLock(nil), held...)
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Second pass: replay each function's event stream against the
	// interprocedural facts, collecting held-before-acquired edges.
	edges := make(map[edgeKey]edgeInfo)
	addEdge := func(from, to string, pos token.Pos, fn string) {
		if from == "" || to == "" {
			return
		}
		k := edgeKey{from, to}
		if _, ok := edges[k]; !ok {
			edges[k] = edgeInfo{pos, fn}
		}
	}
	for _, fi := range funcs {
		name := funcDisplayName(fi.Obj)
		var held []heldLock
		for _, ev := range streams[fi.Obj] {
			switch ev.Kind {
			case lockAcquire:
				for _, h := range held {
					addEdge(h.class, ev.Class, ev.Pos, name)
				}
				if ev.Class != "" || ev.Param >= 0 {
					held = append(held, heldLock{ev.Class, ev.Param})
				}
			case lockRelease:
				held = popHeld(held, ev.Class, ev.Param)
			case lockDeferRelease:
				// Runs at return; the lock stays held for the rest of the
				// body.
			case lockCall:
				if prog.Funcs[ev.Callee] == nil {
					continue
				}
				acquired := make(map[string]bool)
				for c := range trans[ev.Callee] {
					acquired[c] = true
				}
				for _, al := range ev.ArgLocks {
					if paramLocks[ev.Callee][al.Index] && al.Class != "" {
						acquired[al.Class] = true
					}
				}
				for _, h := range held {
					for _, c := range sortedKeys(acquired) {
						addEdge(h.class, c, ev.Pos, name)
					}
				}
				for c := range netRelease[ev.Callee] {
					held = popHeld(held, c, -1)
				}
				held = append(held, resolveEscaping(escaping[ev.Callee], ev.ArgLocks)...)
			}
		}
	}

	// Cycles = edges inside one strongly-connected component (self-edges
	// included: re-acquiring a class while holding it deadlocks unless an
	// external ordering — key order over stripes — makes it safe).
	scc := tarjanSCC(edges)
	var keys []edgeKey
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := edges[keys[i]], edges[keys[j]]
		return a.pos < b.pos
	})
	for _, k := range keys {
		if k.from == k.to {
			e := edges[k]
			pass.Reportf(e.pos, "%s acquires %s while already holding it; safe only under an external ordering (document with //lint:ignore)",
				e.fn, prog.shortName(k.from))
			continue
		}
		if scc[k.from] != scc[k.to] {
			continue
		}
		e := edges[k]
		pass.Reportf(e.pos, "%s acquires %s while holding %s, but the reverse order also occurs: lock-order cycle",
			e.fn, prog.shortName(k.to), prog.shortName(k.from))
	}
	return nil
}

// atReturn is a function's lock events in the order they run: each
// deferred call moves to the end of the body, the last deferred first, so
// a deferred release wrapper drops its lock at return rather than at the
// defer statement (deferred direct releases are lockDeferRelease events,
// already handled at return by both passes).
func atReturn(evs []LockEvent) []LockEvent {
	out := make([]LockEvent, 0, len(evs))
	var deferred []LockEvent
	for _, ev := range evs {
		if ev.Kind == lockCall && ev.Deferred {
			deferred = append(deferred, ev)
			continue
		}
		out = append(out, ev)
	}
	for i := len(deferred) - 1; i >= 0; i-- {
		out = append(out, deferred[i])
	}
	return out
}

// popHeld removes every held instance of the released class (or parameter,
// for untracked-class parameter locks). Dropping all instances — not just
// the most recent — compensates for path-insensitivity: an if/else that
// acquires the same class in both branches contributes both acquisitions
// to the linear event stream, but only one branch's release runs, and
// keeping phantom instances held would fabricate escaping locks and
// cycles. The cost is missing an order edge taken while a *second* real
// instance of a class is still held after the first is released — a
// pattern the codebase avoids (stripe pairs release together).
func popHeld(held []heldLock, class string, param int) []heldLock {
	out := held[:0]
	for _, h := range held {
		match := (class != "" && h.class == class) ||
			(class == "" && param >= 0 && h.param == param)
		if !match {
			out = append(out, h)
		}
	}
	return out
}

// resolveEscaping maps a callee's still-held-at-return locks into the
// caller's frame: parameter locks resolve through the call's mutex-pointer
// arguments.
func resolveEscaping(esc []heldLock, args []ArgLock) []heldLock {
	var out []heldLock
	for _, e := range esc {
		if e.param >= 0 {
			for _, al := range args {
				if al.Index == e.param && (al.Class != "" || al.Param >= 0) {
					out = append(out, heldLock{al.Class, al.Param})
					break
				}
			}
			continue
		}
		if e.class != "" {
			out = append(out, heldLock{e.class, -1})
		}
	}
	return out
}

func heldEqual(a, b []heldLock) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// tarjanSCC computes strongly-connected components of the class graph,
// returning a component id per node.
func tarjanSCC(edges map[edgeKey]edgeInfo) map[string]int {
	adj := make(map[string][]string)
	for k := range edges {
		adj[k.from] = append(adj[k.from], k.to)
		if _, ok := adj[k.to]; !ok {
			adj[k.to] = nil
		}
	}
	for _, vs := range adj {
		sort.Strings(vs)
	}
	var nodes []string
	for n := range adj {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	comp := make(map[string]int)
	var stack []string
	next, ncomp := 0, 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = ncomp
				if w == v {
					break
				}
			}
			ncomp++
		}
	}
	for _, n := range nodes {
		if _, seen := index[n]; !seen {
			strongconnect(n)
		}
	}
	return comp
}
