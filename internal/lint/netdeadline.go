package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// NetDeadline enforces the failure-model discipline DESIGN.md §12 commits
// the SMB data path to: blocking network I/O must be bounded. A worker that
// blocks forever on a dead memory server stalls the whole termination
// alignment, so the analyzer flags
//
//   - net.Dial, which has no connect timeout (use net.DialTimeout or a
//     net.Dialer with Timeout/Context), and
//   - Read/Write-family method calls on net connection types (and
//     io.ReadFull over one) inside functions that never call a
//     Set*Deadline method.
//
// The deadline check is per enclosing function: one Set*Deadline call
// anywhere in the function blesses its blocking calls, mirroring the
// "deadline armed before every frame" pattern of smb.StreamClient. Code
// that deliberately blocks until Close (e.g. a reader pump whose lifetime
// a Close call bounds) documents that with //lint:ignore netdeadline.
var NetDeadline = &Analyzer{
	Name: "netdeadline",
	Doc:  "blocking net calls need a deadline: no net.Dial, no un-deadlined conn I/O",
	Run:  runNetDeadline,
}

// netBlockingMethods are the conn methods that park the goroutine until the
// peer (or the kernel buffer) cooperates.
var netBlockingMethods = map[string]bool{
	"Read": true, "Write": true,
	"ReadFrom": true, "WriteTo": true,
	"ReadFromUDP": true, "WriteToUDP": true,
	"ReadMsgUDP": true, "WriteMsgUDP": true,
}

func runNetDeadline(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkNetDeadlineFunc(pass, fd)
		}
	}
	return nil
}

func checkNetDeadlineFunc(pass *Pass, fd *ast.FuncDecl) {
	type finding struct {
		call *ast.CallExpr
		what string
	}
	var blocking []finding
	hasDeadline := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		if strings.HasPrefix(name, "Set") && strings.HasSuffix(name, "Deadline") {
			hasDeadline = true
			return true
		}
		if isPkgFunc(pass, sel, "net", "Dial") {
			// Unconditional: even a deadline-disciplined function cannot
			// bound the connect itself after the fact.
			pass.Reportf(call.Pos(), "net.Dial blocks without a connect timeout; use net.DialTimeout or a net.Dialer")
			return true
		}
		if isPkgFunc(pass, sel, "io", "ReadFull") && len(call.Args) > 0 &&
			isNetConnType(pass.TypesInfo.TypeOf(call.Args[0])) {
			blocking = append(blocking, finding{call, "io.ReadFull on a net connection"})
			return true
		}
		if netBlockingMethods[name] && isNetConnType(pass.TypesInfo.TypeOf(sel.X)) {
			blocking = append(blocking, finding{call, name + " on a net connection"})
		}
		return true
	})
	if hasDeadline {
		return
	}
	for _, b := range blocking {
		pass.Reportf(b.call.Pos(), "%s without any Set*Deadline in %s; bound it or //lint:ignore netdeadline with the lifetime argument", b.what, fd.Name.Name)
	}
}

// isPkgFunc reports whether sel names the package-level function pkg.name.
func isPkgFunc(pass *Pass, sel *ast.SelectorExpr, pkg, name string) bool {
	if sel.Sel.Name != name {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == pkg && fn.Type().(*types.Signature).Recv() == nil
}

// isNetConnType reports whether t is (a pointer to) a type declared in
// package net — net.Conn, *net.TCPConn, *net.UDPConn, net.PacketConn, …
func isNetConnType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "net"
}
