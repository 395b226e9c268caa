package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// OpcodeExhaustive guards the SMB wire protocol's dispatch tables: for any
// named constant type declared in the package (the motivating case is
// `opcode` in internal/smb/protocol.go) that is switched on somewhere in
// the package, every declared constant of that type must appear as a case
// in at least one of those switches. This catches the classic drift bug —
// a new opcode added to protocol.go whose handler never lands in
// server.go, so clients get "unknown opcode" from a server that claims to
// speak the version. Coverage is the union over all switches in the
// package, because dispatch chains are split across handlers
// (serve → serveShm → serveSnap).
var OpcodeExhaustive = &Analyzer{
	Name: "opcode",
	Doc:  "every constant of a locally-declared switched-on type needs a dispatch case",
	Run:  runOpcodeExhaustive,
}

func runOpcodeExhaustive(pass *Pass) error {
	// Declared constants per locally-defined named type.
	type constInfo struct {
		obj *types.Const
		pos token.Pos
	}
	consts := make(map[*types.TypeName][]constInfo)
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		named, ok := c.Type().(*types.Named)
		if !ok || named.Obj().Pkg() != pass.Pkg {
			continue
		}
		consts[named.Obj()] = append(consts[named.Obj()], constInfo{obj: c, pos: c.Pos()})
	}
	if len(consts) == 0 {
		return nil
	}

	// Case coverage, unioned across every switch in the package.
	covered := make(map[*types.TypeName]map[string]bool) // type -> covered exact values
	switched := make(map[*types.TypeName]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			t := pass.TypesInfo.TypeOf(sw.Tag)
			named, ok := t.(*types.Named)
			if !ok {
				return true
			}
			tn := named.Obj()
			if _, ok := consts[tn]; !ok {
				return true
			}
			switched[tn] = true
			if covered[tn] == nil {
				covered[tn] = make(map[string]bool)
			}
			for _, stmt := range sw.Body.List {
				cc, ok := stmt.(*ast.CaseClause)
				if !ok {
					continue
				}
				for _, expr := range cc.List {
					if tv, ok := pass.TypesInfo.Types[expr]; ok && tv.Value != nil {
						covered[tn][tv.Value.ExactString()] = true
					}
				}
			}
			return true
		})
	}

	// Every constant of a switched-on type must be covered somewhere.
	for tn, list := range consts {
		if !switched[tn] {
			continue
		}
		for _, ci := range list {
			if !covered[tn][ci.obj.Val().ExactString()] {
				pass.Reportf(ci.pos, "constant %s of type %s has no case in any switch over %s",
					ci.obj.Name(), tn.Name(), tn.Name())
			}
		}
	}
	return nil
}
