package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/tools/restorelint/lint"
)

// DurableIO gates the crash-consistency contract of the persistence
// packages: internal/durable (the one atomic publish) and its users.
//
// campaignio promises that a crash at any instruction leaves a campaign
// directory that either resumes cleanly or fails loudly. That promise is
// carried by exactly two disciplines, both easy to lose in a refactor:
//
//  1. Write paths: bytes must reach the disk before anything points at
//     them. A file that was written must be fsynced in the same function
//     (rule B), and a rename that publishes a file must be preceded by an
//     fsync of that file (rule A) — rename-before-sync is the classic
//     "zero-length file after power loss" bug.
//  2. Read paths: a function that parses journal records out of raw file
//     bytes must verify a CRC before trusting them (rule C); torn or
//     bit-rotted records must never be silently treated as data.
//
// The checks lean on the dataflow engine's per-receiver call facts and
// use-def chains: Sync-before-Rename is an ordering query over the same
// file variable, including when the renamed name was stored in a local
// first.
var DurableIO = &lint.Analyzer{
	Name: "durableio",
	Doc:  "campaign persistence must fsync before publish and CRC-check before trust",
	Run:  runDurableIO,
}

func runDurableIO(pass *lint.Pass) {
	df := lint.NewDataflow(pass.Pkg)
	for _, s := range df.PackageSummaries(pass.Pkg) {
		checkWriteSync(pass, s)
		checkRenameSync(pass, s)
		checkReadCRC(pass, s)
	}
}

// fileWriteMethods are *os.File methods that put bytes in the page cache.
var fileWriteMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteAt": true,
}

// checkWriteSync enforces rule B: every *os.File variable written in a
// function must be fsynced later in the same function.
func checkWriteSync(pass *lint.Pass, s *lint.FuncSummary) {
	for v, calls := range s.RecvCalls {
		if !isOSFile(v.Type()) {
			continue
		}
		var firstWrite token.Pos
		var lastSync token.Pos
		for _, c := range calls {
			switch {
			case fileWriteMethods[c.Name]:
				if firstWrite == token.NoPos || c.Pos < firstWrite {
					firstWrite = c.Pos
				}
			case c.Name == "Sync":
				if c.Pos > lastSync {
					lastSync = c.Pos
				}
			}
		}
		if firstWrite == token.NoPos {
			continue
		}
		if lastSync == token.NoPos || lastSync < firstWrite {
			pass.Reportf(firstWrite,
				"file %q is written but never fsynced in %s; call Sync before the data is relied on (a crash may leave a partial or empty file)",
				v.Name(), s.Fn.Name())
		}
	}
}

// checkRenameSync enforces rule A: os.Rename's source file must have been
// fsynced earlier in the same function.
func checkRenameSync(pass *lint.Pass, s *lint.FuncSummary) {
	info := s.Pkg.Info

	// Map definition positions of string locals to their RHS, so a rename
	// of `name` resolves through `name := tmp.Name()`.
	defRHS := make(map[token.Pos]ast.Expr)
	ast.Inspect(s.Decl, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				defRHS[id.Pos()] = as.Rhs[i]
			}
		}
		return true
	})

	ast.Inspect(s.Decl, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 2 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Rename" {
			return true
		}
		if pkgNameOf(info, sel.X) != "os" {
			return true
		}
		src := resolveFileVar(info, s, defRHS, call.Args[0])
		if src == nil {
			pass.Reportf(call.Pos(),
				"os.Rename publishes a path whose source file cannot be traced to an fsynced file variable; rename only after Sync")
			return true
		}
		for _, c := range s.RecvCalls[src] {
			if c.Name == "Sync" && c.Pos < call.Pos() {
				return true
			}
		}
		pass.Reportf(call.Pos(),
			"os.Rename publishes %q without an earlier Sync on it; a crash after the rename can expose an unsynced (possibly empty) file",
			src.Name())
		return true
	})
}

// resolveFileVar traces a rename source argument to the *os.File variable it
// names: either `f.Name()` directly, or an identifier whose reaching
// definitions are all `f.Name()` calls.
func resolveFileVar(info *types.Info, s *lint.FuncSummary, defRHS map[token.Pos]ast.Expr, arg ast.Expr) *types.Var {
	if v := fileVarOfNameCall(info, arg); v != nil {
		return v
	}
	id, ok := arg.(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok {
		return nil
	}
	var resolved *types.Var
	for _, defPos := range s.ReachingDefs(v, id.Pos()) {
		rhs, ok := defRHS[defPos]
		if !ok {
			return nil // a def we can't see through (parameter, range var)
		}
		fv := fileVarOfNameCall(info, rhs)
		if fv == nil {
			return nil
		}
		if resolved != nil && resolved != fv {
			return nil // two defs name different files; give up soundly
		}
		resolved = fv
	}
	return resolved
}

// fileVarOfNameCall matches `f.Name()` where f is an *os.File variable.
func fileVarOfNameCall(info *types.Info, e ast.Expr) *types.Var {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Name" {
		return nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || !isOSFile(v.Type()) {
		return nil
	}
	return v
}

// checkReadCRC enforces rule C: a function that reads raw bytes from a file
// or reader, or decodes them from a []byte parameter, AND constructs journal
// Record values must verify a checksum.
func checkReadCRC(pass *lint.Pass, s *lint.FuncSummary) {
	info := s.Pkg.Info
	readsBytes := hasByteSliceParam(s.Fn)
	var checksCRC bool
	var firstRecord token.Pos

	ast.Inspect(s.Decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			switch {
			case name == "ReadFull" && pkgNameOf(info, sel.X) == "io",
				name == "Read" || name == "ReadAt":
				readsBytes = true
			case name == "Sum32" || name == "Checksum" || name == "ChecksumIEEE" || name == "Update":
				checksCRC = true
			}
		case *ast.CompositeLit:
			tv, ok := info.Types[n]
			if !ok {
				return true
			}
			named, ok := tv.Type.(*types.Named)
			if ok && named.Obj().Name() == "Record" && firstRecord == token.NoPos {
				firstRecord = n.Pos()
			}
		}
		return true
	})

	if readsBytes && firstRecord != token.NoPos && !checksCRC {
		pass.Reportf(firstRecord,
			"%s constructs Record values from file bytes without a CRC check; verify the checksum before trusting a record",
			s.Fn.Name())
	}
}

// hasByteSliceParam reports whether fn takes a []byte parameter.
func hasByteSliceParam(fn *types.Func) bool {
	params := fn.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		if sl, ok := params.At(i).Type().(*types.Slice); ok {
			if b, ok := sl.Elem().(*types.Basic); ok && b.Kind() == types.Byte {
				return true
			}
		}
	}
	return false
}

// isOSFile matches *os.File and os.File.
func isOSFile(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "File" && obj.Pkg() != nil && obj.Pkg().Path() == "os"
}

// pkgNameOf returns the package a selector's base names ("os" in os.Rename),
// or "" when the base is not a package.
func pkgNameOf(info *types.Info, e ast.Expr) string {
	id, ok := e.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}
