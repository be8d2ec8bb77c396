// Link audit: every function declared in a non-test file under cmd/ and
// internal/ must be linked into at least one program the repository
// ships — the cmd/ and examples/ binaries and perfbench — so code that
// only its own tests reach fails the build instead of accumulating.
package branchscope_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// referenceOracles are the only declarations the audit exempts: the
// differential oracles that the bpu and fsm tests and
// TestHotpathGuardrail compare the live predictor against. Entries are
// linker symbol names with type arguments stripped.
var referenceOracles = []string{
	"branchscope/internal/bpu.NewReference",
	"branchscope/internal/bpu.(*ReferenceUnit).MarkSensitive",
	"branchscope/internal/bpu.(*ReferenceUnit).sensitive",
	"branchscope/internal/bpu.(*ReferenceUnit).domainKey",
	"branchscope/internal/bpu.(*ReferenceUnit).phtSpan",
	"branchscope/internal/bpu.refFold",
	"branchscope/internal/bpu.refKeyedIndex",
	"branchscope/internal/bpu.(*ReferenceUnit).bimodalIndex",
	"branchscope/internal/bpu.(*ReferenceUnit).gshareIndex",
	"branchscope/internal/bpu.(*ReferenceUnit).tagIndex",
	"branchscope/internal/bpu.(*ReferenceUnit).phtPredict",
	"branchscope/internal/bpu.(*ReferenceUnit).phtUpdate",
	"branchscope/internal/bpu.(*ReferenceUnit).Predict",
	"branchscope/internal/bpu.(*ReferenceUnit).btbLookup",
	"branchscope/internal/bpu.(*ReferenceUnit).Commit",
	"branchscope/internal/bpu.(*ReferenceUnit).GHR",
	"branchscope/internal/bpu.(*ReferenceUnit).PHTState",
	"branchscope/internal/fsm.(*Spec).ReferencePredict",
	"branchscope/internal/fsm.(*Spec).ReferenceNext",
	"branchscope/internal/fsm.(*Spec).ReferenceLabel",
}

// funcDecl is one function or method declared in a package's build.
type funcDecl struct {
	symbol string // linker name: import path (main for commands) + "." + name
	binary string // for a command, the one binary that must link it
	pos    string
}

// TestEveryFunctionIsLinked builds every program with inlining off and
// reads its symbol table; a declaration no binary links is dead code
// (delete it) or a test helper (move it into a _test.go file). Only the
// files `go list` puts in the build are judged, so a file behind a build
// constraint is judged by the toolchain that builds it. Blind spot: the
// linker keeps every method of a type converted to an interface when
// any interface method of the same name and signature is called
// dynamically (a Reset() on hash.Hash keeps every Reset()), so such a
// method passes even when only tests call it. The build takes a while,
// so plain `go test` only checks that each exemption still names a
// declaration; -guardrails runs the audit:
//
//	go test -run '^TestEveryFunctionIsLinked$' -v . -guardrails
func TestEveryFunctionIsLinked(t *testing.T) {
	decls := declaredFuncs(t)
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.symbol] = true
	}
	exempt := map[string]bool{}
	for _, o := range referenceOracles {
		if !declared[o] {
			t.Errorf("exemption %s names no declaration", o)
		}
		exempt[o] = true
	}
	if !*runGuardrails {
		t.Log("link audit left out: pass -guardrails to build every program and read its symbols")
		return
	}
	if testing.Short() {
		t.Skip("link audit skipped in -short mode")
	}

	linked := linkedSymbols(t)
	var unlinked []string
	for _, d := range decls {
		switch {
		case exempt[d.symbol]:
		case d.binary != "":
			if !linked[d.binary][d.symbol] {
				unlinked = append(unlinked, fmt.Sprintf("%s: %s (binary %s)", d.pos, d.symbol, d.binary))
			}
		case !linked[""][d.symbol]:
			unlinked = append(unlinked, fmt.Sprintf("%s: %s", d.pos, d.symbol))
		}
	}
	if len(unlinked) > 0 {
		t.Errorf("%d functions are linked into no program; delete them or move them into a _test.go file:\n%s",
			len(unlinked), strings.Join(unlinked, "\n"))
	}
}

// declaredFuncs parses the non-test Go files of every package under cmd/
// and internal/ that the current toolchain builds.
func declaredFuncs(t *testing.T) []funcDecl {
	t.Helper()
	out := goCmd(t, ".", "list", "-f", "{{.ImportPath}}|{{.Name}}|{{.Dir}}|{{join .GoFiles \" \"}}",
		"./cmd/...", "./internal/...")
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var decls []funcDecl
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		f := strings.SplitN(line, "|", 4)
		pkg, binary := f[0], ""
		if f[1] == "main" {
			pkg, binary = "main", filepath.Base(f[0])
		}
		for _, name := range strings.Fields(f[3]) {
			path := filepath.Join(f[2], name)
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range file.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Name.Name == "_" || (fn.Recv == nil && fn.Name.Name == "init") {
					continue
				}
				p := fset.Position(fn.Pos())
				rel, err := filepath.Rel(root, p.Filename)
				if err != nil {
					rel = p.Filename
				}
				decls = append(decls, funcDecl{
					symbol: pkg + "." + funcName(fn),
					binary: binary,
					pos:    fmt.Sprintf("%s:%d", rel, p.Line),
				})
			}
		}
	}
	return decls
}

// funcName renders a declaration the way the linker names it, without
// type arguments: F, T.M or (*T).M.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	typ, star := fn.Recv.List[0].Type, false
	if s, ok := typ.(*ast.StarExpr); ok {
		typ, star = s.X, true
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	recv := typ.(*ast.Ident).Name
	if star {
		return "(*" + recv + ")." + fn.Name.Name
	}
	return recv + "." + fn.Name.Name
}

// linkedSymbols builds the programs with inlining off (so no call
// disappears into its caller) and returns the text symbols of each
// binary, by binary name, plus their union under "".
func linkedSymbols(t *testing.T) map[string]map[string]bool {
	t.Helper()
	dir := t.TempDir()
	goCmd(t, ".", "build", "-gcflags=all=-l", "-o", dir+string(filepath.Separator), "./cmd/...", "./examples/...")
	goCmd(t, "perfbench", "build", "-gcflags=all=-l", "-o", filepath.Join(dir, "perfbench"), ".")
	bins, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	linked := map[string]map[string]bool{"": {}}
	var names []string
	for _, b := range bins {
		names = append(names, b.Name())
		syms := map[string]bool{}
		for _, line := range strings.Split(goCmd(t, ".", "tool", "nm", filepath.Join(dir, b.Name())), "\n") {
			// "<addr> <type> <name>"; a name may contain spaces.
			f := strings.SplitN(strings.TrimSpace(line), " ", 3)
			if len(f) != 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			name := stripTypeArgs(f[2])
			syms[name] = true
			linked[""][name] = true
		}
		linked[b.Name()] = syms
	}
	t.Logf("audited %d binaries: %s", len(names), strings.Join(names, " "))
	return linked
}

// stripTypeArgs drops every bracketed type-argument list from a linker
// symbol, so each instantiation of a generic function matches its
// declaration: Lines[go.shape.[]uint8] → Lines.
func stripTypeArgs(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// goCmd runs the go command in dir and returns its stdout.
func goCmd(t *testing.T, dir string, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return string(out)
}
