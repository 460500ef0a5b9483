package egwalker_test

// The public API is pinned by golden files: api/<package>.txt holds every
// exported declaration of a public package, signatures only, so a change
// to the surface shows up in review as a diff of those files. Regenerate
// them with
//
//	go test -run TestExportedAPI -update-golden
//
// when the change is intentional.

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/doc"
	"go/format"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// apiPackages are the public packages, by directory, and their golden files.
var apiPackages = []struct{ dir, golden string }{
	{".", "api/egwalker.txt"},
	{"netsync", "api/netsync.txt"},
	{"store", "api/store.txt"},
	{"cluster", "api/cluster.txt"},
}

func TestExportedAPI(t *testing.T) {
	for _, p := range apiPackages {
		got, err := renderAPI(p.dir)
		if err != nil {
			t.Fatal(err)
		}
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(p.golden), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p.golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(p.golden)
		if err != nil {
			t.Fatalf("missing %s (run with -update-golden to create): %v", p.golden, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("the exported API of %s differs from %s (- golden, + source); "+
				"if the change is intentional, regenerate with -update-golden:\n%s",
				p.dir, p.golden, lineDiff(string(want), string(got)))
		}
	}
}

// renderAPI prints the exported declarations of the package in dir, in
// go/doc order — constants, variables, functions, then each type with its
// constants, variables, constructors and methods, each group sorted by
// name — without comments or function bodies.
func renderAPI(dir string) ([]byte, error) {
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := doc.NewFromFiles(fset, files, path.Join("egwalker", dir))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "package %s\n", pkg.Name)
	// decl prints one declaration, with a blank line before it when it
	// is at the top level. Comments go (go/printer prints only a file's)
	// and so do the blank lines they leave behind; gofmt then aligns what
	// is left of a struct as one block.
	decl := func(indent string, node ast.Node) {
		if fn, ok := node.(*ast.FuncDecl); ok {
			node = &ast.FuncDecl{Recv: fn.Recv, Name: fn.Name, Type: fn.Type}
		}
		var b bytes.Buffer
		if err == nil {
			err = printer.Fprint(&b, fset, node)
		}
		var src []byte
		for _, line := range bytes.Split(b.Bytes(), []byte("\n")) {
			if len(bytes.TrimSpace(line)) > 0 {
				src = append(append(src, line...), '\n')
			}
		}
		if err == nil {
			src, err = format.Source(src)
		}
		if indent == "" {
			buf.WriteString("\n")
		}
		for _, line := range strings.SplitAfter(string(src), "\n") {
			if line != "" {
				buf.WriteString(indent + line)
			}
		}
	}
	for _, v := range append(pkg.Consts, pkg.Vars...) {
		decl("", v.Decl)
	}
	for _, f := range pkg.Funcs {
		decl("", f.Decl)
	}
	for _, typ := range pkg.Types {
		decl("", typ.Decl)
		for _, v := range append(typ.Consts, typ.Vars...) {
			decl("\t", v.Decl)
		}
		for _, f := range append(typ.Funcs, typ.Methods...) {
			decl("\t", f.Decl)
		}
	}
	return buf.Bytes(), err
}

// lineDiff lists the lines that differ between want and got, marked - and
// + and numbered by their line in the file they come from, after a
// longest-common-subsequence match of the rest.
func lineDiff(want, got string) string {
	a, b := strings.Split(want, "\n"), strings.Split(got, "\n")
	// lcs[i][j] is the length of the longest common subsequence of a[i:]
	// and b[j:].
	lcs := make([][]int, len(a)+1)
	for i := range lcs {
		lcs[i] = make([]int, len(b)+1)
	}
	for i := len(a) - 1; i >= 0; i-- {
		for j := len(b) - 1; j >= 0; j-- {
			if a[i] == b[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else {
				lcs[i][j] = max(lcs[i+1][j], lcs[i][j+1])
			}
		}
	}
	var out strings.Builder
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case i < len(a) && j < len(b) && a[i] == b[j]:
			i, j = i+1, j+1
		case i < len(a) && (j == len(b) || lcs[i+1][j] >= lcs[i][j+1]):
			fmt.Fprintf(&out, "-%4d: %s\n", i+1, a[i])
			i++
		default:
			fmt.Fprintf(&out, "+%4d: %s\n", j+1, b[j])
			j++
		}
	}
	return out.String()
}
