package phirel_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// testSeams are the exported names under internal/ that only tests use, on
// purpose: each lets a test in another package substitute a fake. An entry
// fails the rule as stale once it is gone, has a program caller or has no
// test caller.
var testSeams = []string{
	"bench.Unregister",   // drops a test kernel from the registry
	"bench.Runners.Idle", // counts the free runners a fake sweep leaves
}

// stdlibMethods are method names the standard library calls through an
// interface without naming them (fmt.Stringer, error, json.Marshaler, io,
// sort.Interface, http.Handler, errors.Unwrap). A method of that name needs
// no caller in the tree.
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"Read": true, "Write": true, "Close": true, "Len": true, "Less": true,
	"Swap": true, "ServeHTTP": true, "Unwrap": true,
}

// TestLibraryHasAProgram holds internal/ to the code a program runs. Every
// exported name a non-test file under internal/ declares (function, type,
// variable, constant, method) must occur in non-test Go more often than it
// is declared there: once somewhere other than its declarations, in a
// program, a library path a program runs or the benchmark module. It is a
// comment-stripped match of identifier tokens, so two names that clash
// count as one and can make each other look used.
func TestLibraryHasAProgram(t *testing.T) {
	prog, test := map[string]int{}, map[string]int{} // identifier tokens
	decls := map[string][]string{}                   // name -> its "pkg.Name" or "pkg.Type.Method" declarations
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || moduleCopy(path)) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		isTest := strings.HasSuffix(path, "_test.go")
		counts := prog
		if isTest {
			counts = test
		}
		var s scanner.Scanner
		s.Init(fset.AddFile(path, -1, len(src)), src, nil, 0)
		for {
			_, tok, lit := s.Scan()
			if tok == token.EOF {
				break
			}
			if tok == token.IDENT {
				counts[lit]++
			}
		}
		if isTest || !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, key := range exported(f) {
			name := key[strings.LastIndexByte(key, '.')+1:]
			decls[name] = append(decls[name], key)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	seam := map[string]bool{}
	for _, key := range testSeams {
		seam[key] = true
		name := key[strings.LastIndexByte(key, '.')+1:]
		switch {
		case !slices.Contains(decls[name], key):
			t.Errorf("test seam %s is declared nowhere under internal/: drop it from testSeams", key)
		case prog[name] > len(decls[name]):
			t.Errorf("test seam %s has a program caller: drop it from testSeams", key)
		case test[name] == 0:
			t.Errorf("test seam %s has no test caller: delete it", key)
		}
	}
	var unused []string
	checked, exempt := 0, 0
	for name, keys := range decls {
		for _, key := range keys {
			checked++
			switch {
			case strings.Count(key, ".") == 2 && stdlibMethods[name]:
				exempt++
			case !seam[key] && prog[name] <= len(keys):
				unused = append(unused, key)
			}
		}
	}
	slices.Sort(unused)
	t.Logf("exported names checked: %d (%d stdlib interface methods exempt, %d test seams)", checked, exempt, len(testSeams))
	if len(unused) > 0 {
		t.Errorf("%d exported names under internal/ have no caller outside tests; delete them or move them into a test file:\n\t%s",
			len(unused), strings.Join(unused, "\n\t"))
	}
}

// exported lists the exported names f declares as "pkg.Name", and its
// methods with exported names as "pkg.Type.Method".
func exported(f *ast.File) []string {
	pkg := f.Name.Name
	var keys []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				keys = append(keys, pkg+"."+d.Name.Name)
			} else {
				keys = append(keys, pkg+"."+receiver(d.Recv.List[0].Type)+"."+d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						keys = append(keys, pkg+"."+s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							keys = append(keys, pkg+"."+n.Name)
						}
					}
				}
			}
		}
	}
	return keys
}

// receiver names a method's receiver type: T for T, *T, T[P] and *T[P].
func receiver(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// moduleCopy reports whether dir holds a copy of this module (a go.mod of
// module phirel, as under make pairs' work directory): its names are not
// callers.
func moduleCopy(dir string) bool {
	mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	return err == nil && bytes.HasPrefix(mod, []byte("module phirel\n"))
}
