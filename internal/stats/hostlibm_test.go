package stats

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// exactMath are the functions of package math whose result is exact or
// correctly rounded, so the same on every GOARCH and CPU: a kernel, the
// RNG, the device model and the campaign engines may call these and no
// other. Exp, Log, Pow and the rest are assembly on some targets and pick
// a path by CPUID on others; Exp and Log have repository copies here.
var exactMath = map[string]bool{
	"Sqrt": true, "Abs": true, "Max": true, "Min": true, "Mod": true, "Copysign": true,
	"Ldexp": true, "Frexp": true, "Floor": true, "Ceil": true, "Trunc": true,
	"Float64bits": true, "Float64frombits": true, "Float32bits": true, "Float32frombits": true,
	"Inf": true, "NaN": true, "IsNaN": true, "IsInf": true, "Signbit": true,
}

// mathConst matches the names of package math's constants.
var mathConst = regexp.MustCompile(`^((Max|Min)(Int|Uint|Float)(8|16|32|64)?|SmallestNonzeroFloat(32|64)|E|Pi|Phi|Sqrt2|SqrtE|SqrtPi|SqrtPhi|Ln2|Log2E|Ln10|Log10E)$`)

// gatedDirs are the packages whose results land in campaign artifacts,
// relative to this one: every kernel under bench, the RNG, the device
// model and the two campaign engines.
var gatedDirs = []string{"../bench", ".", "../phi", "../beam", "../core"}

// No package whose numbers reach an artifact calls a function of package
// math whose bits can differ between hosts. Test files may: they compare
// against the host's math.
func TestNoHostLibm(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	for _, dir := range gatedDirs {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files++
			for _, name := range mathNames(f) {
				ast.Inspect(f, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == name && !exactMath[sel.Sel.Name] && !mathConst.MatchString(sel.Sel.Name) {
						t.Errorf("%s: math.%s is not correctly rounded on every host; use an exact function or a repository copy (stats.Exp, stats.Log)",
							fset.Position(sel.Pos()), sel.Sel.Name)
					}
					return true
				})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if files < 20 {
		t.Fatalf("parsed %d files, want the kernels, stats, phi, beam and core", files)
	}
}

// mathNames returns the names under which f imports package math.
func mathNames(f *ast.File) []string {
	var names []string
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "math" {
			name := "math"
			if imp.Name != nil {
				name = imp.Name.Name
			}
			names = append(names, name)
		}
	}
	return names
}
