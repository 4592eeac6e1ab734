// Package lint implements the project's custom static checks, built on
// the standard library's go/parser and go/types only (the repo vendors
// nothing). The one check so far: range-over-map iteration in compiler
// and table-emission packages.
//
// Go map iteration order is deliberately randomized, so a range over a
// map anywhere on the path from source text to emitted code or tables
// can make two compiles of the same program differ — the
// nondeterminism bug class the differential harness exists to catch.
// The deterministic idioms are: iterate a slice, or collect the keys
// and sort them first.
//
// Intentional, order-insensitive map loops (pure set membership,
// commutative folds) are suppressed with a trailing or preceding
// comment:
//
//	// gclint:ordered <why the iteration order cannot matter>
//
// The reason is mandatory; a bare marker still counts as a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/printer"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one diagnosed range-over-map statement.
type Finding struct {
	Pos  token.Position // the range statement
	Expr string         // the ranged expression, as written
	Type string         // its map type
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: range over map %s (type %s) — iterate a sorted slice instead, or justify with // gclint:ordered <reason>",
		f.Pos, f.Expr, f.Type)
}

// DefaultPackages is the determinism-critical path from IR to code and
// tables: the optimizer, the analyses and register allocator it feeds,
// codegen and the table encoder.
var DefaultPackages = []string{"internal/opt", "internal/analysis", "internal/regalloc", "internal/codegen", "internal/gctab"}

// Check typechecks the named packages (directories relative to the
// repo root, e.g. "internal/opt") and returns every unsuppressed
// range-over-map in them. Module-local imports are resolved by
// typechecking the imported directory from source; standard-library
// imports go through the compiler's source importer.
func Check(root string, pkgs []string) ([]Finding, error) {
	module, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	im := &srcImporter{
		fset:   fset,
		root:   root,
		module: module,
		cache:  make(map[string]*types.Package),
	}
	if std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom); ok {
		im.std = std
	}
	var findings []Finding
	for _, rel := range pkgs {
		fs, info, err := im.checkTarget(rel)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", rel, err)
		}
		for _, f := range fs {
			findings = append(findings, inspectFile(fset, f, info)...)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return findings, nil
}

// modulePath reads the module line of the repo's go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s/go.mod: no module line", root)
}

// srcImporter resolves imports for the typechecker: module-local paths
// recursively from the repo's own source, everything else via the
// standard source importer (nil-tolerant: unresolvable packages come
// back empty, which only costs precision on their symbols).
type srcImporter struct {
	fset   *token.FileSet
	root   string
	module string
	std    types.ImporterFrom
	cache  map[string]*types.Package
}

func (im *srcImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.cache[path]; ok {
		return p, nil
	}
	if path == im.module || strings.HasPrefix(path, im.module+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, im.module), "/")
		files, err := im.parseDir(filepath.Join(im.root, filepath.FromSlash(rel)), 0)
		if err != nil {
			return nil, err
		}
		conf := types.Config{Importer: im}
		pkg, err := conf.Check(path, im.fset, files, nil)
		if err != nil {
			return nil, err
		}
		im.cache[path] = pkg
		return pkg, nil
	}
	if im.std == nil {
		return nil, fmt.Errorf("no importer for %q", path)
	}
	pkg, err := im.std.ImportFrom(path, im.root, 0)
	if err != nil {
		return nil, err
	}
	im.cache[path] = pkg
	return pkg, nil
}

// checkTarget typechecks one target package with full expression type
// information and comments retained (for suppression markers).
func (im *srcImporter) checkTarget(rel string) ([]*ast.File, *types.Info, error) {
	files, err := im.parseDir(filepath.Join(im.root, filepath.FromSlash(rel)), parser.ParseComments)
	if err != nil {
		return nil, nil, err
	}
	info := &types.Info{Types: make(map[ast.Expr]types.TypeAndValue)}
	conf := types.Config{Importer: im}
	if _, err := conf.Check(im.module+"/"+filepath.ToSlash(rel), im.fset, files, info); err != nil {
		return nil, nil, err
	}
	return files, info, nil
}

// parseDir parses every non-test .go file of one directory, sorted for
// deterministic file order.
func (im *srcImporter) parseDir(dir string, mode parser.Mode) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("%s: no Go files", dir)
	}
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(im.fset, filepath.Join(dir, n), nil, mode)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// inspectFile walks one file's range statements and reports map
// iterations without a justification marker.
func inspectFile(fset *token.FileSet, f *ast.File, info *types.Info) []Finding {
	suppressed := suppressedLines(fset, f)
	var out []Finding
	ast.Inspect(f, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := info.Types[rs.X]
		if !ok || tv.Type == nil {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		pos := fset.Position(rs.Pos())
		if suppressed[pos.Line] || suppressed[pos.Line-1] {
			return true
		}
		var sb strings.Builder
		if err := formatNode(&sb, rs.X); err != nil {
			sb.Reset()
			sb.WriteString("<expr>")
		}
		out = append(out, Finding{Pos: pos, Expr: sb.String(), Type: tv.Type.String()})
		return true
	})
	return out
}

// formatNode prints an expression as source text.
func formatNode(w io.Writer, n ast.Node) error {
	return printer.Fprint(w, token.NewFileSet(), n)
}

// suppressedLines maps line numbers carrying a justified
// "gclint:ordered" marker. A bare marker (no reason) does not count.
func suppressedLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*")
			idx := strings.Index(text, "gclint:ordered")
			if idx < 0 {
				continue
			}
			reason := strings.TrimSpace(strings.TrimSuffix(text[idx+len("gclint:ordered"):], "*/"))
			if reason == "" {
				continue
			}
			lines[fset.Position(c.Pos()).Line] = true
		}
	}
	return lines
}
