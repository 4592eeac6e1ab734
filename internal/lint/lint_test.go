package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree lays out a throwaway module for Check to scan.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestCheckFlagsRangeOverMap(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module testmod\n\ngo 1.21\n",
		"pkg/pkg.go": `package pkg

func Sum(m map[string]int, s []int) int {
	t := 0
	for _, v := range m { // flagged
		t += v
	}
	for _, v := range s { // slices are fine
		t += v
	}
	return t
}
`,
	})
	fs, err := Check(root, []string{"pkg"})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 {
		t.Fatalf("findings = %d, want 1: %v", len(fs), fs)
	}
	if fs[0].Expr != "m" || !strings.Contains(fs[0].Type, "map[string]int") {
		t.Fatalf("unexpected finding %+v", fs[0])
	}
	if fs[0].Pos.Line != 5 {
		t.Fatalf("finding at line %d, want 5", fs[0].Pos.Line)
	}
}

// A justified marker on the same or the preceding line suppresses the
// finding; a bare marker with no reason does not.
func TestCheckSuppression(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module testmod\n\ngo 1.21\n",
		"pkg/pkg.go": `package pkg

func F(m map[int]bool) int {
	n := 0
	for k := range m { // gclint:ordered commutative sum
		n += k
	}
	// gclint:ordered marker on the preceding line works too
	for k := range m {
		n += k
	}
	for k := range m { // gclint:ordered
		n -= k // bare marker: no reason, still flagged
	}
	return n
}
`,
	})
	fs, err := Check(root, []string{"pkg"})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 {
		t.Fatalf("findings = %d, want 1 (only the reasonless marker): %v", len(fs), fs)
	}
	if fs[0].Pos.Line != 12 {
		t.Fatalf("finding at line %d, want 12", fs[0].Pos.Line)
	}
}

// The map type must be visible through a module-local import: the
// source importer typechecks the imported package from the repo tree.
func TestCheckResolvesLocalImports(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module testmod\n\ngo 1.21\n",
		"defs/defs.go": `package defs

type Table map[string]int
`,
		"pkg/pkg.go": `package pkg

import "testmod/defs"

func Keys(t defs.Table) []string {
	var out []string
	for k := range t {
		out = append(out, k)
	}
	return out
}
`,
	})
	fs, err := Check(root, []string{"pkg"})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 {
		t.Fatalf("findings = %d, want 1 (named map type through an import): %v", len(fs), fs)
	}
}

// A function split across two files by build constraints is declared
// once per build, so the loader must read only the file the go command
// would compile here, not both.
func TestCheckHonoursBuildConstraints(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module testmod\n\ngo 1.21\n",
		"pkg/linux.go": `//go:build linux

package pkg

func words() int { return 1 }
`,
		"pkg/other.go": `//go:build !linux

package pkg

func words() int { return 2 }
`,
		"pkg/pkg.go": `package pkg

func Twice() int { return 2 * words() }
`,
	})
	fs, err := Check(root, []string{"pkg"})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Fatalf("findings = %v, want none", fs)
	}
}

// The repository's own determinism-critical packages must stay clean:
// this is the same scan CI runs, kept close to the checker so a new
// range-over-map in the compiler fails tests immediately.
func TestRepositoryIsClean(t *testing.T) {
	fs, err := Check("../..", DefaultPackages)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Error(f)
	}
}
