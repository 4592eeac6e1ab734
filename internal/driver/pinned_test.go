package driver_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/difftest"
	"repro/internal/driver"
	"repro/internal/progen"
)

// pinnedSources is the pinned corpus: the four paper programs plus
// eight seeds of each program generator.
func pinnedSources() (names, srcs []string) {
	for _, name := range bench.Names() {
		names = append(names, name)
		srcs = append(srcs, bench.Sources()[name])
	}
	for seed := int64(1); seed <= 8; seed++ {
		names = append(names, fmt.Sprintf("difftest%d", seed), fmt.Sprintf("progen%d", seed))
		srcs = append(srcs, difftest.Generate(seed), progen.Program(seed))
	}
	return names, srcs
}

// pinnedOptions are the option sets whose output is pinned: the
// default, the §6.2 baseline without gc support (liveness without the
// keep-alive rules), and path splitting instead of path variables.
func pinnedOptions() (names []string, opts []driver.Options) {
	nogc := driver.NewOptions()
	nogc.GCSupport = false
	split := driver.NewOptions()
	split.PathSplitting = true
	return []string{"default", "nogc", "split"}, []driver.Options{driver.NewOptions(), nogc, split}
}

// TestCompileOutputPinned compiles the pinned corpus under each pinned
// option set and compares code bytes, table bytes and an FNV-64 of the
// object file with testdata/compile_pinned.txt. Optimizer and liveness
// refactors must leave every line unchanged; a change that means to
// alter the generated code replaces the lines the failure prints.
func TestCompileOutputPinned(t *testing.T) {
	path := filepath.Join("testdata", "compile_pinned.txt")
	var got strings.Builder
	optNames, optSets := pinnedOptions()
	names, srcs := pinnedSources()
	for oi, opts := range optSets {
		for i, src := range srcs {
			c, err := driver.Compile(names[i]+".m3", src, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", optNames[oi], names[i], err)
			}
			var obj bytes.Buffer
			if err := c.WriteObject(&obj); err != nil {
				t.Fatalf("%s/%s: write object: %v", optNames[oi], names[i], err)
			}
			h := fnv.New64a()
			h.Write(obj.Bytes())
			table := 0
			if c.Encoded != nil {
				table = c.Encoded.Size()
			}
			fmt.Fprintf(&got, "%s %s code=%d table=%d obj=%016x\n",
				optNames[oi], names[i], c.Prog.CodeSize(), table, h.Sum64())
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v; file contents:\n%s", err, got.String())
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	gotLines := strings.Split(strings.TrimSuffix(got.String(), "\n"), "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("%d pinned lines, %d compiled; replacement file:\n%s", len(wantLines), len(gotLines), got.String())
	}
	var diff []string
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			diff = append(diff, fmt.Sprintf("-%s\n+%s", wantLines[i], gotLines[i]))
		}
	}
	if len(diff) > 0 {
		t.Errorf("compiled output differs from %s on %d of %d compiles; replacement lines:\n%s",
			path, len(diff), len(gotLines), strings.Join(diff, "\n"))
	}
}
