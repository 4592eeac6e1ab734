package driver_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/driver"
)

// compileAllocs is the number of Go allocations one default compile of
// each paper program makes; TestCompileAllocs allows 5 % above it.
var compileAllocs = map[string]float64{
	"typereg":   4986,
	"FieldList": 4644,
	"takl":      1473,
	"destroy":   2213,
}

// TestCompileAllocs is the allocation ceiling for compiles: the
// optimizer and the analyses build their per-register tables as dense
// slices, and a map or a per-instruction set creeping back in shows
// here first.
func TestCompileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, name := range bench.Names() {
		src := bench.Sources()[name]
		got := testing.AllocsPerRun(5, func() {
			if _, err := driver.Compile(name+".m3", src, driver.NewOptions()); err != nil {
				t.Fatal(err)
			}
		})
		if ceiling := compileAllocs[name] * 1.05; got > ceiling {
			t.Errorf("%s: %.0f allocations per compile, ceiling %.0f", name, got, ceiling)
		}
	}
}
