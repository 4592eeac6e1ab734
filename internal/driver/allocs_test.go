package driver_test

import (
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/driver"
	"repro/internal/vmachine"
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

// TestNewMachineAllocs: a mapped memory image is not Go heap, so a
// machine under DefaultConfig costs the Go allocator only its own
// structures, not the 12.6 MB image a make would zero. Race and
// non-Linux builds make the image on purpose and are skipped.
func TestNewMachineAllocs(t *testing.T) {
	if raceEnabled || runtime.GOOS != "linux" {
		t.Skip("this build makes the memory image on the Go heap")
	}
	c, err := driver.Compile("takl.m3", bench.Sources()["takl"], driver.NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The first machine builds the program's shared dispatch table.
	m, _, err := c.NewMachine(vmachine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, _, err = c.NewMachine(vmachine.DefaultConfig())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("NewMachine allocated %d bytes of Go heap, ceiling %d", got, 64<<10)
	}
}
