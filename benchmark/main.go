// Command benchmark is the repository's one benchmark: seven named
// workloads over the whole stack (compiler → tables → vmachine → collectors
// → gcserve), end-to-end metrics a user feels, and a traced run that splits
// each operation into per-layer self times. See README.md.
//
//	bash benchmark/run.sh                      every workload, untraced then traced, one process each
//	bash benchmark/run.sh --workload gc.destroy --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --selfcheck          A/A: two sets on one build must agree within the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	var (
		name      = flag.String("workload", "", "run this one workload in this process and print its result as the last line (the driver's contract); empty runs all of them")
		seed      = flag.Int64("seed", defaultSeed, "seed the generated inputs derive from")
		corpus    = flag.Int64("corpus-seed", defaultCorpusSeed, "seed of compile.corpus's generated programs; --seed only shuffles their order")
		seconds   = flag.Float64("seconds", 10, "how long one run measures")
		trace     = flag.Int("trace", 0, "1: traced run, reporting the per-layer metrics and writing out/trace-<workload>.json")
		quick     = flag.Bool("quick", false, "smoke-test sizes: same programs and outputs, a fraction of the work")
		selfcheck = flag.Bool("selfcheck", false, "run two sets on this build, alternating order, and fail if they differ by more than the bounds")
		runs      = flag.Int("runs", 3, "with --selfcheck: runs per workload and side")
		out       = flag.String("out", "out/results.json", "without --workload: where the combined results are written")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	o := options{seed: *seed, corpusSeed: *corpus, seconds: *seconds, traced: *trace != 0, quick: *quick, outDir: "out", report: os.Stdout}
	switch {
	case *selfcheck:
		if err := selfCheck(o, *runs); err != nil {
			fatal(err)
		}
	case *name == "":
		if err := runAll(o, *out); err != nil {
			fatal(err)
		}
	default:
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		res, err := runWorkload(w, o)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runChild measures one workload in a process of its own — peak RSS is per
// process — and returns the result it printed last. The child's tables pass
// through to standard output.
func runChild(w *workload, o options) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if o.traced {
		trace = "1"
	}
	args := []string{"--workload", w.name, "--seed", fmt.Sprint(o.seed), "--corpus-seed", fmt.Sprint(o.corpusSeed), "--seconds", fmt.Sprint(o.seconds), "--trace", trace}
	if o.quick {
		args = append(args, "--quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output() // waits for the child to end
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		return nil, err
	}
	text := strings.TrimRight(string(stdout), "\n")
	cut := strings.LastIndexByte(text, '\n') + 1
	fmt.Fprint(o.report, text[:cut])
	res := &result{}
	if jerr := json.Unmarshal([]byte(text[cut:]), res); jerr != nil {
		return nil, fmt.Errorf("%s: no result line (%v): %v", w.name, err, jerr)
	}
	return res, nil
}

// hostHeader says where a set of numbers was taken.
type hostHeader struct {
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Platform   string `json:"platform"`
	Commit     string `json:"commit"`
}

func host() hostHeader {
	commit := "unknown" // the driver's checkout is not a git repository
	if rev, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(rev))
	}
	return hostHeader{
		NumCPU: runtime.NumCPU(), GoMaxProcs: min(runtime.NumCPU(), 2),
		Go: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH, Commit: commit,
	}
}

// workloadRow is one workload's row in the results file.
type workloadRow struct {
	Name      string            `json:"name"`
	Why       string            `json:"why"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
}

// runAll measures every workload, untraced then traced, and writes the rows.
func runAll(o options, outPath string) error {
	file := struct {
		Host      hostHeader    `json:"host"`
		Seed      int64         `json:"seed"`
		Corpus    int64         `json:"corpus_seed"`
		Seconds   float64       `json:"seconds"`
		Workloads []workloadRow `json:"workloads"`
	}{Host: host(), Seed: o.seed, Corpus: o.corpusSeed, Seconds: o.seconds}
	fmt.Fprintf(o.report, "host: %+v  seed %d  corpus seed %d (hold-out %d)  %.4g s per run\n", file.Host, o.seed, o.corpusSeed, int64(holdoutCorpusSeed), o.seconds)
	var failed int64
	for i := range workloads {
		w := &workloads[i]
		row := workloadRow{Name: w.name, Why: w.why}
		for _, traced := range []bool{false, true} {
			o.traced = traced
			res, err := runChild(w, o)
			if err != nil {
				return err
			}
			row.Attempted += res.Attempted
			row.Failed += res.Failed
			if traced {
				row.PerLayer = res.Metrics
			} else {
				row.EndToEnd = res.Metrics
			}
		}
		failed += row.Failed
		file.Workloads = append(file.Workloads, row)
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(o.report, "\nresults: %s\n", outPath)
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}
