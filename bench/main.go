// Command bench is the repository's benchmark: four long workloads (one
// closed-loop served client, two campaign evaluations, one training loop)
// measured end to end with tracing off, and traced outside-in, layer by
// layer, in separate runs. README.md in this directory has the tables.
//
//	go run ./bench                       all four workloads, untraced then traced, one JSON document
//	go run ./bench -workload serve-lone  one workload in this process; the last line is its result
//	go run ./bench -workload serve-lone -trace 1
//	go run ./bench -repeat 10            two interleaved sets of 10 runs, gaps against the bounds
//	go run ./bench -update-golden        rewrite bench/golden.json for the active kernel set
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"

	"repro/internal/nn/kernel"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this one workload in this process ("+strings.Join(workloadNames, ", ")+"); empty runs all four, a fresh process each")
	seed := fs.Int64("seed", 1, "workload seed: sets ScaleSpec.Seed, the program sees only generated inputs")
	seconds := fs.Int("seconds", runSeconds, "the measured window; fixed, accepted only because the benchmark driver passes it")
	trace := fs.String("trace", "", "0: end-to-end run, tracing off; 1: traced per-layer run; empty: 0 for one workload, both for all")
	smoke := fs.Bool("smoke", false, "tiny scale, one set-up, one cycle per workload")
	repeat := fs.Int("repeat", 0, "run two interleaved sets of N end-to-end runs (seeds seed..seed+N-1) and hold their median gaps and spreads against the bounds")
	outDir := fs.String("out", "bench/out", "directory for traced runs' span files")
	updateGolden := fs.Bool("update-golden", false, "recompute the seed-1 campaign digests and rewrite bench/golden.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *trace != "" && *trace != "0" && *trace != "1" {
		fmt.Fprintf(stderr, "bench: -trace %q: want 0 or 1\n", *trace)
		return 2
	}
	// The window is the benchmark's, not the caller's: two documents measured
	// over different windows would not be comparable.
	if *seconds != runSeconds {
		fmt.Fprintf(stderr, "bench: -seconds %d: the measured window is fixed at %d\n", *seconds, runSeconds)
		return 2
	}
	c := config{workload: *workload, seed: *seed, smoke: *smoke, outDir: *outDir, log: stderr}

	var err error
	switch {
	case *updateGolden:
		err = writeGolden(c, "bench/golden.json")
	case *repeat > 0:
		var ok bool
		if ok, err = runRepeat(c, *repeat, stdout); err == nil && !ok {
			return 1
		}
	case c.workload != "":
		err = runOne(c, *trace == "1", stdout)
	default:
		err = runAll(c, *trace, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// runOne runs one workload in this process and prints its result as the last
// line of standard output.
func runOne(c config, traced bool, stdout io.Writer) error {
	runner := runUntraced
	if traced {
		runner = runTraced
	}
	res, err := runner(c)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// child re-executes this binary for one workload: live heap left by one
// workload is GC ballast for the next, so each gets a fresh process.
func child(c config, name string, traced bool) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{"-workload", name, "-seed", fmt.Sprint(c.seed), "-out", c.outDir}
	if traced {
		args = append(args, "-trace", "1")
	}
	if c.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = c.log
	out, err := cmd.Output() // waits for the child to end
	if err != nil {
		return result{}, fmt.Errorf("%s (trace %v): %w", name, traced, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("%s (trace %v): result line: %w", name, traced, err)
	}
	return res, nil
}

// environment is the block a reader needs to compare two documents.
type environment struct {
	Host       string  `json:"host"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Kernel     string  `json:"kernel"`
	Features   string  `json:"cpu_features"`
	Seed       int64   `json:"seed"`
	StealShare float64 `json:"runtime.steal_share"`
	Disturbed  bool    `json:"disturbed"` // more than 2% of CPU time stolen: rerun before trusting a time
}

func describeEnvironment(c config, steal float64) environment {
	host, _ := os.Hostname() // "" is a fine answer for a field that only labels
	return environment{
		Host: host, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: commit(), Kernel: kernel.Name(), Features: kernel.Features(),
		Seed: c.seed, StealShare: steal, Disturbed: steal > 0.02,
	}
}

// commit is the revision the binary was built from: the build's VCS stamp,
// or, because `go run` does not stamp, git's HEAD of the working directory. A
// checkout that is not a git repository has none.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// runAll runs the four workloads untraced, then the four traced runs, each
// in a fresh process, and prints one document.
func runAll(c config, trace string, stdout io.Writer) error {
	doc := struct {
		Env      environment       `json:"env"`
		EndToEnd map[string]result `json:"end_to_end,omitempty"`
		PerLayer map[string]result `json:"per_layer,omitempty"`
	}{EndToEnd: map[string]result{}, PerLayer: map[string]result{}}
	cpu0 := readCPUTimes()
	for _, traced := range []bool{false, true} {
		if trace != "" && (trace == "1") != traced {
			continue
		}
		for _, name := range workloadNames {
			res, err := child(c, name, traced)
			if err != nil {
				return err
			}
			if traced {
				doc.PerLayer[name] = res
			} else {
				doc.EndToEnd[name] = res
			}
		}
	}
	doc.Env = describeEnvironment(c, stealShare(cpu0, readCPUTimes()))
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
