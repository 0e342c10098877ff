// Command benchmark drives a live DCDB cluster — one collectagent and
// two dcdbnode processes built from this checkout — with generated
// MQTT traffic and queries, checks every answer, and prints every
// metric by name. See README.md.
//
// One workload, as the acceptance driver runs it:
//
//	bash benchmark/run.sh --workload fanin_steady --seed 1 --seconds 10 --trace 0
//
// Every workload, for a human:
//
//	bash benchmark/run.sh                 # end-to-end metrics of all four
//	bash benchmark/run.sh -trace 1        # per-layer metrics and span files
//	bash benchmark/run.sh -repeat 3       # A/A: spread of each metric against its bound
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
)

func main() {
	name := flag.String("workload", "", "run this workload only and print one JSON result line (default: all)")
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	seconds := flag.Float64("seconds", defaultSeconds, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1: the traced run (per-layer metrics, span files under benchmark/out); 0: the end-to-end metrics")
	repeat := flag.Int("repeat", 1, "all workloads: run this many full sets and compare them (A/A)")
	reverse := flag.Bool("reverse", false, "all workloads: run them in reverse order")
	corrupt := flag.Bool("corrupt", false, "corrupt one expectation before verification; the run must fail (proves the verifier)")
	flag.Parse()

	root, err := findRoot(".")
	if err != nil {
		fatal(err)
	}
	build := filepath.Join(root, ".bench_build")
	h := &harness{
		root:   root,
		binDir: filepath.Join(build, "bin"),
		// One work directory per invocation: two benchmarks in one
		// checkout must not delete each other's clusters.
		workDir: filepath.Join(build, "work", strconv.Itoa(os.Getpid())),
		outDir:  filepath.Join(root, "benchmark", "out"),
		seed:    *seed,
		seconds: *seconds,
		corrupt: *corrupt,
	}

	// Children die with the harness on every exit path: fatal() and the
	// signal handler kill them explicitly, and each child asks the
	// kernel for SIGKILL should the harness vanish without running
	// either. SIGPIPE is the reader of the result line going away.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGPIPE)
	go func() {
		<-sig
		killAllProcs()
		os.RemoveAll(h.workDir)
		os.Exit(130)
	}()

	if err := buildBinaries(root, h.binDir); err != nil {
		fatal(err)
	}
	var ok bool
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		ok, err = h.driverRun(w, *trace == 1)
	} else {
		ok, err = h.allWorkloads(*trace == 1, *repeat, *reverse)
	}
	killAllProcs()
	os.RemoveAll(h.workDir)
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

// fatal reports a run that could not be completed: no result line,
// exit code 2.
func fatal(err error) {
	killAllProcs()
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
