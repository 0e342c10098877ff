// Command dcdbbench regenerates every table and figure of the paper's
// evaluation (§6) and case studies (§7) from the experiment drivers in
// internal/bench, printing paper-style tables and series.
//
// Usage:
//
//	dcdbbench -exp all
//	dcdbbench -exp table1|fig4|fig5|fig6|fig7|fig8|fig9|fig10|ablations|measured
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"dcdb/internal/bench"
	"dcdb/internal/sim/arch"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run carries out one command line (without the program name), writing
// the tables of the selected experiments to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("dcdbbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment to run (table1, fig4..fig10, ablations, measured, all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	selected := func(name string) bool { return *exp == "all" || *exp == name }
	any := false
	if selected("table1") {
		any = true
		fmt.Fprintln(w, "== Table 1: production Pusher configurations and HPL overhead ==")
		bench.RenderTable1(w, bench.Table1())
		fmt.Fprintln(w)
	}
	if selected("fig4") {
		any = true
		fmt.Fprintln(w, "== Figure 4: Pusher overhead on CORAL-2 benchmarks (SuperMUC-NG, weak scaling) ==")
		bench.RenderFig4(w, bench.Fig4())
		fmt.Fprintln(w)
	}
	if selected("fig5") {
		any = true
		fmt.Fprintln(w, "== Figure 5: overhead heatmaps vs HPL ==")
		for _, m := range arch.All {
			bench.RenderFig5(w, bench.Fig5(m))
			fmt.Fprintln(w)
		}
	}
	if selected("fig6") {
		any = true
		fmt.Fprintln(w, "== Figure 6: Pusher CPU load and memory usage (Skylake) ==")
		bench.RenderFig6(w, bench.Fig6())
		fmt.Fprintln(w)
	}
	if selected("fig7") {
		any = true
		fmt.Fprintln(w, "== Figure 7: CPU load scaling and Equation 1 linear model ==")
		bench.RenderFig7(w, bench.Fig7())
		fmt.Fprintln(w)
	}
	if selected("fig8") {
		any = true
		fmt.Fprintln(w, "== Figure 8: Collect Agent CPU load ==")
		bench.RenderFig8(w, bench.Fig8())
		perSec, ns := bench.MeasuredAgentThroughput(250 * time.Millisecond)
		fmt.Fprintf(w, "\nmeasured on this machine: %.0f readings/s single-threaded (%.0f ns/reading)\n\n", perSec, ns)
	}
	if selected("fig9") {
		any = true
		fmt.Fprintln(w, "== Figure 9 / Use case 1: efficiency of heat removal (CooLMUC-3) ==")
		res, err := bench.Fig9(24, time.Minute)
		if err != nil {
			return err
		}
		bench.RenderFig9(w, res)
		fmt.Fprintln(w)
	}
	if selected("fig10") {
		any = true
		fmt.Fprintln(w, "== Figure 10 / Use case 2: application characterization (instructions per Watt) ==")
		bench.RenderFig10(w, bench.Fig10(240))
		fmt.Fprintln(w)
	}
	if selected("ablations") {
		any = true
		fmt.Fprintln(w, "== Ablation: burst vs continuous forwarding (100 sensors, 30 intervals/flush) ==")
		bench.RenderBurstAblation(w, bench.RunBurstAblation(100, 30))
		fmt.Fprintln(w, "\n== Ablation: ring placement keyed on the SID prefix vs the full SID (4 nodes, 12 subtrees x 32 sensors) ==")
		pa, err := bench.RunPartitionerAblation(4, 12, 32)
		if err != nil {
			return err
		}
		bench.RenderPartitionerAblation(w, pa)
		fmt.Fprintln(w, "\n== Ablation: primary ownership of the benchmark fleet shape on the ring ==")
		fo, err := bench.RunFleetOwnership()
		if err != nil {
			return err
		}
		bench.RenderFleetOwnership(w, fo)
		fmt.Fprintln(w, "\n== Ablation: grouped vs per-sensor sampling (1000 sensors, 10 intervals) ==")
		bench.RenderGroupingAblation(w, bench.RunGroupingAblation(1000, 50, 10))
		fmt.Fprintln(w)
	}
	if selected("measured") {
		any = true
		fmt.Fprintln(w, "== Measured ingest throughput of this implementation ==")
		for _, batch := range []int{1, 8, 64} {
			perSec, ns := bench.MeasuredAgentThroughputBatched(250*time.Millisecond, batch)
			fmt.Fprintf(w, "batch %3d: %12.0f readings/s  (%6.0f ns/reading)\n", batch, perSec, ns)
		}
		fmt.Fprintln(w)
	}
	if !any {
		return fmt.Errorf("dcdbbench: unknown experiment %q", *exp)
	}
	return nil
}
