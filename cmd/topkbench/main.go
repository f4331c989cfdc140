// Command topkbench regenerates the paper's evaluation tables and figures
// (see EXPERIMENTS.md for the mapping to the paper).
//
// Usage:
//
//	topkbench -exp fig6|fig7a|fig7b|fig8|fig5|table1|amsbatch|pqflex|dht|redist|coll|scaling|all
//	          [-pmax 64] [-perpe 1048576] [-k 32] [-seed 1]
//
// Larger -perpe / -pmax approach the paper's scales at the cost of run
// time; the defaults finish in minutes on a laptop. `-exp scaling` (not
// part of `all`) runs the large-p suite — one selection level's
// collective steppers (the only collectives a stepper composes),
// Table-1 selection (sel.KthStep), the sorted
// selection serve answers Kth with (sel.KthSortedStep, one lane) and sampling heavy
// hitters (freq.PAC) at p = 256…131072; the collectives and selections
// are continuation-scheduled on pooled stepper state with blocking A/B
// twins, the heavy hitters run as blocking bodies. `-quick` selects the
// CI tier (p ≤ 4096, one run per op, no A/B twins) — including the
// stepper-form selection paths.
// `-cpuprofile f` / `-memprofile f` write pprof profiles of any run.
// The gated benchmark (timings, per-query message counts, oracle checks)
// is `go run ./bench`; see bench/README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"commtopk/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (fig6, fig7a, fig7b, fig8, fig5, table1, amsbatch, pqflex, dht, redist, coll, scaling, all)")
	quick := flag.Bool("quick", false, "CI tier of -exp scaling: p capped at 4096, one run per op, no blocking A/B twins")
	pmax := flag.Int("pmax", 64, "maximum PE count for weak-scaling sweeps (powers of two from 1)")
	perPE := flag.Int("perpe", 1<<17, "elements per PE (the paper's n/p; 2^28 in the paper)")
	k := flag.Int("k", 32, "output size k")
	seed := flag.Int64("seed", 1, "random seed")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (inspect with go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the run, post-GC) to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "topkbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "topkbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "topkbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap so the profile shows retained, not transient, memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "topkbench: -memprofile: %v\n", err)
			}
		}()
	}

	pList := experiments.PList(*pmax)
	var tables []experiments.Table

	want := func(id string) bool { return *exp == id || *exp == "all" }

	if want("fig6") {
		// k values spread across the input as in the paper (2^10, 2^20, 2^26
		// against n/p=2^28): here 2^10, and two larger ones scaled to n/p.
		ks := []int64{1 << 10, int64(*perPE) / 64, int64(*perPE) / 4}
		tables = append(tables, experiments.Fig6(*perPE, pList, ks, *seed))
	}
	if want("fig7a") {
		tables = append(tables, experiments.Fig7(*perPE/4, pList, *k, 0.02, 1e-4, *seed))
	}
	if want("fig7b") {
		tables = append(tables, experiments.Fig7(*perPE, pList, *k, 0.02, 1e-4, *seed))
	}
	if want("fig8") {
		tables = append(tables, experiments.Fig8(*perPE, pList, *k, 5e-4, 1e-8, *seed))
	}
	if want("fig5") {
		tables = append(tables, experiments.Fig5(min(8, *pmax), 6, *seed))
	}
	if want("table1") {
		p := min(64, *pmax)
		tables = append(tables, experiments.Table1(p, *perPE/4, *k, *seed))
	}
	if want("amsbatch") {
		tables = append(tables, experiments.AblationAMSBatch(min(8, *pmax), *perPE/8,
			int64(*perPE)/4, int64(*perPE)/4+int64(*perPE)/256, *seed))
	}
	if want("pqflex") {
		tables = append(tables, experiments.AblationPQFlexible(min(8, *pmax), *perPE/8, int64(*k)*16, *seed))
	}
	if want("dht") {
		tables = append(tables, experiments.AblationDHTRouting(min(16, *pmax), 4096, *seed))
	}
	if want("redist") {
		tables = append(tables, experiments.AblationRedistribution(min(16, *pmax), *perPE/8, *seed))
	}
	if want("coll") {
		tables = append(tables, experiments.CollectivesScaling(pList))
	}
	if *exp == "scaling" {
		// Not part of -exp all: the large-p machines take minutes. With
		// -pmax unset, the suite runs its full range (p up to 131072, or
		// 4096 in the -quick CI tier); an explicit -pmax caps it (below 256
		// nothing qualifies — say so rather than silently running the big
		// machines anyway).
		scaleMax := 1 << 17
		if *quick {
			scaleMax = experiments.ScalingQuickPMax
		}
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "pmax" {
				scaleMax = min(scaleMax, *pmax)
			}
		})
		if scaleMax < 256 {
			fmt.Fprintf(os.Stderr, "topkbench: -exp scaling starts at p=256; -pmax %d selects no configurations\n", scaleMax)
			os.Exit(2)
		}
		tables = append(tables, experiments.ScalingTable(scaleMax, *quick))
	}
	if len(tables) == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
	var sb strings.Builder
	for i := range tables {
		tables[i].Render(&sb)
	}
	fmt.Print(sb.String())
}
