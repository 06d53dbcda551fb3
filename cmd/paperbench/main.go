// Command paperbench regenerates every table and figure-equivalent of the
// paper's evaluation (the registry in internal/bench, bench.All: E1–E19 and
// ablations A1–A4; `paperbench -list` prints it). Each experiment
// prints an aligned table; absolute numbers are simulator-specific, the
// shapes (who wins, growth rates, approximation factors) are the
// reproduction targets.
//
// Usage:
//
//	paperbench                  # run everything at small scale
//	paperbench -scale full      # paper-shaped workloads (minutes)
//	paperbench -exp E1,E5,A3    # selected experiments
//	paperbench -list            # list experiment ids
//
// Profiling the oracle and engine hot paths without editing code:
//
//	paperbench -exp E14 -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof cpu.out
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	os.Exit(run())
}

// run holds the real main so profile-writing defers execute before the
// process exits (os.Exit skips defers).
func run() int {
	var (
		scaleFlag = flag.String("scale", "small", "workload scale: small or full")
		expFlag   = flag.String("exp", "all", "comma-separated experiment ids (E1..E19, A1..A4) or 'all'")
		listFlag  = flag.Bool("list", false, "list experiments and exit")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile (taken after all experiments) to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // report live objects, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	if *listFlag {
		for _, e := range bench.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Desc)
		}
		return 0
	}

	scale, err := bench.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	var selected []bench.Experiment
	if strings.EqualFold(*expFlag, "all") {
		selected = bench.All()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			e, ok := bench.Find(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", id)
				return 2
			}
			selected = append(selected, e)
		}
	}

	failed := 0
	for _, e := range selected {
		start := time.Now()
		tab, err := e.Run(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s FAILED: %v\n", e.ID, err)
			failed++
			continue
		}
		tab.Fprint(os.Stdout)
		fmt.Printf("[%s completed in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		return 1
	}
	return 0
}
