// Command allocbench runs the Section III-A8 memory allocator
// microbenchmark (Figure 2): multi-threaded allocate/write and
// read/deallocate churn with size classes drawn inversely proportional to
// their size, sweeping thread counts and reporting execution time and
// memory consumption overhead per allocator.
//
// Usage:
//
//	allocbench -ops 60000
//	allocbench -ops 20000 -csv
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	ops := flag.Int("ops", 20000, "operations per thread")
	csv := flag.Bool("csv", false, "emit CSV")
	flag.Parse()
	if *ops <= 0 {
		fmt.Fprintln(os.Stderr, "allocbench: -ops must be positive")
		os.Exit(2)
	}
	s := experiments.Small
	s.MicrobenchOps = *ops
	r, err := experiments.Fig2(s, experiments.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "allocbench:", err)
		os.Exit(1)
	}
	if *csv {
		r.RenderTime().RenderCSV(os.Stdout)
		fmt.Println()
		r.RenderOverhead().RenderCSV(os.Stdout)
	} else {
		r.RenderTime().Render(os.Stdout)
		fmt.Println()
		r.RenderOverhead().Render(os.Stdout)
	}
}
