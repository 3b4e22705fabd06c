// Command fixbench regenerates the paper's tables and figures.
//
// Usage:
//
//	fixbench                 # run every experiment at the default scale
//	fixbench -exp fig8b      # run one experiment
//	fixbench -scale paper    # use parameters close to the paper's
//	fixbench -json-dir out/  # where BENCH_<figure>.json files land
//
// Alongside each experiment's table, fixbench writes a machine-readable
// BENCH_<figure>.json (disable with -json=false) so results can be
// tracked across commits.
package main

import (
	"flag"
	"fmt"
	"os"

	"fixgo/internal/bench"
)

func main() {
	bench.RunChildIfRequested()
	exp := flag.String("exp", "all", "experiment id (fig7a fig7b fig8a fig8b fig9 fig10) or all")
	scaleName := flag.String("scale", "default", "default | paper")
	writeJSON := flag.Bool("json", true, "write BENCH_<figure>.json next to the human output")
	jsonDir := flag.String("json-dir", ".", "directory for BENCH_<figure>.json files")
	flag.Parse()

	scale := bench.DefaultScale()
	if *scaleName == "paper" {
		scale = bench.PaperScale()
	}

	run := func(id string) bool {
		fmt.Printf("running %s...\n", id)
		res, err := bench.Run(id, scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			return false
		}
		fmt.Println(res.String())
		if *writeJSON {
			path, err := res.WriteJSON(*jsonDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: write json: %v\n", id, err)
				return false
			}
			fmt.Printf("wrote %s\n", path)
		}
		return true
	}

	ok := true
	if *exp == "all" {
		for _, e := range bench.Experiments {
			ok = run(e.ID) && ok
		}
	} else {
		ok = run(*exp)
	}
	if !ok {
		os.Exit(1)
	}
}
