// Command cilkview performs the paper's Cilkview-style analysis
// (§V-D): it executes a kernel natively while tracking the fork-join
// DAG and reports work, span, logical parallelism, and instructions per
// task — optionally sweeping task granularity (paper Figure 4's
// parallelism series).
//
// Usage:
//
//	cilkview -app ligra-tc [-size ref] [-grain N]
//	cilkview -app ligra-tc -sweep 2,4,8,16,32,64,128
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"bigtiny/internal/apps"
	"bigtiny/internal/cilkview"
	"bigtiny/internal/wsrt"
)

func main() {
	appName := flag.String("app", "ligra-tc", "application kernel")
	size := flag.String("size", "ref", "input size: test, ref, or big")
	grain := flag.Int("grain", 0, "task granularity (0 = app default)")
	sweep := flag.String("sweep", "", "comma-separated granularities to sweep")
	flag.Parse()

	sz, err := apps.ParseSize(*size)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cilkview:", err)
		os.Exit(2)
	}
	app, err := apps.ByName(*appName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cilkview:", err)
		os.Exit(1)
	}

	analyze := func(g int) cilkview.Report {
		return cilkview.Analyze(func(rt *wsrt.RT) wsrt.Body {
			return app.Setup(rt, sz, g).Root
		})
	}

	if *sweep == "" {
		r := analyze(*grain)
		fmt.Printf("%s (size %s): %s\n", app.Name, sz, r)
		return
	}
	fmt.Printf("%-12s %12s %12s %12s %10s\n", "Granularity", "Work", "Span", "Parallelism", "IPT")
	for _, gs := range strings.Split(*sweep, ",") {
		g, err := strconv.Atoi(strings.TrimSpace(gs))
		if err != nil {
			fmt.Fprintln(os.Stderr, "cilkview:", err)
			os.Exit(2)
		}
		r := analyze(g)
		fmt.Printf("%-12d %12d %12d %12.1f %10.1f\n", g, r.Work, r.Span, r.Parallelism(), r.IPT())
	}
}
