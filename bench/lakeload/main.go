// Command lakeload is the lake's HTTP-level benchmark: it generates a seeded
// lake, serves it through the real handler on a loopback listener, drives it
// with two closed-loop clients, checks the answers against a plain reference
// lake and prints every metric by name with its unit. bench/README.md is the
// glossary; BENCHMARK.json is the contract the numbers are gated by.
//
//	lakeload --workload read_flat_4k --seed 7 --seconds 10 --trace 0
//	lakeload -repeat 3 -baseline-out bench/baseline.json
//	lakeload --workload read_flat_4k -compare bench/baseline.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// result is the last line of standard output, the object the driver reads.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	fs := flag.NewFlagSet("lakeload", flag.ExitOnError)
	wl := fs.String("workload", "", "workload to run (one of BENCHMARK.json's)")
	seed := fs.Uint64("seed", 7, "seed of the population and of every request schedule")
	seconds := fs.Int("seconds", 10, "length of the timed mix phase")
	trace := fs.Int("trace", 0, "1 runs the traced pass after the timed pass and reports the per-layer metrics")
	compare := fs.String("compare", "", "baseline file to print old/new/ratio against")
	repeat := fs.Int("repeat", 0, "run every workload as two alternating sets of this many runs and check they agree")
	baselineOut := fs.String("baseline-out", "", "with -repeat: write medians, quartiles and the machine fingerprint here")
	fs.Parse(os.Args[1:])

	// The first signal cancels the run, which unwinds through the deferred
	// removal of the lake directory; a second one kills hard.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()

	if *repeat > 0 {
		if err := repeatRuns(ctx, *repeat, *seconds, *baselineOut); err != nil {
			fmt.Fprintln(os.Stderr, "lakeload:", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "lakeload: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	o := options{workload: *wl, seed: *seed, mix: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, scale: fullScale, log: os.Stdout, traceDir: filepath.Join("bench", "out")}
	rep, err := run(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lakeload:", err)
		return 1
	}
	printMetrics(rep)
	if *compare != "" {
		if err := printComparison(*compare, rep); err != nil {
			fmt.Fprintln(os.Stderr, "lakeload:", err)
			return 1
		}
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	picked, err := rep.Metrics.pick(defs, o.trace)
	if err != nil {
		rep.problem("%v", err)
	}
	for _, p := range rep.Problems {
		fmt.Fprintln(os.Stderr, "lakeload: FAIL:", p)
	}
	if !rep.Correct {
		return 1
	}
	line, err := json.Marshal(result{rep.Correct, rep.Attempted, rep.Failed, picked})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lakeload:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// printMetrics lists every metric the run produced, by name with its unit.
func printMetrics(rep *report) {
	fmt.Printf("storage %s\n", rep.Storage)
	for _, tab := range []struct {
		title string
		defs  []metricDef
	}{{"end-to-end", endToEnd}, {"per-layer", perLayer}} {
		fmt.Printf("== %s (%s)\n", tab.title, rep.Workload)
		for _, d := range tab.defs {
			if v, ok := rep.Metrics[d.Name]; ok {
				fmt.Printf("%-44s %14.6g %s\n", d.Name, v, d.Unit)
			}
		}
	}
}
