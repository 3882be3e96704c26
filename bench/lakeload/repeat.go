package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// fingerprint says what machine a baseline was measured on. Latencies are
// this VM's; only ratios on the same fingerprint mean anything.
type fingerprint struct {
	NProc   int    `json:"nproc"`
	CPU     string `json:"cpu_model"`
	Kernel  string `json:"kernel"`
	Go      string `json:"go_version"`
	Storage string `json:"storage"`
}

// summary is one metric over the repeat runs.
type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// baseline is bench/baseline.json.
type baseline struct {
	Fingerprint fingerprint                   `json:"fingerprint"`
	Seconds     int                           `json:"seconds"`
	Workloads   map[string]map[string]summary `json:"workloads"`
}

func machine(storage string) fingerprint {
	f := fingerprint{NProc: runtime.NumCPU(), Go: runtime.Version(), Storage: storage}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				f.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		f.Kernel = strings.TrimSpace(string(b))
	}
	return f
}

func summarize(unit string, xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{unit, median(xs), q1, q3, len(xs)}
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(xs, n=4) gives them — the driver's definition of a
// metric's spread is their distance as a share of the median.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(pos float64) float64 { // 1-based position, interpolated, clamped
		i := int(pos)
		switch {
		case len(s) == 0:
			return 0
		case i < 1:
			return s[0]
		case i >= len(s):
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	n := float64(len(s) + 1)
	return at(n / 4), at(3 * n / 4)
}

// worse is how much worse b is than a for a metric, as a share of a.
func worse(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// child runs this binary once and parses the result line.
func child(ctx context.Context, workload string, seed, seconds, trace int) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w\n%s", workload, seed, err, out.String())
	}
	var last string
	for sc := bufio.NewScanner(&out); sc.Scan(); {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !res.Correct || res.Failed != 0 {
		return nil, fmt.Errorf("%s seed %d: correct=%v failed=%d", workload, seed, res.Correct, res.Failed)
	}
	return &res, nil
}

// repeatRuns runs every workload as two alternating sets of n runs of this
// same binary, each run on its own seed, and checks what the driver checks:
// that the sets' medians agree within each end-to-end metric's bound and
// that the interquartile spread of all the runs stays within it. One traced run per workload
// adds the per-layer numbers to the baseline.
func repeatRuns(ctx context.Context, n, seconds int, baselineOut string) error {
	_, storage, err := storageRoot()
	if err != nil {
		return err
	}
	base := baseline{Fingerprint: machine(storage), Seconds: seconds, Workloads: map[string]map[string]summary{}}
	disagree := 0
	for _, wl := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*n; i++ {
			res, err := child(ctx, wl.Name, 100+i, seconds, 0)
			if err != nil {
				return err
			}
			for name, v := range res.Metrics {
				sets[i%2][name] = append(sets[i%2][name], v.Value)
			}
			fmt.Printf("# %s run %d/%d (set %c) done\n", wl.Name, i+1, 2*n, 'A'+rune(i%2))
		}
		sum := map[string]summary{}
		fmt.Printf("== %s: set A median, set B median, worse set off by, spread of all runs, bound\n", wl.Name)
		for _, d := range endToEnd {
			a, b := median(sets[0][d.Name]), median(sets[1][d.Name])
			w := worse(d, a, b)
			if w < 0 {
				w = worse(d, b, a)
			}
			all := summarize(d.Unit, append(append([]float64(nil), sets[0][d.Name]...), sets[1][d.Name]...))
			spread := ratio(all.Q3-all.Q1, all.Median)
			verdict := "ok"
			// The driver holds every spread but set-up's to the bound as well.
			if w > d.Bound || (spread > d.Bound && d.Name != "setup_s") {
				verdict = "DISAGREE"
				disagree++
			}
			fmt.Printf("%-22s %11.5g %11.5g %-4s %+6.2f%% %6.2f%% %4.0f%%  %s\n", d.Name, a, b, d.Unit, 100*w, 100*spread, 100*d.Bound, verdict)
			sum[d.Name] = all
		}
		res, err := child(ctx, wl.Name, 99, seconds, 1)
		if err != nil {
			return err
		}
		for name, v := range res.Metrics {
			sum[name] = summarize(v.Unit, []float64{v.Value})
		}
		base.Workloads[wl.Name] = sum
	}
	if baselineOut != "" {
		b, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(baselineOut, append(b, '\n'), 0o644); err != nil {
			return fmt.Errorf("write baseline: %w", err)
		}
	}
	if disagree > 0 {
		return fmt.Errorf("%d end-to-end metrics disagree between the two sets beyond their bound", disagree)
	}
	return nil
}

// printComparison prints old/new/ratio for every metric of the run that the
// baseline also has.
func printComparison(path string, rep *report) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read baseline: %w", err)
	}
	var base baseline
	if err := json.Unmarshal(b, &base); err != nil {
		return fmt.Errorf("parse baseline %s: %w", path, err)
	}
	old, ok := base.Workloads[rep.Workload]
	if !ok {
		return fmt.Errorf("baseline %s has no workload %s", path, rep.Workload)
	}
	if now := machine(rep.Storage); now != base.Fingerprint {
		fmt.Printf("# baseline machine differs: %+v, now %+v\n", base.Fingerprint, now)
	}
	fmt.Printf("== %s against %s: old, new, new/old\n", rep.Workload, path)
	for _, tab := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range tab {
			o, inOld := old[d.Name]
			v, inNew := rep.Metrics[d.Name]
			if inOld && inNew {
				fmt.Printf("%-44s %12.5g %12.5g %-6s x%.3f\n", d.Name, o.Median, v, d.Unit, ratio(v, o.Median))
			}
		}
	}
	return nil
}
