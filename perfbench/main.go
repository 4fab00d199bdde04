package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"

	"repro/wave"
)

// options are the benchmark's command-line arguments.
type options struct {
	root, out string
	workload  string
	seed      int64
	seconds   float64
	trace     bool
}

// childTimeout bounds the whole invocation, children included, so a hung
// run fails instead of stalling the caller.
const childTimeout = 170 * time.Second

func main() { os.Exit(run()) }

func run() int {
	var o options
	var traceFlag int
	child := flag.String("child", "", "internal: run one measurement in this process (sim, sim-traced, sim-setup, serve, serve-traced, serve-setup)")
	workers := flag.Int("workers", 1, "internal: simulator Workers for -child sim")
	flag.StringVar(&o.root, "root", ".", "repository root holding BENCHMARK.json")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for span files")
	flag.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "measurement time budget in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	flag.Parse()
	o.trace = traceFlag == 1

	if *child != "" {
		return runChild(*child, o, *workers)
	}
	raw, err := os.ReadFile(filepath.Join(o.root, "BENCHMARK.json"))
	if err == nil {
		err = checkCatalogue(raw, workloadNames())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if _, ok := simWorkloads[o.workload]; !ok && o.workload != "serve-mix" {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", o.workload, workloadNames())
		return 2
	}

	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Println(hostManifest(o.root))
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	var res outcome
	switch {
	case o.workload == "serve-mix" && o.trace:
		res, err = traceServe(ctx, o)
	case o.workload == "serve-mix":
		res, err = measureServe(ctx, o)
	case o.trace:
		res, err = traceSim(ctx, o, simWorkloads[o.workload])
	default:
		res, err = measureSim(ctx, o, simWorkloads[o.workload])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	metrics, err := buildMetrics(defs, res.values)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, l := range res.lines {
		fmt.Println(l)
	}
	printMetrics(defs, res.values, res.notApplicable)
	if res.attempted > 0 {
		fmt.Printf("error_rate %.6g (%d failed of %d attempted)\n", float64(res.failed)/float64(res.attempted), res.failed, res.attempted)
	}
	for _, p := range res.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	line, err := json.Marshal(resultLine{
		Correct: len(res.problems) == 0, Attempted: res.attempted, Failed: res.failed, Metrics: metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if len(res.problems) > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := []string{"serve-mix"}
	for n := range simWorkloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// outcome is one workload's measured metrics and check results.
type outcome struct {
	values        map[string]float64
	notApplicable []string
	lines         []string
	problems      []string
	attempted     int64
	failed        int64
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func printMetrics(defs []metricDef, values map[string]float64, na []string) {
	skip := map[string]bool{}
	for _, n := range na {
		skip[n] = true
	}
	for _, d := range defs {
		if skip[d.Name] {
			fmt.Printf("%-32s n/a on this workload (reported as 0)\n", d.Name)
			continue
		}
		fmt.Printf("%-32s %.6g %s\n", d.Name, values[d.Name], d.Unit)
	}
}

// runChild performs one measurement in this process and prints its report
// as one JSON line.
func runChild(kind string, o options, workers int) int {
	var rep any
	spans := func() spanFile {
		return spanFile{
			path:   filepath.Join(o.out, "spans", fmt.Sprintf("%s-seed%d.tsv", o.workload, o.seed)),
			header: hostManifest(o.root),
		}
	}
	w := simWorkloads[o.workload]
	switch kind {
	case "sim":
		rep = runSimRep(w, o.seed, workers)
	case "sim-traced":
		rep = runSimTraced(w, o.seed, spans())
	case "sim-setup":
		r := simReport{}
		cfg, _ := w.config(o.seed, 1)
		t0 := time.Now()
		s, err := wave.New(cfg)
		r.SetupS = time.Since(t0).Seconds()
		if err != nil {
			r.Err = err.Error()
		} else {
			s.Close()
		}
		rep = r
	case "serve":
		rep = runServeSession(o.seed, false, spanFile{})
	case "serve-traced":
		rep = runServeSession(o.seed, true, spans())
	case "serve-setup":
		r := serveReport{}
		var err error
		r.SetupS, err = runServeSetup()
		if err != nil {
			r.Err = err.Error()
		}
		rep = r
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown child kind %q\n", kind)
		return 2
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// spawn runs this binary as a child measurement and decodes its report.
// The child's wall time, process start included, is returned too.
func spawn(ctx context.Context, o options, kind string, seed int64, workers int, rep any) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(ctx, exe, "-child", kind, "-workload", o.workload,
		"-seed", strconv.FormatInt(seed, 10), "-workers", strconv.Itoa(workers), "-root", o.root, "-out", o.out)
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	out, err := cmd.Output()
	d := time.Since(t0)
	if err != nil {
		return d, fmt.Errorf("child %s: %w", kind, err)
	}
	if err := json.Unmarshal(out, rep); err != nil {
		return d, fmt.Errorf("child %s: bad report: %w", kind, err)
	}
	return d, nil
}

// mix derives an independent 53-bit, nonzero seed for one input stream
// from the benchmark seed (splitmix64). 53 bits survive any JSON round trip.
func mix(seed int64, stream uint64) uint64 {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return z&(1<<53-1) | 1
}

// peakRSSMiB is this process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
