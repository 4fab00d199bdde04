package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/wave"
)

// minSetups is the number of cold set-ups setup_s is the median of.
const minSetups = 7

// subSeed is the input seed of repetition i: the benchmark seed itself for
// the first, seeds derived from it after that, so one run covers several
// inputs and its medians do not hang on one input's quirks.
func subSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	return int64(mix(seed, uint64(9000+i)))
}

// repeat spawns child measurements of kind, repetition i on seedOf(i),
// until at least minReps have run and one more would overrun the time
// budget. It then tops the set-up samples up to minSetups with set-up-only
// children. add supplies each report and a function reading its set-up
// time and error back.
func repeat(ctx context.Context, o options, kind, setupKind string, minReps int, seedOf func(int) int64, add func() (any, func() (float64, string))) ([]float64, error) {
	start := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))
	var setups []float64
	for i := 0; ; i++ {
		rep, done := add()
		d, err := spawn(ctx, o, kind, seedOf(i), 1, rep)
		if err != nil {
			return nil, err
		}
		s, failed := done()
		setups = append(setups, s)
		if failed != "" || (i+1 >= minReps && time.Since(start)+d > budget) {
			break
		}
	}
	for len(setups) < minSetups {
		var r struct {
			SetupS float64 `json:"setup_s"`
			Err    string  `json:"err"`
		}
		if _, err := spawn(ctx, o, setupKind, o.seed, 1, &r); err != nil {
			return nil, err
		}
		if r.Err != "" {
			return nil, fmt.Errorf("set-up: %s", r.Err)
		}
		setups = append(setups, r.SetupS)
	}
	return setups, nil
}

// measureSim is the end-to-end run of a simulator workload: repeated cold
// runs in fresh processes, each a wave.New and a RunLoad with Workers: 1 on
// its own input seed. The simulated metrics are medians over the first
// w.reps runs, so they are exact for a given benchmark seed.
func measureSim(ctx context.Context, o options, w simWorkload) (outcome, error) {
	var reps []*simReport
	seedOf := func(i int) int64 { return subSeed(o.seed, i) }
	setups, err := repeat(ctx, o, "sim", "sim-setup", w.reps, seedOf, func() (any, func() (float64, string)) {
		r := new(simReport)
		reps = append(reps, r)
		return r, func() (float64, string) { return r.SetupS, r.Err }
	})
	if err != nil {
		return outcome{}, err
	}
	res := outcome{values: map[string]float64{}}
	var runS, rss, p50, p99, thr, jobMS []float64
	var measured int64
	for i, r := range reps {
		checkSimRun(&res, fmt.Sprintf("run %d", i+1), r)
		runS = append(runS, r.RunS)
		rss = append(rss, r.PeakRSSMiB)
		jobMS = append(jobMS, r.JobS*1e3)
		if i < w.reps {
			p50, p99, thr = append(p50, r.P50), append(p99, r.P99), append(thr, r.Throughput)
			measured += r.Measured
		}
	}
	j50, j99 := Percentile(jobMS, 50), Percentile(jobMS, 99)
	res.values = map[string]float64{
		"setup_s":                       Median(setups),
		"run_s":                         Median(runS),
		"peak_rss_mib":                  Median(rss),
		"msg_latency_p50_cycles":        Median(p50),
		"msg_latency_p99_cycles":        Median(p99),
		"accepted_flits_per_node_cycle": Median(thr),
		"job_latency_p50_ms":            j50.Value,
		"job_latency_p99_ms":            j99.Value,
		"jobs_per_s":                    1e3 / Mean(jobMS),
	}
	res.lines = append(res.lines,
		fmt.Sprintf("runs: %d cold processes (wave.New + RunLoad, Workers 1), one input seed each; setup_s is the median of %d cold wave.New", len(reps), len(setups)),
		"run_s over runs "+spreadLine(runS),
		fmt.Sprintf("stats-digest of the first run %s", reps[0].Digest),
		fmt.Sprintf("msg_latency p50 and p99 per run (medians over the first %d runs, %d measured messages): %v, %v", w.reps, measured, p50, p99),
		fmt.Sprintf("job_latency_ms %s, %s; a job is one simulation, wave.New + RunLoad", j50, j99),
	)
	return res, nil
}

// checkSimRun counts a run's messages and requires that every one was
// delivered without a watchdog trip or drain timeout.
func checkSimRun(res *outcome, label string, r *simReport) {
	res.attempted += r.Sent
	switch {
	case r.Err != "":
		res.failed += r.Sent
		res.check(false, "%s: %s", label, r.Err)
	case r.Sent == 0:
		res.check(false, "%s: no messages sent", label)
	default:
		res.failed += r.Sent - r.Delivered
		res.check(r.Sent == r.Delivered, "%s: %d of %d messages undelivered", label, r.Sent-r.Delivered, r.Sent)
	}
}

// traceSim is the per-layer run of a simulator workload: an untraced
// Workers: 1 run, the traced outside-in run (gated on identical Stats and
// latencies), Workers 0 and 2 runs (gated on identical Stats), and the
// routing and topology microbenchmarks.
func traceSim(ctx context.Context, o options, w simWorkload) (outcome, error) {
	res := outcome{values: map[string]float64{}}
	var base, traced, auto, w2 simReport
	for _, c := range []struct {
		kind    string
		workers int
		rep     *simReport
	}{{"sim", 1, &base}, {"sim-traced", 1, &traced}, {"sim", 0, &auto}, {"sim", 2, &w2}} {
		if _, err := spawn(ctx, o, c.kind, o.seed, c.workers, c.rep); err != nil {
			return res, err
		}
		checkSimRun(&res, fmt.Sprintf("%s (Workers %d)", c.kind, c.workers), c.rep)
	}
	res.check(traced.Digest == base.Digest, "traced run's Stats %s differ from RunLoad's %s", traced.Digest, base.Digest)
	res.check(traced.P50 == base.P50 && traced.P99 == base.P99 && traced.Throughput == base.Throughput && traced.Measured == base.Measured,
		"traced run's latency/throughput (%g, %g, %g) differ from RunLoad's (%g, %g, %g)",
		traced.P50, traced.P99, traced.Throughput, base.P50, base.P99, base.Throughput)
	res.check(auto.Digest == base.Digest, "Workers 0 Stats %s differ from Workers 1's %s", auto.Digest, base.Digest)
	res.check(w2.Digest == base.Digest, "Workers 2 Stats %s differ from Workers 1's %s", w2.Digest, base.Digest)

	for k, v := range traced.Layers {
		res.values[k] = v
	}
	cfg, _ := w.config(o.seed, 1)
	topo, err := cfg.Topology.Build()
	if err != nil {
		return res, err
	}
	rng := rand.New(rand.NewSource(o.seed))
	rm, rline, err := routingBench(topo, cfg.Routing, cfg.NumVCs, rng)
	if err != nil {
		return res, err
	}
	tm, tline := topologyBench(topo, rng)
	for k, v := range rm {
		res.values[k] = v
	}
	for k, v := range tm {
		res.values[k] = v
	}
	cycles := float64(base.Cycles)
	res.values["engine.auto_workers"] = float64(auto.Workers)
	res.values["engine.auto_over_serial"] = auto.RunS / base.RunS
	res.values["engine.w2_over_serial"] = w2.RunS / base.RunS
	res.values["go.allocs_per_cycle"] = float64(base.Mallocs) / cycles
	res.values["go.alloc_bytes_per_cycle"] = float64(base.AllocBytes) / cycles
	res.values["go.gc_cycles"] = float64(base.NumGC)
	res.values["trace.overhead_s"] = traced.TracedWallS - base.RunS
	res.lines = append(res.lines, traced.Lines...)
	res.lines = append(res.lines, rline, tline,
		fmt.Sprintf("run_s (untraced, Workers 1) %.4g s; traced wall %.4g s; overhead %.4g s; spans cover %.1f%% of traced wall",
			base.RunS, traced.TracedWallS, traced.TracedWallS-base.RunS, 100*res.values["trace.span_coverage"]),
		fmt.Sprintf("engine: Workers 0 picked %d worker(s), run_s %.4g s; Workers 2 run_s %.4g s; all three stats-digests %s",
			auto.Workers, auto.RunS, w2.RunS, base.Digest),
	)
	res.notApplicable = fillNotApplicable(res.values)
	return res, nil
}

// fillNotApplicable sets every per-layer metric the workload did not
// measure to 0 and returns their names.
func fillNotApplicable(values map[string]float64) []string {
	var na []string
	for _, d := range perLayer {
		if _, ok := values[d.Name]; !ok {
			values[d.Name] = 0
			na = append(na, d.Name)
		}
	}
	return na
}

// measureServe is the end-to-end run of serve-mix: repeated sessions, each
// against a fresh in-process server in a fresh process. Sessions run in
// pairs on one input seed (the first pair on --seed): a pair's results must
// be byte-identical across its two processes, and the tail of the job
// latency, which sits on a seed's slowest misses, averages over several
// seeds. The simulated metrics are medians over the first two seeds' specs.
func measureServe(ctx context.Context, o options) (outcome, error) {
	var reps []*serveReport
	seedOf := func(i int) int64 { return subSeed(o.seed, i/2) }
	setups, err := repeat(ctx, o, "serve", "serve-setup", 4, seedOf, func() (any, func() (float64, string)) {
		r := new(serveReport)
		reps = append(reps, r)
		return r, func() (float64, string) { return r.SetupS, r.Err }
	})
	if err != nil {
		return outcome{}, err
	}
	specs, _ := serveMix(o.seed)
	res := outcome{values: map[string]float64{}}
	var runS, lat, rss, p50, p99, thr []float64
	var okJobs int
	for i, r := range reps {
		checkServeSession(&res, fmt.Sprintf("session %d", i+1), r, reps[i/2*2], len(specs))
		runS = append(runS, r.RunS)
		lat = append(lat, r.LatencyMS...)
		okJobs += len(r.LatencyMS)
		rss = append(rss, r.PeakRSSMiB)
		if i == 0 || i == 2 {
			p50, p99, thr = append(p50, r.P50...), append(p99, r.P99...), append(thr, r.Throughput...)
		}
	}
	var totalRun float64
	for _, s := range runS {
		totalRun += s
	}
	r0 := reps[0]
	j50, j99 := Percentile(lat, 50), Percentile(lat, 99)
	res.values = map[string]float64{
		"setup_s":                       Median(setups),
		"run_s":                         Median(runS),
		"peak_rss_mib":                  Median(rss),
		"msg_latency_p50_cycles":        Median(p50),
		"msg_latency_p99_cycles":        Median(p99),
		"accepted_flits_per_node_cycle": Median(thr),
		"job_latency_p50_ms":            j50.Value,
		"job_latency_p99_ms":            j99.Value,
		"jobs_per_s":                    float64(okJobs) / totalRun,
	}
	res.lines = append(res.lines,
		fmt.Sprintf("sessions: %d fresh processes, two per input seed, each %d submissions of %d distinct specs by %d closed-loop clients; setup_s is the median of %d server starts",
			len(reps), serveSubmissions, len(specs), serveClients, len(setups)),
		"run_s over sessions "+spreadLine(runS),
		"job_latency_ms "+j50.String()+", "+j99.String()+" (submit to result bytes, all sessions)",
		fmt.Sprintf("msg_latency_* and accepted_flits are medians over the results of the first two seeds' %d specs; results byte-identical between the sessions of a seed", len(p50)),
		fmt.Sprintf("executed simulations %g (= distinct specs), result-cache hits %g",
			r0.Metrics["waved_jobs_completed_total"], r0.Metrics["waved_cache_hits_total"]),
	)
	return res, nil
}

// checkServeSession counts a session's submissions and requires 2xx
// responses, byte-identical results per spec, also against those of the
// session first (which ran the same inputs), and one executed simulation per
// distinct spec.
func checkServeSession(res *outcome, label string, r, first *serveReport, distinct int) {
	res.attempted += int64(r.Submissions)
	if r.Err != "" {
		res.failed += int64(r.Submissions)
		res.check(false, "%s: %s", label, r.Err)
		return
	}
	res.failed += int64(r.HTTPErrors + r.Mismatches)
	res.check(r.HTTPErrors == 0, "%s: %d non-2xx or failed requests, e.g. %v", label, r.HTTPErrors, r.Errors)
	res.check(r.Mismatches == 0, "%s: %d results differ from their spec's first result", label, r.Mismatches)
	executed := r.Metrics["waved_jobs_completed_total"]
	res.check(executed == float64(distinct), "%s: %g simulations executed for %d distinct specs", label, executed, distinct)
	res.check(r.Metrics["waved_jobs_failed_total"] == 0, "%s: %g jobs failed", label, r.Metrics["waved_jobs_failed_total"])
	var missing, differ int
	for i, h := range r.ResultSHA {
		switch {
		case h == "":
			missing++
		case h != first.ResultSHA[i]:
			differ++
		}
	}
	res.failed += int64(missing + differ)
	res.check(missing == 0, "%s: %d specs never returned a result", label, missing)
	res.check(differ == 0, "%s: %d specs' results differ from those of the session that ran the same inputs", label, differ)
}

// traceServe is the per-layer run of serve-mix: an untraced session, a
// traced one (spans around every HTTP call, job views of executed jobs),
// cold verify.Certify on each distinct configuration, and the routing and
// topology microbenchmarks on the full mesh's gated VC-free routing.
func traceServe(ctx context.Context, o options) (outcome, error) {
	res := outcome{values: map[string]float64{}}
	specs, _ := serveMix(o.seed)
	var base, traced serveReport
	if _, err := spawn(ctx, o, "serve", o.seed, 1, &base); err != nil {
		return res, err
	}
	checkServeSession(&res, "untraced session", &base, &base, len(specs))
	if _, err := spawn(ctx, o, "serve-traced", o.seed, 1, &traced); err != nil {
		return res, err
	}
	checkServeSession(&res, "traced session", &traced, &base, len(specs))
	for k, v := range traced.Layers {
		res.values[k] = v
	}

	var cfgs []wave.Config
	seen := map[string]bool{}
	var mesh wave.Config
	for _, s := range specs {
		key := fmt.Sprintf("%v/%s", s.cfg.Topology, s.cfg.Protocol)
		if !seen[key] {
			seen[key] = true
			cfgs = append(cfgs, s.cfg)
		}
		if s.cfg.Topology.Kind == "fullmesh" {
			mesh = s.cfg
		}
	}
	certMS, certLines, err := certifyBench(cfgs)
	if err != nil {
		res.check(false, "%v", err)
	} else {
		res.values["verify.certify_ms"] = Mean(certMS)
	}
	topo, err := mesh.Topology.Build()
	if err != nil {
		return res, err
	}
	rng := rand.New(rand.NewSource(o.seed))
	rm, rline, err := routingBench(topo, mesh.Routing, mesh.NumVCs, rng)
	if err != nil {
		return res, err
	}
	tm, tline := topologyBench(topo, rng)
	for k, v := range rm {
		res.values[k] = v
	}
	for k, v := range tm {
		res.values[k] = v
	}
	cycles := base.Metrics["waved_cycles_total"]
	res.values["go.allocs_per_cycle"] = float64(base.Mallocs) / cycles
	res.values["go.alloc_bytes_per_cycle"] = float64(base.AllocBytes) / cycles
	res.values["go.gc_cycles"] = float64(base.NumGC)
	res.values["trace.overhead_s"] = traced.RunS - base.RunS
	res.lines = append(res.lines, traced.Lines...)
	res.lines = append(res.lines, certLines...)
	res.lines = append(res.lines, fmt.Sprintf("verify.certify_ms is the mean over %d distinct configurations, each certified cold", len(cfgs)),
		rline, tline,
		fmt.Sprintf("run_s (untraced) %.4g s; traced %.4g s; overhead %.4g s; spans cover %.1f%% of each client's traced wall",
			base.RunS, traced.RunS, traced.RunS-base.RunS, 100*res.values["trace.span_coverage"]),
		fmt.Sprintf("go.* are per simulated cycle as waved_cycles_total counts them (%g)", cycles),
	)
	res.notApplicable = fillNotApplicable(res.values)
	return res, nil
}

// hostManifest describes the code and host a result came from: the VCS
// revision when the build recorded one, a digest of the Go sources and
// module files under root, the Go version, num_cpu and GOMAXPROCS.
func hostManifest(root string) string {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return fmt.Sprintf("host commit=%s source_sha256=%s go=%s num_cpu=%d gomaxprocs=%d os=%s/%s",
		rev, sourceDigest(root), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH)
}

// sourceDigest hashes the path and contents of every .go, go.mod and go.sum
// file under root, skipping dot-directories, in path order.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unreadable"
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// spreadLine renders the minimum, quartiles and maximum of xs.
func spreadLine(xs []float64) string {
	return fmt.Sprintf("min=%.4g q1=%.4g median=%.4g q3=%.4g max=%.4g (n=%d)",
		Percentile(xs, 0.001).Value, Percentile(xs, 25).Value, Median(xs), Percentile(xs, 75).Value, Percentile(xs, 100).Value, len(xs))
}
