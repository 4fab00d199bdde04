// Command perfbench is the repository's benchmark: one command runs one
// named workload on a given seed, prints every end-to-end metric with its
// unit (and every percentile with its sample count), checks that the
// program's outputs are correct, and ends with one JSON result line.
//
// Run it from the repository root; run.sh builds it from the checkout's
// source into .bench_build/ first:
//
//	bash perfbench/run.sh --workload stress-16x16 --seed 1 --seconds 30 --trace 0
//
// BENCHMARK.json names the workloads and metrics; the harness refuses to
// run when its own catalogue and that file disagree. The benchmark drives
// the wave, traffic, routing, topology, verify and server packages through
// their exported functions and changes none of them.
//
// # Workloads
//
//   - stress-16x16: 16x16 torus, CLRP, the E7 stress router (Duato w=3,
//     k=2, MB-2, 2-entry circuit caches, working sets of 4 with 70% reuse),
//     uniform traffic at 0.2 flits/node/cycle, 32-flit messages, 2000
//     warmup + 12000 measured cycles + drain, Workers: 1.
//   - serve-mix: an in-process waved (default configuration, 2 job
//     workers, except a job store that holds all 1200 records) on
//     loopback HTTP, driven by 2 closed-loop clients through 1200
//     submissions of 100 distinct load specs: 8x8 torus x {clrp, carp,
//     wormhole, pcs}, 4-ary 3-tree fat tree with up*/down*, 32-node full
//     mesh with VC-free routing, and a few 16x16 tori.
//
// # End-to-end run (--trace 0)
//
// Each repetition runs in a fresh process. Repetitions continue until
// --seconds would be overrun (and at least a fixed minimum have run), and
// timings are medians over them. A run's work depends on its input, so
// repetitions cover several input seeds: each simulator run has its own
// (the first --seed, the rest derived from it), and serve-mix sessions run
// in pairs per seed, whose results must match byte for byte. The simulated
// metrics are medians over the fixed minimum of repetitions: exact for a
// given --seed, so any change in them means the model changed.
//
//   - setup_s: a cold wave.New in a fresh process; for serve-mix, server
//     start until the first /healthz 200. Median of at least 7.
//   - run_s: RunLoad wall time; for serve-mix, first submission to last
//     result.
//   - peak_rss_mib: peak RSS of the measuring process.
//   - msg_latency_p50_cycles, msg_latency_p99_cycles,
//     accepted_flits_per_node_cycle: simulated, from wave.Result (the
//     throughput keeps its definition, drain tail included). For serve-mix,
//     medians over the results of the first two seeds' distinct specs.
//   - job_latency_p50_ms, job_latency_p99_ms, jobs_per_s: for serve-mix, a
//     job is one submission, timed from submit to receipt of the result
//     bytes (p50 is the cache-hit path, p99 the simulation path). On
//     stress-16x16 a job is one simulation, a cold wave.New plus its
//     RunLoad, as waved runs it without the HTTP layer; with one job per
//     run their p99 is the slowest run, printed with its sample count.
//     (Timing slices of a run instead made the tail follow millisecond
//     host jitter rather than the simulator.)
//
// error_rate is printed beside them and carried by the result line's
// attempted and failed counts: (messages sent - delivered) / sent, where a
// watchdog trip or drain timeout fails every message of the run; for
// serve-mix, (non-2xx responses + result mismatches) / submissions.
//
// # Traced run (--trace 1)
//
// A separate run on --seed that reports the per-layer metrics. For the
// simulator workload it runs RunLoad untraced, then reproduces it from
// outside — traffic.Generator.Tick calling Simulator.Send, Simulator.Step
// per cycle, one Simulator.Drain with RunLoad's budget — with a span around
// every call, and fails unless the two runs end with equal wave.Stats and
// latencies. It also snapshots mid-measure, restores into a fresh
// simulator, drives it to the end and requires equal Stats, and runs
// RunLoad at Workers 0 and 2, which must match the Workers 1 Stats.
// serve-mix runs one untraced and one traced session (spans around every
// HTTP call, job views for executed jobs) and certifies each distinct
// configuration with verify.Certify. Routing Candidates and topology
// LinkByID/Neighbor are timed on each workload's fabric, on the routing
// representation routing.SelectTableCached picks for it. A layer a
// workload does not exercise reports 0 and is printed as n/a. Spans are
// written to .bench_build/spans/<workload>-seed<n>.tsv.
//
// Every output starts with a host manifest: VCS revision (when the build
// recorded one), a digest of the Go sources, Go version, num_cpu and
// GOMAXPROCS.
package main
