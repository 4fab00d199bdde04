package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/wave"
)

// simWorkload is one open-loop simulator run, driven through the public
// wave API with the serial engine pinned (Workers: 1).
type simWorkload struct {
	radix           int
	load            wave.Workload
	cacheCapacity   int
	warmup, measure int64
	// reps is the least number of runs, each on its own input seed; the
	// simulated metrics are medians over the first reps of them.
	reps int
}

var simWorkloads = map[string]simWorkload{
	// The E7 stress router (Duato w=3, k=2, MB-2, 2-entry circuit caches,
	// 4-destination working sets with 70% reuse, CARP-style circuit
	// requests) on a 16x16 torus near saturation. Every injection cycle
	// does work, so fast-forward does not fire before the drain; the
	// 256-node fabric uses the flat routing table.
	"stress-16x16": {
		radix: 16,
		load: wave.Workload{
			Pattern: "uniform", Load: 0.2, FixedLength: 32,
			WorkingSet: 4, Reuse: 0.7, WantCircuit: true,
		},
		cacheCapacity: 2,
		warmup:        2000,
		measure:       12000,
		reps:          6,
	},
}

// config returns the simulator configuration and the workload for a seed.
func (w simWorkload) config(seed int64, workers int) (wave.Config, wave.Workload) {
	cfg := wave.DefaultConfig()
	cfg.Topology = wave.TopologyConfig{Kind: "torus", Radix: []int{w.radix, w.radix}}
	cfg.CacheCapacity = w.cacheCapacity
	cfg.Seed = mix(seed, 1)
	cfg.Workers = workers
	ld := w.load
	ld.Seed = mix(seed, 2)
	return cfg, ld
}

// drainBudget mirrors RunLoad's drain allowance: twenty times the
// injection phase, or 256 cycles per hop of diameter on large fabrics.
func (w simWorkload) drainBudget(s *wave.Simulator) int64 {
	d := (w.warmup + w.measure) * 20
	if scaled := int64(s.Topology().Diameter()) * 256; scaled > d {
		d = scaled
	}
	return d
}

// simReport is what one child process measured on one simulator run.
type simReport struct {
	SetupS float64 `json:"setup_s"`
	RunS   float64 `json:"run_s"`
	// JobS is one simulator "job": the cold wave.New plus the RunLoad.
	JobS       float64 `json:"job_s"`
	Digest     string  `json:"digest"`
	Sent       int64   `json:"sent"`
	Delivered  int64   `json:"delivered"`
	Measured   int64   `json:"measured"`
	P50        float64 `json:"p50"`
	P99        float64 `json:"p99"`
	Throughput float64 `json:"throughput"`
	Cycles     int64   `json:"cycles"`
	PeakRSSMiB float64 `json:"peak_rss_mib"`
	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	NumGC      uint32  `json:"num_gc"`
	Workers    int     `json:"workers"`
	// Traced runs only.
	TracedWallS float64            `json:"traced_wall_s,omitempty"`
	Layers      map[string]float64 `json:"layers,omitempty"`
	Lines       []string           `json:"lines,omitempty"`
	Err         string             `json:"err,omitempty"`
}

func statsDigest(st wave.Stats) string {
	j, err := json.Marshal(st)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return fmt.Sprintf("sha256:%x", sha256.Sum256(j))
}

// fillOutcome records the delivery accounting and digest of a finished run.
func fillOutcome(r *simReport, s *wave.Simulator) {
	st := s.Stats()
	r.Digest = statsDigest(st)
	r.Sent = st.Protocol.Sent
	r.Delivered = st.Protocol.DeliveredWormhole + st.Protocol.DeliveredCircuit
	r.Cycles = st.Cycle
	r.Workers = s.EngineWorkers()
}

// runSimRep is one untraced run in a fresh process: a cold wave.New, then
// RunLoad, timed separately.
func runSimRep(w simWorkload, seed int64, workers int) simReport {
	var r simReport
	cfg, ld := w.config(seed, workers)
	t0 := time.Now()
	s, err := wave.New(cfg)
	r.SetupS = time.Since(t0).Seconds()
	if err != nil {
		r.Err = "wave.New: " + err.Error()
		return r
	}
	defer s.Close()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t1 := time.Now()
	res, err := s.RunLoad(ld, w.warmup, w.measure)
	r.RunS = time.Since(t1).Seconds()
	runtime.ReadMemStats(&after)
	r.JobS = r.SetupS + r.RunS
	r.Mallocs = after.Mallocs - before.Mallocs
	r.AllocBytes = after.TotalAlloc - before.TotalAlloc
	r.NumGC = after.NumGC - before.NumGC
	fillOutcome(&r, s)
	r.PeakRSSMiB = peakRSSMiB()
	if err != nil {
		r.Err = "RunLoad: " + err.Error()
		return r
	}
	r.Measured = res.Delivered
	r.P50, r.P99, r.Throughput = res.P50Latency, res.P99Latency, res.Throughput
	return r
}

// newGenerator builds the traffic generator RunLoad would build for ld.
func newGenerator(s *wave.Simulator, ld wave.Workload) (*traffic.Generator, error) {
	pat, err := traffic.NewPattern(ld.Pattern, s.Topology())
	if err != nil {
		return nil, err
	}
	if ld.WorkingSet > 0 {
		pat, err = traffic.NewLocality(pat, s.Hosts(), ld.WorkingSet, ld.Reuse, ld.RedrawPeriod)
		if err != nil {
			return nil, err
		}
	}
	return traffic.NewGenerator(pat, traffic.Fixed{L: ld.FixedLength}, ld.Load, s.Hosts(), ld.Seed)
}

// runSimTraced reproduces RunLoad from outside: traffic.Generator.Tick calls
// Simulator.Send for each message, Simulator.Step advances each cycle of
// warmup and measurement, and one Simulator.Drain runs with RunLoad's
// budget. A span is recorded around every one of those calls. At
// mid-measure it also takes a checkpoint (see takeCheckpoint), whose
// restored simulator must finish with the same Stats.
func runSimTraced(w simWorkload, seed int64, spans spanFile) simReport {
	var r simReport
	cfg, ld := w.config(seed, 1)
	s, err := wave.New(cfg)
	if err != nil {
		r.Err = "wave.New: " + err.Error()
		return r
	}
	defer s.Close()
	gen, err := newGenerator(s, ld)
	if err != nil {
		r.Err = "traffic: " + err.Error()
		return r
	}
	rec := stats.NewRun(w.warmup)
	s.OnDelivered(func(d wave.Delivery) { rec.Record(d.Injected, d.Delivered, d.Len, d.ViaCircuit) })

	end := w.warmup + w.measure
	mid := w.warmup + w.measure/2
	start := time.Now()
	tr := newTracer(start, int(end)*4)
	var tick int32
	send := func(src, dst topology.Node, length int) {
		id := tr.begin("wave.Send", tick)
		s.Send(int(src), int(dst), length, ld.WantCircuit)
		tr.end(id)
	}
	var activeFrac float64
	var ck *checkpoint
	var ckTime time.Duration
	for s.Now() < end {
		if s.Now() == mid {
			t := time.Now()
			ck, err = takeCheckpoint(s, tr, ld)
			ckTime = time.Since(t)
			if err != nil {
				r.Err = err.Error()
				return r
			}
			defer ck.sim.Close()
		}
		tick = tr.begin("traffic.Tick", -1)
		gen.Tick(send)
		tr.end(tick)
		active, total := s.EnginePorts()
		activeFrac += float64(active) / float64(total)
		id := tr.begin("wave.Step", -1)
		err := s.Step()
		tr.end(id)
		if err != nil {
			r.Err = fmt.Sprintf("Step at cycle %d: %v", s.Now(), err)
			fillOutcome(&r, s)
			return r
		}
	}
	id := tr.begin("wave.Drain", -1)
	err = s.Drain(w.drainBudget(s))
	tr.end(id)
	wall := time.Since(start) - ckTime
	fillOutcome(&r, s)
	if err != nil {
		r.Err = "Drain: " + err.Error()
		return r
	}
	r.TracedWallS = wall.Seconds()
	r.Measured = rec.MsgsDelivered
	r.P50, r.P99, r.Throughput = rec.Latency.Percentile(50), rec.Latency.Percentile(99), rec.Throughput(s.Hosts())

	st := s.Stats()
	steps := tr.durations("wave.Step")
	busy := sumNs(steps)
	stepUS := scale(steps, 1e-3)
	sendNS := tr.durations("wave.Send")
	tickSelf := Percentile(tr.selfTimes("traffic.Tick"), 50)
	stepP50, stepP99 := Percentile(stepUS, 50), Percentile(stepUS, 99)
	sendP50, sendP99 := Percentile(sendNS, 50), Percentile(sendNS, 99)
	L := map[string]float64{
		"core.step_us.p50":            stepP50.Value,
		"core.step_us.p99":            stepP99.Value,
		"core.busy_s":                 busy,
		"core.drain_s":                sumNs(tr.durations("wave.Drain")),
		"core.drain_cycles":           float64(s.Now() - end),
		"core.cycles_per_busy_s":      float64(end) / busy,
		"wormhole.flits_moved":        float64(st.WHFlitsMoved),
		"wormhole.active_port_frac":   activeFrac / float64(end),
		"pcs.probes_launched":         float64(st.Probes.Launched),
		"pcs.probe_success_ratio":     ratio(st.Probes.Succeeded, st.Probes.Launched),
		"pcs.backtracks_per_probe":    ratio(st.Probes.Backtracks, st.Probes.Launched),
		"pcs.misroutes_per_probe":     ratio(st.Probes.Misroutes, st.Probes.Launched),
		"pcs.force_waits":             float64(st.Probes.ForceWaits),
		"protocol.sends":              float64(len(sendNS)),
		"protocol.send_ns.p50":        sendP50.Value,
		"protocol.send_ns.p99":        sendP99.Value,
		"protocol.circuit_fraction":   ratio(int64(rec.CircuitLatency.N()), rec.MsgsDelivered),
		"protocol.cache_hit_rate":     st.Cache.HitRate(),
		"protocol.setup_cycles_avg":   ratio(st.Protocol.SetupCyclesTotal, st.Protocol.SetupsOK),
		"protocol.wormhole_fallbacks": float64(st.Protocol.FallbackWormhole),
		"traffic.tick_self_ns.p50":    tickSelf.Value,
		"trace.span_coverage":         (tr.topLevel("wave.Snapshot", "wave.Restore").Seconds()) / wall.Seconds(),
	}
	r.Lines = append(r.Lines,
		"core.step_us "+stepP50.String()+", "+stepP99.String(),
		"protocol.send_ns "+sendP50.String()+", "+sendP99.String(),
		"traffic.tick_self_ns "+tickSelf.String(),
	)
	if ck != nil {
		if err := ck.finish(w, ld, st); err != nil {
			r.Err = err.Error()
			return r
		}
		L["snapshot.bytes"] = float64(ck.bytes)
		L["snapshot.encode_mb_per_s"] = float64(ck.bytes) / 1e6 / ck.encodeS
		L["snapshot.decode_mb_per_s"] = float64(ck.bytes) / 1e6 / ck.decodeS
		r.Lines = append(r.Lines, fmt.Sprintf("checkpoint at cycle %d: %d bytes, restored run's Stats equal the uninterrupted run's", mid, ck.bytes))
	}
	r.Layers = L
	if err := spans.write(tr); err != nil {
		r.Err = "write spans: " + err.Error()
	}
	return r
}

// checkpoint is a mid-run Snapshot restored into a fresh simulator, with a
// traffic generator replayed to the same point.
type checkpoint struct {
	sim              *wave.Simulator
	gen              *traffic.Generator
	bytes            int
	encodeS, decodeS float64 // median of three
}

// takeCheckpoint snapshots s three times (the encodings must match), then
// restores three times, keeping the last restored simulator. The traffic
// generator is not part of the simulator's state: a fresh one for ld is
// replayed through the cycles already run, without sending.
func takeCheckpoint(s *wave.Simulator, tr *tracer, ld wave.Workload) (*checkpoint, error) {
	var enc, dec []float64
	var first []byte
	for i := 0; i < 3; i++ {
		var buf bytes.Buffer
		id := tr.begin("wave.Snapshot", -1)
		err := s.Snapshot(&buf)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("Snapshot: %w", err)
		}
		enc = append(enc, float64(tr.spans[id].end-tr.spans[id].start)/1e9)
		if first == nil {
			first = buf.Bytes()
		} else if !bytes.Equal(first, buf.Bytes()) {
			return nil, fmt.Errorf("Snapshot: two encodings of one state differ")
		}
	}
	ck := &checkpoint{bytes: len(first)}
	for i := 0; i < 3; i++ {
		id := tr.begin("wave.Restore", -1)
		rs, err := wave.Restore(bytes.NewReader(first))
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("Restore: %w", err)
		}
		dec = append(dec, float64(tr.spans[id].end-tr.spans[id].start)/1e9)
		if ck.sim != nil {
			ck.sim.Close()
		}
		ck.sim = rs
	}
	ck.encodeS, ck.decodeS = Median(enc), Median(dec)
	gen, err := newGenerator(ck.sim, ld)
	if err != nil {
		return nil, err
	}
	for c := int64(0); c < s.Now(); c++ {
		gen.Tick(func(topology.Node, topology.Node, int) {})
	}
	ck.gen = gen
	return ck, nil
}

// finish drives the restored simulator from the checkpoint to the end
// exactly as the traced run went on, and requires its Stats to equal want.
func (ck *checkpoint) finish(w simWorkload, ld wave.Workload, want wave.Stats) error {
	s := ck.sim
	send := func(src, dst topology.Node, length int) { s.Send(int(src), int(dst), length, ld.WantCircuit) }
	for s.Now() < w.warmup+w.measure {
		ck.gen.Tick(send)
		if err := s.Step(); err != nil {
			return fmt.Errorf("restored run: Step at cycle %d: %w", s.Now(), err)
		}
	}
	if err := s.Drain(w.drainBudget(s)); err != nil {
		return fmt.Errorf("restored run: Drain: %w", err)
	}
	if got := s.Stats(); got != want {
		return fmt.Errorf("restored run's Stats %s differ from the uninterrupted run's %s", statsDigest(got), statsDigest(want))
	}
	return nil
}

func sumNs(ns []float64) float64 {
	var sum float64
	for _, v := range ns {
		sum += v
	}
	return sum / 1e9
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
