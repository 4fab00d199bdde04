package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/wave"
)

// Serve-mix shape: serveSubmissions seeded submissions drawn from the
// distinct load specs of serveFabrics, sent by serveClients closed-loop
// clients to an in-process waved server with its default configuration,
// except that the job store keeps every record of a session (waved -store
// serveSubmissions). With the default 256 records a job record is evicted
// between the end of its run and its client's result request whenever more
// than 256 cache hits land while it runs: the record is the store's least
// recently used once the job is terminal, and the client gets a 404.
const (
	serveSubmissions = 1200
	serveClients     = 2
	serveWarmup      = 500
	serveMeasure     = 2500
)

// serveFabric is one fabric of the mix and the grid of load specs run on it.
type serveFabric struct {
	topo      wave.TopologyConfig
	routing   string
	protocols []string
	patterns  []string
	loads     []float64
	lengths   []int
}

var serveFabrics = []serveFabric{
	{wave.TopologyConfig{Kind: "torus", Radix: []int{8, 8}}, "duato",
		[]string{"clrp", "carp", "wormhole", "pcs"}, []string{"uniform", "neighbor", "bitcomplement"},
		[]float64{0.04, 0.08, 0.12}, []int{16, 64}},
	{wave.TopologyConfig{Kind: "fattree", Radix: []int{4}, Dims: 3}, "updown",
		[]string{"clrp", "carp"}, []string{"uniform"}, []float64{0.04, 0.08, 0.12}, []int{16, 64}},
	{wave.TopologyConfig{Kind: "fullmesh", Radix: []int{32}}, "vcfree",
		[]string{"clrp", "carp"}, []string{"uniform"}, []float64{0.04, 0.08, 0.12}, []int{16, 64}},
	{wave.TopologyConfig{Kind: "torus", Radix: []int{16, 16}}, "duato",
		[]string{"clrp"}, []string{"uniform"}, []float64{0.03, 0.06}, []int{16, 64}},
}

// serveSpec is one distinct job spec of the mix.
type serveSpec struct {
	cfg  wave.Config
	body []byte // the JSON the clients submit
}

// serveMix returns the distinct specs for a seed and the submission order:
// every spec once plus random repeats, shuffled. Each (fabric, protocol)
// pair has one simulator configuration, so the verdict cache sees a
// handful of configurations while the result cache sees every spec.
func serveMix(seed int64) ([]serveSpec, []int) {
	var specs []serveSpec
	for fi, f := range serveFabrics {
		for pi, proto := range f.protocols {
			cfg := wave.DefaultConfig()
			cfg.Topology = f.topo
			cfg.Routing = f.routing
			cfg.Protocol = proto
			cfg.Seed = mix(seed, uint64(100+10*fi+pi))
			for _, pat := range f.patterns {
				for _, ld := range f.loads {
					for _, l := range f.lengths {
						w := wave.Workload{
							Pattern: pat, Load: ld, FixedLength: l,
							WantCircuit: proto == "carp",
							Seed:        mix(seed, uint64(1000+len(specs))),
						}
						specs = append(specs, serveSpec{cfg: cfg, body: specJSON(cfg, w)})
					}
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	order := make([]int, 0, serveSubmissions)
	for i := range specs {
		order = append(order, i)
	}
	for len(order) < serveSubmissions {
		order = append(order, rng.Intn(len(specs)))
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return specs, order
}

// specJSON renders a sparse load-job spec: only the fields that differ from
// the server's defaults are spelled out.
func specJSON(cfg wave.Config, w wave.Workload) []byte {
	b, err := json.Marshal(map[string]any{
		"kind": "load",
		"config": map[string]any{
			"Topology": cfg.Topology, "Routing": cfg.Routing,
			"Protocol": cfg.Protocol, "Seed": cfg.Seed,
		},
		"load":    w,
		"warmup":  serveWarmup,
		"measure": serveMeasure,
	})
	if err != nil {
		panic(err) // only plain values above
	}
	return b
}

// serveReport is what one child process measured on one serve-mix session.
type serveReport struct {
	SetupS      float64   `json:"setup_s"`
	RunS        float64   `json:"run_s"`
	LatencyMS   []float64 `json:"latency_ms"`
	Submissions int       `json:"submissions"`
	HTTPErrors  int       `json:"http_errors"`
	Mismatches  int       `json:"mismatches"`
	// ResultSHA holds the SHA-256 of each distinct spec's result bytes;
	// P50/P99/Throughput its simulated figures.
	ResultSHA  []string           `json:"result_sha"`
	P50        []float64          `json:"p50"`
	P99        []float64          `json:"p99"`
	Throughput []float64          `json:"throughput"`
	Metrics    map[string]float64 `json:"metrics"`
	PeakRSSMiB float64            `json:"peak_rss_mib"`
	Mallocs    uint64             `json:"mallocs"`
	AllocBytes uint64             `json:"alloc_bytes"`
	NumGC      uint32             `json:"num_gc"`
	// Traced sessions only.
	Layers map[string]float64 `json:"layers,omitempty"`
	Lines  []string           `json:"lines,omitempty"`
	Errors []string           `json:"errors,omitempty"`
	Err    string             `json:"err,omitempty"`
}

// liveServer is an in-process waved: the job server behind its HTTP handler
// on a loopback listener.
type liveServer struct {
	jobs   *server.Server
	http   *http.Server
	url    string
	served chan error
}

// startServer starts the server and returns once /healthz answers 200,
// with the time that took.
func startServer(client *http.Client) (*liveServer, time.Duration, error) {
	t0 := time.Now()
	ls := &liveServer{jobs: server.New(server.Config{StoreCap: serveSubmissions}), served: make(chan error, 1)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ls.jobs.Shutdown(context.Background())
		return nil, 0, err
	}
	ls.http = &http.Server{Handler: ls.jobs.Handler()}
	ls.url = "http://" + ln.Addr().String()
	go func() { ls.served <- ls.http.Serve(ln) }()
	for {
		resp, err := client.Get(ls.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return ls, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 10*time.Second {
			ls.stop()
			return nil, 0, fmt.Errorf("healthz not ready after 10s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the HTTP listener and the job workers down and waits for both.
func (ls *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := ls.http.Shutdown(ctx)
	jerr := ls.jobs.Shutdown(ctx)
	if err := <-ls.served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return errors.Join(herr, jerr)
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   120 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients},
	}
}

// runServeSetup measures one server start in a fresh process.
func runServeSetup() (float64, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	ls, d, err := startServer(client)
	if err != nil {
		return 0, err
	}
	return d.Seconds(), ls.stop()
}

// jobOutcome is one submission as its client saw it.
type jobOutcome struct {
	spec      int
	latencyMS float64
	sha       [32]byte
	result    []byte
	err       string
	// From the job view (traced sessions, executed jobs only).
	queueWaitMS, serviceMS float64
	executed               bool
}

// runServeSession starts a server, replays the seed's submission order
// through serveClients closed-loop clients, and checks every result.
func runServeSession(seed int64, traced bool, spans spanFile) serveReport {
	var r serveReport
	specs, order := serveMix(seed)
	client := newClient()
	defer client.CloseIdleConnections()
	ls, setup, err := startServer(client)
	if err != nil {
		r.Err = "start server: " + err.Error()
		return r
	}
	r.SetupS = setup.Seconds()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	origin := time.Now()
	outcomes := make([]jobOutcome, len(order))
	tracers := make([]*tracer, serveClients)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		if traced {
			tracers[c] = newTracer(origin, 5*len(order)/serveClients)
		}
		wg.Add(1)
		go func(tr *tracer) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				outcomes[i] = submit(client, ls.url, order[i], specs[order[i]].body, tr)
			}
		}(tracers[c])
	}
	wg.Wait()
	runEnd := time.Now()
	r.RunS = runEnd.Sub(origin).Seconds()
	runtime.ReadMemStats(&after)
	r.Mallocs = after.Mallocs - before.Mallocs
	r.AllocBytes = after.TotalAlloc - before.TotalAlloc
	r.NumGC = after.NumGC - before.NumGC

	r.Metrics, err = scrapeMetrics(client, ls.url)
	if serr := ls.stop(); err == nil {
		err = serr
	}
	if err != nil {
		r.Err = err.Error()
		return r
	}
	r.PeakRSSMiB = peakRSSMiB()
	r.Submissions = len(order)
	r.ResultSHA = make([]string, len(specs))
	r.P50 = make([]float64, len(specs))
	r.P99 = make([]float64, len(specs))
	r.Throughput = make([]float64, len(specs))
	first := make([][32]byte, len(specs))
	seen := make([]bool, len(specs))
	var queueWait, service []float64
	for _, o := range outcomes {
		if o.err != "" {
			r.HTTPErrors++
			if len(r.Errors) < 5 {
				r.Errors = append(r.Errors, o.err)
			}
			continue
		}
		r.LatencyMS = append(r.LatencyMS, o.latencyMS)
		if o.executed {
			queueWait = append(queueWait, o.queueWaitMS)
			service = append(service, o.serviceMS)
		}
		if !seen[o.spec] {
			seen[o.spec] = true
			first[o.spec] = o.sha
			r.ResultSHA[o.spec] = fmt.Sprintf("%x", o.sha)
			var res server.Result
			if err := json.Unmarshal(o.result, &res); err != nil || res.Load == nil {
				r.Err = fmt.Sprintf("spec %d: result is not a load result: %v", o.spec, err)
				return r
			}
			r.P50[o.spec], r.P99[o.spec], r.Throughput[o.spec] = res.Load.P50Latency, res.Load.P99Latency, res.Load.Throughput
		} else if o.sha != first[o.spec] {
			r.Mismatches++
		}
	}
	if traced {
		r.Layers, r.Lines = serveLayers(r, tracers, queueWait, service, runEnd.Sub(origin))
		if err := spans.write(tracers...); err != nil {
			r.Err = "write spans: " + err.Error()
		}
	}
	return r
}

// submit runs one closed-loop request: POST the spec, wait on the progress
// stream unless the job is already done, then fetch the result bytes.
func submit(client *http.Client, url string, spec int, body []byte, tr *tracer) jobOutcome {
	o := jobOutcome{spec: spec}
	t0 := time.Now()
	root := traceBegin(tr, "job", -1)
	defer traceEnd(tr, root)

	id := traceBegin(tr, "http.submit", root)
	resp, err := client.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	var view server.View
	if err == nil {
		err = decodeBody(resp, http.StatusCreated, &view)
	}
	traceEnd(tr, id)
	if err != nil {
		o.err = "submit: " + err.Error()
		return o
	}
	if view.State != server.StateDone {
		id = traceBegin(tr, "http.stream", root)
		err = getBody(client, url+"/v1/jobs/"+view.ID+"/stream", nil)
		traceEnd(tr, id)
		if err != nil {
			o.err = "stream: " + err.Error()
			return o
		}
	}
	var result []byte
	id = traceBegin(tr, "http.result", root)
	err = getBody(client, url+"/v1/jobs/"+view.ID+"/result", &result)
	traceEnd(tr, id)
	if err != nil {
		o.err = "result: " + err.Error()
		return o
	}
	o.latencyMS = float64(time.Since(t0)) / 1e6
	o.sha = sha256.Sum256(result)
	o.result = result

	if tr != nil && view.State != server.StateDone {
		id = traceBegin(tr, "http.jobview", root)
		var v server.View
		resp, err := client.Get(url + "/v1/jobs/" + view.ID)
		if err == nil {
			err = decodeBody(resp, http.StatusOK, &v)
		}
		traceEnd(tr, id)
		if err != nil {
			o.err = "job view: " + err.Error()
			return o
		}
		if v.Started != nil && v.Finished != nil {
			o.executed = true
			o.queueWaitMS = float64(v.Started.Sub(v.Submitted)) / 1e6
			o.serviceMS = float64(v.Finished.Sub(*v.Started)) / 1e6
		}
	}
	return o
}

func traceBegin(tr *tracer, name string, parent int32) int32 {
	if tr == nil {
		return -1
	}
	return tr.begin(name, parent)
}

func traceEnd(tr *tracer, id int32) {
	if tr != nil {
		tr.end(id)
	}
}

// decodeBody requires status want and decodes the JSON body into v.
func decodeBody(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// getBody GETs url, requires 200, and stores the body in *out (or discards
// it when out is nil).
func getBody(client *http.Client, url string, out *[]byte) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	if out != nil {
		*out = b
	}
	return nil
}

// scrapeMetrics reads the waved_* samples of /metrics.
func scrapeMetrics(client *http.Client, url string) (map[string]float64, error) {
	var body []byte
	if err := getBody(client, url+"/metrics", &body); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	m := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		m[name] = v
	}
	return m, sc.Err()
}

// serveLayers derives the server, result-cache and verdict-cache metrics of
// a traced session.
func serveLayers(r serveReport, tracers []*tracer, queueWait, service []float64, wall time.Duration) (map[string]float64, []string) {
	m := r.Metrics
	qw50, qw99 := Percentile(queueWait, 50), Percentile(queueWait, 99)
	sv50, sv99 := Percentile(service, 50), Percentile(service, 99)
	var covered time.Duration
	for _, tr := range tracers {
		covered += tr.topLevel()
	}
	verdicts := m["waved_verify_cache_hits_total"] + m["waved_verify_certified_total"] + m["waved_verify_rejected_total"]
	L := map[string]float64{
		"server.queue_wait_ms.p50":       qw50.Value,
		"server.queue_wait_ms.p99":       qw99.Value,
		"server.service_ms.p50":          sv50.Value,
		"server.service_ms.p99":          sv99.Value,
		"resultcache.hit_ratio":          m["waved_cache_hits_total"] / m["waved_jobs_submitted_total"],
		"resultcache.executed_jobs":      m["waved_jobs_completed_total"],
		"verify.verdict_cache_hit_ratio": m["waved_verify_cache_hits_total"] / verdicts,
		"trace.span_coverage":            covered.Seconds() / (wall.Seconds() * float64(len(tracers))),
	}
	lines := []string{
		"server.queue_wait_ms " + qw50.String() + ", " + qw99.String(),
		"server.service_ms " + sv50.String() + ", " + sv99.String(),
	}
	return L, lines
}
