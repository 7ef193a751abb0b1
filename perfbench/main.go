// Command perfbench is spkadd's benchmark. One run measures one
// workload for a fixed time, checks every output exactly against a
// dense reference, and prints as its last line one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// An untraced run (--trace 0) reports the end-to-end metrics a user
// of spkadd sees; a traced run (--trace 1) repeats the run with spans
// and counters taken around the benchmark's own calls into each layer
// and reports the per-layer metrics, the tracing overhead among them.
// Build and run it from the repository root with
//
//	python3 perfbench/run.py --workload kadd-er --seed 1 --seconds 45 --trace 0
//
// Workloads, each a closed loop whose callers wait for every reply:
//
//   - kadd-er: one reused Adder with default Options sums k=32
//     Erdős–Rényi inputs (16384×256, d=16): about 131 k entries, within
//     L2, few duplicates. The kernels and the core engine do the work.
//   - kadd-rmat: the same caller on k=32 Graph500 R-MAT inputs
//     (65536×512, d=8): the same input volume with about 19 %
//     duplicates and power-law columns, so the weighted schedule and
//     the planner's duplicate-rate engine cutoff carry the weight.
//     BENCHMARK.json leaves it out: on a 2-vCPU host its p95 is
//     bimodal (see STEADINESS.md), so it is for manual runs.
//   - serve-stream: the HTTP daemon's handler on loopback, fed by
//     GOMAXPROCS producers cycling 256 pre-encoded frames (65536×256,
//     d=8). A round is 32 pushes and one wire snapshot of the tenant
//     sum, so background reductions land inside the round measured.
//
// End-to-end metrics. A sample is one Adder.Add call (kadd) or one
// round from its first push sent to its snapshot received
// (serve-stream). The timed phase is cut into windows of 200
// consecutive samples; latency_ms_p50 is the median over windows of
// each window's p50, latency_ms_p95 the lower quartile over windows of
// each window's p95, and entries_per_s the median over windows of the
// input entries of successful operations per wall-clock second. push_ms_p50 is what a caller
// waits for after handing in its input: one POST on serve-stream; on
// kadd the caller hands in its inputs and receives the sum in the
// same call, so it is the Add call. setup_s is the median of several
// set-ups (input generation plus warm-up); mem_peak_mb is the peak
// memory the Go runtime holds during the timed phase, inputs
// included.
//
// Per-layer metrics read 0 when the workload does not exercise the
// layer or a percentile has too few samples beyond it; the traced run
// names those on its "not_measured" line. Each run also prints the
// host it ran on, and a traced run writes its spans to
// .bench_build/perfbench/trace-<workload>-<seed>.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) tally() tally { return tally{attempted: r.Attempted, failed: r.Failed} }

// endToEnd lists the untraced run's metrics, in BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"entries_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p95", "ms"},
	{"push_ms_p50", "ms"},
	{"mem_peak_mb", "MB"},
}

// perLayer lists the traced run's metrics, in BENCHMARK.json order.
var perLayer = []struct{ name, unit string }{
	{"latency_ms_p99", "ms"},
	{"latency_ms_max", "ms"},
	{"latency.samples", "count"},
	{"engine.symbolic_ms", "ms"},
	{"engine.numeric_ms", "ms"},
	{"kernel.probes_per_entry", "ratio"},
	{"kernel.out_per_in", "ratio"},
	{"kernel.bytes_moved_computed", "B"},
	{"kernel.bw_fraction", "ratio"},
	{"host.copy_gbps", "GB/s"},
	{"sched.regions_per_call", "count"},
	{"sched.load_imbalance", "ratio"},
	{"sched.steals_per_call", "count"},
	{"sched.speedup_nproc", "ratio"},
	{"adder.allocs_per_call", "count"},
	{"wire.decode_us_per_frame", "us"},
	{"matrix.to_csc_us_per_frame", "us"},
	{"wire.encode_ms_per_snapshot", "ms"},
	{"server.push_handler_ms_p50", "ms"},
	{"server.sum_handler_ms_p50", "ms"},
	{"http.transport_ms_p50", "ms"},
	{"pool.reductions_per_round", "count"},
	{"pool.queue_depth_max", "count"},
	{"pool.k_per_round", "count"},
	{"gc.cycles_per_round", "count"},
	{"gc.pause_ms_total", "ms"},
	{"heap.alloc_mb_per_round", "MB"},
	{"overhead.setup_s", "s"},
	{"overhead.entries_per_s", "1/s"},
	{"overhead.latency_ms_p50", "ms"},
	{"overhead.latency_ms_p95", "ms"},
	{"overhead.push_ms_p50", "ms"},
	{"overhead.mem_peak_mb", "MB"},
}

// workload is one benchmark workload. setup builds a fresh instance
// (inputs, caller, warm-up), discarding any earlier one; measure runs
// the timed phase; verify checks the last output exactly; layers adds
// the traced phase's per-layer figures to m.
type workload interface {
	setup(tr *tracer) error
	measure(d time.Duration, tr *tracer) *phase
	verify() error
	layers(ph *phase, tr *tracer, m map[string]float64, labels map[string]string)
	close() error
}

// phase holds what one timed phase measured.
type phase struct {
	tally
	start   time.Time
	lat     []float64       // ms per sample: one Add call or one round
	ends    []time.Duration // when each sample ended, since start
	carried []int64         // input entries of each sample's successful operations
	// push holds pushPer push latencies (ms) per sample, in sample
	// order; pushPer 0 means the sample itself is what a caller waits
	// for.
	push    []float64
	pushPer int
	memMB   float64
	gc      uint64 // GC cycles completed
	allocB  uint64 // heap bytes allocated
	pauseNs uint64 // total stop-the-world GC pause
}

func newPhase(capacity int) *phase {
	return &phase{
		start:   time.Now(),
		lat:     make([]float64, 0, capacity),
		ends:    make([]time.Duration, 0, capacity),
		carried: make([]int64, 0, capacity),
	}
}

// sample records one latency sample that ended at end and carried
// entries input entries through successful operations.
func (ph *phase) sample(lat float64, end time.Time, entries int64) {
	ph.lat = append(ph.lat, lat)
	ph.ends = append(ph.ends, end.Sub(ph.start))
	ph.carried = append(ph.carried, entries)
}

// phaseProbe brackets a timed phase with runtime counter reads.
type phaseProbe struct {
	g                  *runtimeGauges
	mem                memPeak
	gc0, alloc0, pause uint64
}

func startProbe() *phaseProbe {
	g := newRuntimeGauges()
	p := &phaseProbe{g: g, mem: memPeak{g: g}}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.pause = ms.PauseTotalNs
	_, p.gc0, p.alloc0 = g.read()
	p.mem.sample()
	return p
}

func (p *phaseProbe) stop(ph *phase) {
	p.mem.sample()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	_, gc, alloc := p.g.read()
	ph.gc, ph.allocB, ph.pauseNs = gc-p.gc0, alloc-p.alloc0, ms.PauseTotalNs-p.pause
	ph.memMB = p.mem.mb()
}

// rate is the input entries per second carried by samples [a, b),
// over the wall-clock time from the end of sample a-1 (or the phase
// start) to the end of sample b-1.
func (ph *phase) rate(a, b int) float64 {
	var from time.Duration
	if a > 0 {
		from = ph.ends[a-1]
	}
	var n int64
	for _, e := range ph.carried[a:b] {
		n += e
	}
	return float64(n) / (ph.ends[b-1] - from).Seconds()
}

// endToEnd computes the end-to-end metrics. Host contention on a
// shared machine comes in bursts of seconds, so each figure is the
// median over consecutive windows of windowSamples samples of that
// window's figure: a burst moves the windows it covers, not the
// median, unless it covers half the run. The p95 takes the lower
// quartile instead: a call that loses a vCPU for a moment runs up to
// twice as long, and once more than 5 % of a window's calls are hit
// its p95 jumps to that slow mode, so under steady light contention
// half the windows can read slow. A tail the program adds to every
// window still moves the lower quartile.
func (ph *phase) endToEnd(setupS float64) (map[string]float64, error) {
	ws, err := windows(len(ph.lat))
	if err != nil {
		return nil, err
	}
	var p50s, p95s, pushes, rates []float64
	for _, w := range ws {
		a, b := w[0], w[1]
		lat := slices.Sorted(slices.Values(ph.lat[a:b]))
		p50, err := percentile(lat, 0.5)
		if err != nil {
			return nil, err
		}
		p95, err := percentile(lat, 0.95)
		if err != nil {
			return nil, err
		}
		push := p50
		if ph.pushPer > 0 {
			push = median(ph.push[a*ph.pushPer : b*ph.pushPer])
		}
		p50s, p95s = append(p50s, p50), append(p95s, p95)
		pushes, rates = append(pushes, push), append(rates, ph.rate(a, b))
	}
	return map[string]float64{
		"setup_s":        setupS,
		"entries_per_s":  median(rates),
		"latency_ms_p50": median(p50s),
		"latency_ms_p95": lowerQuartile(p95s),
		"push_ms_p50":    median(pushes),
		"mem_peak_mb":    ph.memMB,
	}, nil
}

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "kadd-er":
		return newKadd(shape{Rows: 16384, Cols: 256, D: 16}, seed), nil
	case "kadd-rmat":
		return newKadd(shape{Rows: 65536, Cols: 512, D: 8, RMAT: true}, seed), nil
	case "serve-stream":
		return newServe(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want kadd-er, kadd-rmat or serve-stream)", name)
}

// setupReps set-ups are timed per run and their median reported, so
// one slow page-fault storm does not decide setup_s.
const setupReps = 5

// setupMedian runs setupReps set-ups and returns their median seconds;
// the last set-up's instance is the one measured.
func setupMedian(w workload, tr *tracer) (float64, error) {
	times := make([]float64, setupReps)
	for i := range times {
		t0 := time.Now()
		if err := w.setup(tr); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		times[i] = time.Since(t0).Seconds()
	}
	// Start the timed phase on a collected heap with memory returned
	// to the OS, so earlier set-ups leave no garbage behind.
	debug.FreeOSMemory()
	return median(times), nil
}

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

func main() {
	var c config
	var trace int
	flag.StringVar(&c.workload, "workload", "", "workload: kadd-er, kadd-rmat or serve-stream")
	flag.Uint64Var(&c.seed, "seed", 1, "seed the inputs are generated from")
	flag.IntVar(&c.seconds, "seconds", 45, "length of each timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced phase and reports per-layer metrics")
	flag.Parse()
	c.trace = trace == 1
	if c.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printLine(map[string]any{"attempted": res.Attempted, "failed": res.Failed,
		"failure_fraction": res.tally().failureFraction()})
	printLine(res)
	if !res.Correct {
		os.Exit(1)
	}
}

// printLine writes one JSON object as a line of standard output.
func printLine(v any) {
	b, _ := json.Marshal(v)
	fmt.Println(string(b))
}

func run(c config) (*result, error) {
	w, err := newWorkload(c.workload, c.seed)
	if err != nil {
		return nil, err
	}
	host := readHost(c.seed)
	printLine(map[string]any{"host": host, "workload": c.workload, "seconds": c.seconds, "trace": c.trace})

	setupS, err := setupMedian(w, nil)
	if err != nil {
		return nil, errors.Join(err, w.close())
	}
	ph := w.measure(time.Duration(c.seconds)*time.Second, nil)
	res := &result{Correct: true, Attempted: ph.attempted, Failed: ph.failed, Metrics: map[string]metric{}}
	if err := w.verify(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: verification:", err)
		res.Correct = false
		res.Failed++
	}
	e2e, err := ph.endToEnd(setupS)
	if err != nil {
		return nil, errors.Join(err, w.close())
	}
	if !c.trace {
		if err := w.close(); err != nil {
			return nil, err
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{e2e[m.name], m.unit}
		}
		return res, nil
	}
	vals, err := traced(c, w, res, e2e)
	if err != nil {
		return nil, errors.Join(err, w.close())
	}
	if err := w.close(); err != nil {
		return nil, err
	}
	// The copy-bandwidth probe maps 4× L3 of memory, so it runs last,
	// after every timed phase and memory reading.
	gbps := copyGBps(host.L3Bytes)
	vals["host.copy_gbps"] = gbps
	if b := vals["kernel.bytes_moved_computed"]; b > 0 {
		// Achieved bandwidth of an untraced call at its median time.
		vals["kernel.bw_fraction"] = b / (e2e["latency_ms_p50"] / 1e3) / 1e9 / gbps
	}
	var missing []string
	for _, m := range perLayer {
		v, ok := vals[m.name]
		if !ok {
			missing = append(missing, m.name)
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	printLine(map[string]any{"not_measured": missing})
	return res, nil
}

// traced repeats set-up and timed phase with tracing on, adds its
// operations to res, and returns the per-layer figures it measured,
// the tracing overhead over the untraced figures e2e among them.
func traced(c config, w workload, res *result, e2e map[string]float64) (map[string]float64, error) {
	tr := newTracer(1 << 16)
	setupS, err := setupMedian(w, tr)
	if err != nil {
		return nil, err
	}
	ph := w.measure(time.Duration(c.seconds)*time.Second, tr)
	res.Attempted += ph.attempted
	res.Failed += ph.failed
	if err := w.verify(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: verification (traced):", err)
		res.Correct = false
		res.Failed++
	}
	e2eT, err := ph.endToEnd(setupS)
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{}
	labels := map[string]string{}
	w.layers(ph, tr, vals, labels)
	printLine(map[string]any{"labels": labels})
	for _, m := range endToEnd {
		vals["overhead."+m.name] = e2eT[m.name] - e2e[m.name]
	}
	lat := slices.Sorted(slices.Values(ph.lat))
	// Pooled over the whole traced phase: too few samples per window.
	if v, err := percentile(lat, 0.99); err == nil {
		vals["latency_ms_p99"] = v
	}
	vals["latency_ms_max"] = lat[len(lat)-1]
	vals["latency.samples"] = float64(len(lat))
	n := float64(len(ph.lat))
	vals["gc.cycles_per_round"] = float64(ph.gc) / n
	vals["gc.pause_ms_total"] = float64(ph.pauseNs) / 1e6
	vals["heap.alloc_mb_per_round"] = float64(ph.allocB) / n / (1 << 20)
	path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s-%d.json", c.workload, c.seed))
	if err := writeSpans(path, tr.snapshot()); err != nil {
		return nil, err
	}
	return vals, nil
}

// writeSpans writes the traced run's spans as one JSON array.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
