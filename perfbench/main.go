// Command perfbench is ecoDB's end-to-end benchmark. It drives one of
// three seeded workloads through the public functions of the server, sql,
// engine, opt, core (QED), mqo, workload and scanshare packages and prints
// both of ecoDB's currencies: the real Go program's wall-clock throughput,
// latency and allocations, and the simulated machine's joules and
// response times.
//
//	perfbench --workload serve_point|analytic|qed_shared --seed N --seconds S --trace 0|1
//
// Run it from the repository root, through perfbench/run.py, which builds
// it. With --trace 0 the last line of standard output is a JSON object
// holding every end-to-end metric that BENCHMARK.json lists. With --trace 1
// the run records spans around the benchmark's own calls into each layer,
// writes them to $PERFBENCH_OUT/spans-<workload>-<seed>.jsonl, and the last
// line holds every per-layer metric instead. No number comes from inside
// the program: everything is timed around public calls or read from
// obsv.Default().Snapshot() deltas, the CPU power trace, the admission log
// and the Go runtime. perfbench/README.md describes the workloads, the
// metrics and the checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"ecodb/internal/core"
	"ecodb/internal/obsv"
	"ecodb/internal/sim"
)

// opts are the command-line settings every workload receives.
type opts struct {
	seed    uint64
	seconds float64
	traced  bool
	outDir  string
	name    string
}

// report is one run's outcome: the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// spec is the part of BENCHMARK.json, at the root of the checkout, that
// the program reads: the names and units of the metrics it reports. A
// --trace 0 run of every workload reports every end-to-end metric; a
// --trace 1 run reports every per-layer metric, zero where the workload
// does not reach the layer.
var spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec() error {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	return json.Unmarshal(b, &spec)
}

var workloads = map[string]func(o opts) (*report, error){
	"serve_point": runServePoint,
	"analytic":    runAnalytic,
	"qed_shared":  runQEDShared,
}

func main() {
	var o opts
	flag.StringVar(&o.name, "workload", "", "serve_point, analytic or qed_shared")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for data and statement sequence")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured wall-clock seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	run, ok := workloads[o.name]
	if !ok || o.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", o.name, o.seconds, *trace)
		os.Exit(2)
	}
	o.traced = *trace == 1
	if err := loadSpec(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: read metric list: %v\n", err)
		os.Exit(1)
	}
	o.outDir = os.Getenv("PERFBENCH_OUT")
	if o.outDir == "" {
		o.outDir = ".bench_build"
	}
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%v GOMAXPROCS=%d NumCPU=%d %s\n",
		o.name, o.seed, o.seconds, o.traced, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	rep, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.name, err)
		os.Exit(1)
	}
	want := spec.EndToEnd
	if o.traced {
		want = spec.PerLayer
	}
	for _, m := range want {
		got, ok := rep.Metrics[m.Name]
		switch {
		case !ok && !o.traced:
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", m.Name)
			os.Exit(1)
		case !ok:
			rep.Metrics[m.Name] = metric{0, m.Unit}
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", m.Name, got.Value)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// newReport returns an empty, so far correct report.
func newReport() *report {
	return &report{Correct: true, Metrics: map[string]metric{}}
}

// set records a metric under the unit BENCHMARK.json gives it.
func (r *report) set(name string, v float64) {
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if m.Name == name {
			r.Metrics[name] = metric{v, m.Unit}
			return
		}
	}
	panic("perfbench: metric " + name + " is not in BENCHMARK.json")
}

// fail marks the run incorrect and says why on standard error.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

// check is fail unless cond holds.
func (r *report) check(cond bool, format string, args ...any) {
	if !cond {
		r.fail(format, args...)
	}
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// rtSample is a reading of the Go runtime's cumulative counters.
type rtSample struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// allocBytes returns the heap bytes allocated so far: cheap enough to read
// around single calls.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeap collects garbage and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// phase measures one closed-loop timed phase: wall time, allocations and
// garbage collections. It starts from a collected heap.
type phase struct {
	rt0     rtSample
	t0      time.Time
	elapsed time.Duration
	rt1     rtSample
}

func startPhase() *phase {
	runtime.GC()
	p := &phase{rt0: readRuntime()}
	p.t0 = time.Now()
	return p
}

func (p *phase) stop() {
	p.elapsed = time.Since(p.t0)
	p.rt1 = readRuntime()
}

// tally is what a closed-loop phase observed: a latency and a completion
// time per statement, and how many statements were attempted and how many
// of those were answered wrongly.
type tally struct {
	lats      []float64 // ms
	done      []time.Time
	attempted int64
	bad       int64
}

// add records n statements that completed now after lat, bad of them
// answered wrongly.
func (t *tally) add(lat time.Duration, n, bad int) {
	now := time.Now()
	for i := 0; i < n; i++ {
		t.lats = append(t.lats, ms(lat))
		t.done = append(t.done, now)
	}
	t.attempted += int64(n)
	t.bad += int64(bad)
}

// rounds calls step for each of the n entries of a fixed sequence, round
// after round, until the deadline has passed and at least one full round
// has run.
func rounds(n int, until time.Time, step func(round, i int) error) error {
	for round := 0; ; round++ {
		for i := 0; i < n; i++ {
			if round > 0 && time.Now().After(until) {
				return nil
			}
			if err := step(round, i); err != nil {
				return err
			}
		}
	}
}

// windows is how many equal slices of wall time a timed phase is cut
// into. Throughput and latency percentiles are taken per slice and the
// median slice is reported, so a burst of load from elsewhere on the
// machine that slows one slice does not move the run's figures.
const windows = 5

// setEndToEnd records the outcome of the timed phase: the counts, ok_frac
// and the wall-clock end-to-end metrics.
func (r *report) setEndToEnd(p *phase, t *tally) {
	r.Attempted, r.Failed = t.attempted, t.bad
	r.set("ok_frac", float64(t.attempted-t.bad)/float64(t.attempted))
	lats, done := t.lats, t.done
	width := p.elapsed / windows
	var tput, p50, p99 []float64
	i := 0
	for k := 1; k <= windows; k++ {
		end := p.t0.Add(time.Duration(k) * width)
		j := i
		for j < len(done) && (k == windows || !done[j].After(end)) {
			j++
		}
		tput = append(tput, float64(j-i)/width.Seconds())
		p50 = append(p50, percentile(lats[i:j], 0.50))
		p99 = append(p99, percentile(lats[i:j], 0.99))
		i = j
	}
	r.set("stmts_per_s", median(tput))
	r.set("lat_p50_ms", median(p50))
	r.set("lat_p99_ms", median(p99))
	r.set("alloc_kb_per_stmt", float64(p.rt1.allocBytes-p.rt0.allocBytes)/1024/float64(len(lats)))
}

// setRetained records the live heap that replay, which runs the n
// statements of the fixed sequence once on a fresh copy, leaves behind per
// statement. replay must drop its own records before it returns. keep
// lists everything that existed before the replay, the copies included,
// so that none of it is collected in between. A fixed sequence, rather
// than however many statements the timed phase fitted, makes the growth
// of the program's append-grown buffers the same from run to run.
func (r *report) setRetained(n int, replay func() error, keep ...any) error {
	h0 := liveHeap()
	if err := replay(); err != nil {
		return err
	}
	h1 := liveHeap()
	runtime.KeepAlive(keep)
	r.set("retained_b_per_stmt", (float64(h1)-float64(h0))/float64(n))
	return nil
}

// setRuntimeLayers records the Go runtime's per-layer metrics of a phase.
func (r *report) setRuntimeLayers(p *phase, n int) {
	cpu := p.rt1.totalCPU - p.rt0.totalCPU
	if cpu > 0 {
		r.set("runtime.gc_cpu_frac", (p.rt1.gcCPU-p.rt0.gcCPU)/cpu)
	}
	r.set("runtime.gc_per_kstmt", float64(p.rt1.gcCycles-p.rt0.gcCycles)*1000/float64(n))
}

// setupTimer collects repeated set-up timings; setup_s is their median so
// one slow set-up on a shared machine does not move it.
type setupTimer struct{ load, warm, total []float64 }

func (s *setupTimer) add(load, warm time.Duration) {
	s.load = append(s.load, load.Seconds())
	s.warm = append(s.warm, warm.Seconds())
	s.total = append(s.total, (load + warm).Seconds())
}

// setupCopies is how many identical systems a run builds from the seed.
// Their build times are the set-up samples. The first three are used: the
// measured one, a reference twin that answers through another path, and a
// spare for the replay and out-of-band timing.
const setupCopies = 5

// spanPath is where a traced run writes its spans.
func spanPath(o opts) string {
	return filepath.Join(o.outDir, fmt.Sprintf("spans-%s-%d.jsonl", o.name, o.seed))
}

// deadline returns when a phase of the given share of the run ends.
func deadline(o opts, share float64) time.Time {
	return time.Now().Add(time.Duration(o.seconds * share * float64(time.Second)))
}

// setCountLayers records the per-layer counts that come from deltas of the
// engine's metrics registry over n statements.
func (r *report) setCountLayers(a, b obsv.MetricsSnapshot, n float64) {
	d := func(name string) float64 { return float64(b.Counter(name) - a.Counter(name)) }
	r.set("exec.sort_rows_per_stmt", d(obsv.MetricSortRows)/n)
	r.set("exec.merge_passes_per_stmt", d(obsv.MetricMergePasses)/n)
	r.set("exec.probe_morsels_per_stmt", d(obsv.MetricProbeMorsels)/n)
	r.set("exec.batches_per_stmt", d(obsv.MetricBatches)/n)
	reads, misses := d(obsv.MetricPoolReads), d(obsv.MetricPoolMisses)
	r.set("storage.pool_reads_per_stmt", reads/n)
	r.set("storage.pool_misses_per_stmt", misses/n)
	if reads > 0 {
		r.set("storage.pool_miss_frac", misses/reads)
	}
	if passes := d(obsv.MetricSharedPasses); passes > 0 {
		r.set("scanshare.attaches_per_pass", d(obsv.MetricSharedAttaches)/passes)
	}
	r.set("scanshare.pages_surfaced_per_stmt", d(obsv.MetricSharedSurfaced)/n)
	planned := b.Histograms[obsv.MetricPlanningSecs].Count - a.Histograms[obsv.MetricPlanningSecs].Count
	r.set("opt.planned_frac", float64(planned)/n)
}

// setSim records the simulated metrics of a fixed statement sequence that
// ran on the machine between c0 and c1 with the given simulated response
// times (ms), one per statement.
func (r *report) setSim(sys *core.System, c0, c1 sim.Time, resp []float64) {
	n := float64(len(resp))
	r.set("sim_j_per_stmt", float64(sys.Machine.CPU.Trace().Energy(c0, c1))/n)
	r.set("sim_wall_j_per_stmt", float64(sys.Machine.WallEnergy(c0, c1))/n)
	r.set("sim_resp_p50_ms", percentile(resp, 0.5))
	r.set("sim_resp_p99_ms", percentile(resp, 0.99))
}
