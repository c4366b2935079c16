// Command perfbench is the repository benchmark. It runs one workload
// against the cadb packages from outside, checks every output, and prints
// every metric by name and unit, the last line being one JSON object:
//
//	perfbench --workload advise|read-hot|readwrite-cold --seed N --seconds S --trace 0|1
//
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1 the
// run records spans around every call into the program, writes them as JSON
// under --out, and the JSON line carries the per-layer metrics. See
// README.md for the workloads, metrics and trace format.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// DefaultSeed is the seed benchmark claims are made on; HeldOutSeed is the
// seed a claim must also hold on, never used while a change is written.
const (
	DefaultSeed = 1
	HeldOutSeed = 20261017
)

// endToEndNames and perLayerNames are the metrics BENCHMARK.json lists, in
// its order. Every workload reports all of them. The JSON line carries
// exactly these, the end-to-end ones untraced and the per-layer ones traced;
// the other metrics a workload reports are printed above it. A run that
// lacks one of them fails instead of printing the line.
var (
	endToEndNames = []string{"setup_s", "tune_s", "round_s", "improvement_pct", "bytes_per_user_byte", "peak_heap_mb"}
	perLayerNames = []string{
		"datagen.generate_s",
		"core.candidate_gen_s", "sizeest.estimate_s", "sampling.sample_build_s", "sizing.plan_solve_s",
		"sizeest.plan_execute_s", "optimizer.enumerate_s", "core.refine_s",
		"estimator.samplecf_calls", "sizeest.admit_deduced_ratio", "optimizer.whatif_evals",
		"optimizer.stmt_reuse_ratio", "optimizer.cost_cache_hit_ratio", "core.candidates", "core.refinements",
		"index.build_ms_per_krow", "compress.design_decode_ns_per_tuple",
		"compress.decode_ns_per_tuple.NONE", "compress.decode_ns_per_tuple.ROW", "compress.decode_ns_per_tuple.PAGE",
		"compress.decode_ns_per_tuple.GDICT", "compress.decode_ns_per_tuple.RLE",
		"compress.encode_ns_per_tuple.NONE", "compress.encode_ns_per_tuple.ROW", "compress.encode_ns_per_tuple.PAGE",
		"compress.encode_ns_per_tuple.GDICT", "compress.encode_ns_per_tuple.RLE",
		"storage.spill_mb_per_s", "bufferpool.fetch_us",
	}
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool   // tiny inputs, for the smoke test
	out      string // directory for spill files, results and traces
}

// metric is one reported number. N is the sample count behind a measured
// value (0 for an exact count or a ratio of exact counts).
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
}

// report collects a run's inputs, metrics and check outcomes.
type report struct {
	inputs    []string // "name=value", in order
	e2e       []metric
	layer     []metric
	attempted int
	failed    int
	failures  []string
	peakHeap  uint64 // bytes; see collect
	benchHeap uint64 // live bytes held by the oracle, left out of peakHeap
	collects  int
}

func (r *report) input(name string, v any) {
	r.inputs = append(r.inputs, fmt.Sprintf("%s=%v", name, v))
}

func (r *report) addE2E(name, unit string, v float64, n int) {
	r.e2e = append(r.e2e, metric{name, unit, v, n})
}

func (r *report) addLayer(name, unit string, v float64, n int) {
	r.layer = append(r.layer, metric{name, unit, v, n})
}

// check records one attempted operation or invariant; a false ok counts as
// a failure with the formatted reason.
func (r *report) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

func (r *report) failedFrac() float64 { return ratio(float64(r.failed), float64(r.attempted)) }

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "advise, read-hot or readwrite-cold")
	flag.Int64Var(&cfg.seed, "seed", DefaultSeed, fmt.Sprintf("seed for the generated data and SQL (held-out seed: %d)", HeldOutSeed))
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measuring time in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "out"), "directory for spill files, results and traces")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// measure runs the configured workload and returns its report and, for a
// traced run, its spans.
func measure(cfg config) (*report, *tracer, error) {
	runner, ok := workloadsByName[cfg.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (want advise, read-hot or readwrite-cold)", cfg.workload)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	rep := &report{}
	steal0, total0 := cpuTicks()
	if err := runner(cfg, tr, rep); err != nil {
		return nil, nil, err
	}
	steal1, total1 := cpuTicks()
	rep.input("host_steal_pct", fmt.Sprintf("%.2f", 100*ratio(float64(steal1-steal0), float64(total1-total0))))
	rep.addE2E("peak_heap_mb", "MB", float64(rep.peakHeap)/(1<<20), rep.collects)
	return rep, tr, nil
}

// run executes one invocation and prints its report. It returns an error
// when the workload could not run or a check failed; in the latter case the
// report is printed first.
func run(cfg config, stdout io.Writer) error {
	rep, tr, err := measure(cfg)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(stdout)
	h := hostInfo()
	fmt.Fprintf(w, "host: %s\n", strings.Join(h, " "))
	fmt.Fprintf(w, "inputs: workload=%s seed=%d seconds=%g trace=%t %s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, strings.Join(rep.inputs, " "))
	printMetrics(w, "end-to-end", rep.e2e)
	fmt.Fprintf(w, "%-36s %14.6g %-6s (%d/%d)\n", "failed_frac", rep.failedFrac(), "ratio", rep.failed, rep.attempted)
	for _, f := range rep.failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	resultPath := filepath.Join(cfg.out, fmt.Sprintf("result-%s-seed%d-trace%d.json", cfg.workload, cfg.seed, btoi(cfg.trace)))
	if err := writeJSON(resultPath, metricsJSON(rep.e2e)); err != nil {
		return err
	}
	names, shown := endToEndNames, rep.e2e
	if cfg.trace {
		printMetrics(w, "per-layer", rep.layer)
		overhead := tracingOverhead(cfg, rep.e2e)
		for _, o := range overhead {
			fmt.Fprintf(w, "tracing overhead %s\n", o)
		}
		tracePath := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := writeTrace(tracePath, cfg, h, rep, tr, overhead); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace: %s (%d spans)\n", tracePath, len(tr.spans))
		names, shown = perLayerNames, rep.layer
	}
	listed, err := manifestMetrics(names, shown, !cfg.trace)
	if err != nil {
		w.Flush()
		return err
	}
	line, err := json.Marshal(map[string]any{
		"correct":   rep.failed == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   listed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	if err := w.Flush(); err != nil {
		return err
	}
	if rep.failed > 0 {
		return fmt.Errorf("%d of %d checks failed", rep.failed, rep.attempted)
	}
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func printMetrics(w *bufio.Writer, kind string, ms []metric) {
	fmt.Fprintf(w, "%s metrics:\n", kind)
	for _, m := range ms {
		n := "exact"
		if m.N > 0 {
			n = fmt.Sprintf("n=%d", m.N)
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-6s (%s)\n", m.Name, m.Value, m.Unit, n)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func metricsJSON(ms []metric) map[string]jsonMetric {
	out := make(map[string]jsonMetric, len(ms))
	for _, m := range ms {
		out[m.Name] = jsonMetric{m.Value, m.Unit}
	}
	return out
}

// manifestMetrics returns the named metrics of ms. It fails when one is
// missing or not a finite number, or, with positive set, not above zero.
func manifestMetrics(names []string, ms []metric, positive bool) (map[string]jsonMetric, error) {
	all := metricsJSON(ms)
	out := make(map[string]jsonMetric, len(names))
	for _, name := range names {
		m, ok := all[name]
		switch {
		case !ok:
			return nil, fmt.Errorf("metric %s was not measured", name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return nil, fmt.Errorf("metric %s = %g", name, m.Value)
		case positive && m.Value <= 0:
			return nil, fmt.Errorf("metric %s = %g, want above 0", name, m.Value)
		}
		out[name] = m
	}
	return out, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// tracingOverhead compares this traced run's end-to-end metrics with those
// of the untraced run of the same workload and seed, when one was made
// earlier into the same output directory.
func tracingOverhead(cfg config, traced []metric) []string {
	path := filepath.Join(cfg.out, fmt.Sprintf("result-%s-seed%d-trace0.json", cfg.workload, cfg.seed))
	b, err := os.ReadFile(path)
	if err != nil {
		return []string{"unknown: run --trace 0 with the same workload and seed first"}
	}
	var base map[string]jsonMetric
	if err := json.Unmarshal(b, &base); err != nil {
		return []string{fmt.Sprintf("unknown: %s: %v", path, err)}
	}
	var out []string
	for _, m := range traced {
		if b, ok := base[m.Name]; ok && b.Value != 0 {
			out = append(out, fmt.Sprintf("%s: %+.2f%% (%.6g traced vs %.6g untraced %s)",
				m.Name, 100*(m.Value/b.Value-1), m.Value, b.Value, m.Unit))
		}
	}
	return out
}

// traceFile is the JSON a traced run writes.
type traceFile struct {
	Workload        string                `json:"workload"`
	Seed            int64                 `json:"seed"`
	Host            []string              `json:"host"`
	Inputs          []string              `json:"inputs"`
	EndToEnd        map[string]jsonMetric `json:"end_to_end"`
	PerLayer        map[string]jsonMetric `json:"per_layer"`
	SelfTimeS       map[string]float64    `json:"self_time_s"`
	LayerSelfTimeS  map[string]float64    `json:"layer_self_time_s"`
	TracingOverhead []string              `json:"tracing_overhead"`
	Spans           []span                `json:"spans"`
}

func writeTrace(path string, cfg config, host []string, rep *report, tr *tracer, overhead []string) error {
	self := selfTimes(tr.spans)
	tf := traceFile{
		Workload:        cfg.workload,
		Seed:            cfg.seed,
		Host:            host,
		Inputs:          rep.inputs,
		EndToEnd:        metricsJSON(rep.e2e),
		PerLayer:        metricsJSON(rep.layer),
		SelfTimeS:       seconds(self),
		LayerSelfTimeS:  seconds(layerSelfTimes(self)),
		TracingOverhead: overhead,
		Spans:           tr.spans,
	}
	return writeJSON(path, tf)
}

func seconds(m map[string]time.Duration) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, d := range m {
		out[k] = d.Seconds()
	}
	return out
}

// hostInfo describes the machine a run was measured on.
func hostInfo() []string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return []string{
		fmt.Sprintf("nproc=%d", runtime.NumCPU()),
		fmt.Sprintf("gomaxprocs=%d", runtime.GOMAXPROCS(0)),
		"go=" + runtime.Version(),
		fmt.Sprintf("cpu=%q", cpu),
	}
}

// cpuTicks returns the machine's CPU time stolen by the hypervisor and its
// total CPU time, in ticks since boot, from the first line of /proc/stat
// (zeros where that is unavailable). Steal during a run is time the host
// gave to other machines; it slows every metric at once.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user .. steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// collect forces a garbage collection and records the live heap it marked,
// less what the oracle holds. Runs call it at fixed points outside the timed
// windows, so peak_heap_mb depends only on what the program holds at those
// points, not on when the collector happened to run.
func (r *report) collect() {
	r.peakHeap = max(r.peakHeap, max(liveHeap(), r.benchHeap)-r.benchHeap)
	r.collects++
}

// liveHeap forces a garbage collection and returns the live heap it marked.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
