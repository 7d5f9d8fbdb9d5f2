// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed wall-clock window in this process and prints, as
// the last line of its standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With -trace 1 the run also records spans around every
// call the benchmark makes into the repository's layers and reports the
// per-layer metrics, the tracing overhead, and a span dump. README.md in
// this directory maps every metric to its layer and workload.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload experiments --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times an untraced run builds its set-up before
// measuring; setup_s is the median, so one slow start does not move it.
const setupReps = 5

// inputs is how many input draws a run cycles through: pass i runs
// draw i mod inputs. Taking the median over several draws keeps a run's
// figures from hanging on a few costly task sets.
const inputs = 6

// minPasses is the fewest timed passes a run makes, whatever -seconds says.
const minPasses = 3

// inputSeed is the seed of input draw k of a run with the given seed.
func inputSeed(seed int64, k int) int64 { return seed*inputs + int64(k) }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// params are the command-line inputs every workload sees.
type params struct {
	seed   int64
	window time.Duration
	nproc  int
}

// workload is one set of inputs the benchmark drives. A run calls setup,
// then pass until the window is used, then report, then layers on a
// traced run, then close. A workload adds its metrics, operations and
// check failures to the results it was made with.
type workload interface {
	// setup builds the inputs from the seed and starts any in-process
	// servers; it is timed as one setup_s sample.
	setup(ctx context.Context) error
	// pass runs one timed unit of work on input draw k and returns its
	// duration. tr is nil on untraced passes.
	pass(ctx context.Context, k int, tr *tracer) (time.Duration, error)
	// report adds the end-to-end metrics and runs the checks that need
	// every pass to have finished.
	report(ctx context.Context) error
	// layers adds the per-layer metrics the traced passes recorded.
	layers(tr *tracer)
	// close stops everything setup and pass started and waits for it.
	close()
}

var workloadNames = []string{"experiments", "serve-mix", "dist-sweep"}

// endToEnd and perLayer are the metrics an untraced and a traced run
// print, in the order BENCHMARK.json lists them.
var (
	endToEnd = []string{
		"setup_s", "sweep_s", "req_per_s",
		"simulate_p50_ms", "multi_p50_ms", "batch_p50_ms", "max_rss_mb",
	}
	// The p99 latencies are per-layer: on a shared 2-vCPU host their
	// run-to-run spread is wider than any bound an end-to-end metric may
	// have.
	perLayer = []string{
		"simulate_p99_ms", "multi_p99_ms", "batch_p99_ms",
		"experiment.fig9_s", "experiment.fig13_s", "experiment.fig16_s",
		"experiment.robustness_s", "experiment.multicore_s",
		"experiment.runjobs_ms_per_shard", "experiment.foldjobs_ms",
		"task.generate_us_per_set", "task.integral_hyperperiod_frac",
		"sim.runner_ns_per_event", "sim.batch_ns_per_event", "sim.batch_table_ns_per_event",
		"sim.multi_ns_per_event", "sim.gang_ns_per_event", "sim.faulted_ns_per_event",
		"sim.checked_ns_per_event", "sim.events_per_run",
		"core.none_ns_per_event", "core.staticRM_ns_per_event", "core.staticEDF_ns_per_event",
		"core.ccEDF_ns_per_event", "core.ccRM_ns_per_event", "core.laEDF_ns_per_event",
		"sched.readyqueue_ns_per_op", "rtos.step_ns_per_job",
		"serve.simulate_handler_us", "serve.multi_handler_us", "serve.batch_handler_us",
		"serve.transport_us", "serve.decode_us", "serve.validate_us", "serve.encode_us",
		"serve.response_bytes", "serve.simulate_response_bytes", "serve.multi_response_bytes",
		"serve.batch_response_bytes", "serve.shed_total", "serve.shard_handler_ms",
		"fabric.shard_rtt_ms_p50", "fabric.shard_rtt_ms_p99", "fabric.dispatches",
		"fabric.retries", "fabric.hedges", "fabric.local_runs", "fabric.cache_hits",
		"fabric.useful_frac", "fabric.inflight_mean", "trace.overhead_frac",
	}
)

func newWorkload(name string, p params, r *results) (workload, error) {
	switch name {
	case "experiments":
		return newExperiments(p, r), nil
	case "serve-mix":
		return newServeMix(p, r), nil
	case "dist-sweep":
		return newDistSweep(p, r), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: experiments, serve-mix or dist-sweep")
	seed := fs.Int64("seed", 1, "workload seed; the same seed builds the same inputs")
	seconds := fs.Float64("seconds", 25, "wall-clock seconds of timed passes")
	traceFlag := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "spans"), "directory for the span dump of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *traceFlag)
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive, got %v\n", *seconds)
		return 2
	}
	p := params{
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		nproc:  runtime.NumCPU(),
	}
	r := newResults()
	ctx := context.Background()
	var err error
	if *traceFlag == 1 {
		err = runTraced(ctx, *name, p, r, *out, stdout)
	} else {
		err = runUntraced(ctx, *name, p, r)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	want := endToEnd
	if *traceFlag == 1 {
		want = perLayer
	}
	if err := r.print(stdout, *name, p, *traceFlag, want); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(ctx context.Context, name string, p params, r *results) error {
	w, err := newWorkload(name, p, r)
	if err != nil {
		return err
	}
	defer w.close()
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.close()
		}
		start := time.Now()
		if err := w.setup(ctx); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		r.addSetup(time.Since(start).Seconds())
	}

	var sweeps []float64
	start := time.Now()
	for len(sweeps) < minPasses || time.Since(start) < p.window {
		d, err := w.pass(ctx, len(sweeps)%inputs, nil)
		if err != nil {
			return err
		}
		sweeps = append(sweeps, d.Seconds())
	}
	r.set("sweep_s", "s", median(sweeps), len(sweeps))
	if err := w.report(ctx); err != nil {
		return err
	}
	r.set("setup_s", "s", median(r.setupSamples), len(r.setupSamples))
	r.set("max_rss_mb", "MB", maxRSSMB(), 1)
	return nil
}

// runTraced alternates untraced and traced passes of the named workload
// for the window, so trace.overhead_frac compares passes made under the
// same host conditions. The layers the workload does not exercise are
// then measured by one traced pass of the workload that does, and the
// layer ladder times each layer's public functions directly.
func runTraced(ctx context.Context, name string, p params, r *results, outDir string, stdout io.Writer) error {
	tr := newTracer()
	w, err := newWorkload(name, p, r)
	if err != nil {
		return err
	}
	defer w.close()
	if err := w.setup(ctx); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	var plain, traced []float64
	start := time.Now()
	for len(traced) < 2 || time.Since(start) < p.window {
		k := len(traced) % inputs
		d, err := w.pass(ctx, k, nil)
		if err != nil {
			return err
		}
		plain = append(plain, d.Seconds())
		if d, err = w.pass(ctx, k, tr); err != nil {
			return err
		}
		traced = append(traced, d.Seconds())
	}
	base := median(plain)
	r.set("trace.overhead_frac", "ratio", (median(traced)-base)/base, len(traced))
	if err := w.report(ctx); err != nil {
		return err
	}
	w.layers(tr)
	w.close()

	for _, other := range workloadNames {
		if other == name {
			continue
		}
		if err := probe(ctx, other, p, tr, r); err != nil {
			return fmt.Errorf("probe %s: %w", other, err)
		}
	}
	if err := runLadder(ctx, p, tr, r); err != nil {
		return fmt.Errorf("layer ladder: %w", err)
	}

	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", name, p.seed))
	if err := tr.dump(path, name, p.seed); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "span dump: %s (%d spans)\n", path, tr.len())
	return nil
}

// probe runs one traced pass of another workload for the span metrics of
// the layers it exercises. Its own end-to-end metrics and its
// task.integral_hyperperiod_frac are not reported, so a traced run's
// workload-specific figures come from its own workload only.
func probe(ctx context.Context, name string, p params, tr *tracer, r *results) error {
	side := newResults()
	w, err := newWorkload(name, p, side)
	if err != nil {
		return err
	}
	defer w.close()
	if err := w.setup(ctx); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	if _, err := w.pass(ctx, 0, tr); err != nil {
		return err
	}
	if err := w.report(ctx); err != nil {
		return err
	}
	w.layers(tr)
	// The run's own workload set its metrics first, so only the layers it
	// does not exercise are taken from the probe.
	for _, k := range side.order {
		if _, ok := r.metrics[k]; !ok {
			r.set(k, side.metrics[k].Unit, side.metrics[k].Value, side.samples[k])
		}
	}
	r.attempted += side.attempted
	r.failed += side.failed
	r.problems = append(r.problems, side.problems...)
	return nil
}

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// results collects one run's metrics, sample counts, operation counts,
// check failures and output digest.
type results struct {
	metrics      map[string]metric
	samples      map[string]int
	order        []string
	attempted    int
	failed       int
	problems     []string
	digests      []string
	setupSamples []float64
}

func newResults() *results {
	return &results{metrics: map[string]metric{}, samples: map[string]int{}}
}

func (r *results) set(name, unit string, v float64, n int) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

func (r *results) addSetup(seconds float64) { r.setupSamples = append(r.setupSamples, seconds) }

// op counts one attempted operation; a non-empty problem marks it failed.
func (r *results) op(problem string) {
	r.attempted++
	if problem != "" {
		r.failed++
		r.problems = append(r.problems, problem)
	}
}

// check records a failed correctness check that is not itself an
// operation, counting it against the operations already attempted.
func (r *results) check(problem string) {
	if problem != "" {
		r.failed++
		r.problems = append(r.problems, problem)
	}
}

func (r *results) digest(label, hex string) {
	r.digests = append(r.digests, label+" "+hex)
}

// print writes the wanted metrics as a table with their sample counts,
// the digests, any check failures, and the result line last.
func (r *results) print(w io.Writer, name string, p params, traceFlag int, want []string) error {
	out := make(map[string]metric, len(want))
	for _, k := range want {
		m, ok := r.metrics[k]
		if !ok {
			return fmt.Errorf("metric %s was not measured", k)
		}
		out[k] = m
	}
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%d nproc=%d\n",
		name, p.seed, p.window.Seconds(), traceFlag, p.nproc)
	for _, k := range want {
		m := out[k]
		fmt.Fprintf(w, "  %-36s %16.6g %-6s n=%d\n", k, m.Value, m.Unit, r.samples[k])
	}
	for _, d := range r.digests {
		fmt.Fprintf(w, "digest %s\n", d)
	}
	for _, pr := range r.problems {
		fmt.Fprintf(w, "FAILED: %s\n", pr)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile of xs (the smallest sample
// with at least p% of the samples at or below it); 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(float64(len(s))*p/100 + 0.999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}
