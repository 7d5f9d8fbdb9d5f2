package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"rtdvs/internal/experiment"
	"rtdvs/internal/task"
)

// Task sets per utilization point (per rate and per grid cell for the
// robustness panel). The paper averages hundreds. These keep one pass
// near six seconds on two cores, with enough distinct sets that the
// pass's cost barely depends on the seed: a set's simulation cost grows
// with its longest-to-shortest period ratio, which varies tenfold
// between sets.
const (
	fig9Sets       = 8
	fig13Sets      = 6
	fig16Sets      = 6
	robustnessSets = 40
	multicoreSets  = 3
)

// The robustness panel runs one fault rate and one grid regime rather
// than the full axes: every rate and regime reruns the same sets, so its
// budget buys more distinct sets this way.
var (
	robustnessRates   = []float64{0.1}
	robustnessRegimes = []string{"sustained"}
)

// Operation classes. On experiments they name the engine a panel runs
// on: the lockstep BatchRunner behind experiment.RunContext (batch), the
// scalar Runner and the rtos kernel (simulate), and the MultiRunner
// (multi). On serve-mix they are the three request classes.
const (
	classSimulate = "simulate"
	classMulti    = "multi"
	classBatch    = "batch"
)

var classes = []string{classSimulate, classMulti, classBatch}

// panel is one call a reproducer makes into internal/experiment.
type panel struct {
	name  string
	class string
	run   func(ctx context.Context, o experiment.Options) (any, error)
	check func(out any) string
}

func experimentPanels() []panel {
	return []panel{
		{"fig9", classBatch, func(ctx context.Context, o experiment.Options) (any, error) {
			o.Sets = fig9Sets
			return experiment.Figure9Context(ctx, 10, o)
		}, func(out any) string {
			sw := out.(*experiment.Sweep)
			return join(orderingProblem("fig9", sw.Energy, sw.Bound), edfMissProblem("fig9", sw.Misses))
		}},
		{"fig13", classBatch, func(ctx context.Context, o experiment.Options) (any, error) {
			o.Sets = fig13Sets
			return experiment.Figure13Context(ctx, o)
		}, func(out any) string {
			sw := out.(*experiment.Sweep)
			return join(orderingProblem("fig13", sw.Normalized, sw.BoundNorm), edfMissProblem("fig13", sw.Misses))
		}},
		// Figure 16 runs on the rtos kernel with the K6-2+'s switch stop
		// intervals, which the EDF test does not budget for (EXPERIMENTS.md,
		// switch-overhead ablation), so its misses are not checked.
		{"fig16", classSimulate, func(ctx context.Context, o experiment.Options) (any, error) {
			o.Sets = fig16Sets
			return experiment.Figure16Context(ctx, o)
		}, nil},
		{"robustness", classSimulate, func(ctx context.Context, o experiment.Options) (any, error) {
			rs, err := experiment.RobustnessContext(ctx, experiment.RobustnessConfig{
				Rates: robustnessRates, Sets: robustnessSets, Seed: o.Seed, Workers: o.Workers})
			if err != nil {
				return nil, err
			}
			grid, err := experiment.GridContext(ctx, experiment.GridConfig{
				Regimes: robustnessRegimes, Sets: robustnessSets, Seed: o.Seed, Workers: o.Workers})
			if err != nil {
				return nil, err
			}
			return [2]any{rs, grid}, nil
		}, nil},
		{"multicore", classMulti, func(ctx context.Context, o experiment.Options) (any, error) {
			o.Sets = multicoreSets
			return experiment.MulticoreContext(ctx, 2, o)
		}, nil},
	}
}

// experiments is the rtdvs-experiments path run in-process through the
// public panel functions, Workers = nproc, journaling off.
type experiments struct {
	p      params
	r      *results
	panels []panel
	first  map[string]string // output digest of each panel and input draw
	class  map[string][]float64
	rate   []float64 // panel calls per second, per pass
	frac   float64
	fracN  int
}

func newExperiments(p params, r *results) *experiments {
	return &experiments{p: p, r: r, panels: experimentPanels(),
		first: map[string]string{}, class: map[string][]float64{}}
}

// setup samples sets of the panels' task-set shapes for the
// release-table property; the panels build their own sets from the seed.
func (e *experiments) setup(context.Context) error {
	rng := rand.New(rand.NewSource(e.p.seed))
	var sets []*task.Set
	for _, shape := range []struct {
		n, perPoint int
		scale       float64
	}{{10, fig9Sets, 1}, {8, fig13Sets, 1}, {5, fig16Sets, 1}, {16, multicoreSets, 2}} {
		s, err := generated(rng, shape.n, shape.perPoint, shape.scale)
		if err != nil {
			return err
		}
		sets = append(sets, s...)
	}
	e.frac, e.fracN = integralFrac(sets), len(sets)
	return nil
}

// pass calls every panel once. It collects garbage before each call, as
// testing.B does before a benchmark, so a panel neither pays for the last
// one's garbage nor adds it to its own peak memory. The pass's duration
// is the sum of the panel calls.
func (e *experiments) pass(ctx context.Context, k int, tr *tracer) (time.Duration, error) {
	o := experiment.Options{Seed: inputSeed(e.p.seed, k), Workers: e.p.nproc}
	root := tr.id()
	var start, end time.Time
	var total time.Duration
	perClass := map[string]time.Duration{}
	for i, pn := range e.panels {
		runtime.GC()
		id := tr.id()
		t0 := time.Now()
		out, err := pn.run(ctx, o)
		t1 := time.Now()
		if i == 0 {
			start = t0
		}
		end = t1
		tr.record("experiment."+pn.name, id, root, t0, t1)
		perClass[pn.class] += t1.Sub(t0)
		total += t1.Sub(t0)
		if err != nil {
			e.r.op(fmt.Sprintf("%s: %v", pn.name, err))
			continue
		}
		problem := ""
		if pn.check != nil {
			problem = pn.check(out)
		}
		d, err := digestJSON(out)
		if err != nil {
			return 0, err
		}
		label := fmt.Sprintf("experiments/%s/input%d", pn.name, k)
		if prev, ok := e.first[label]; !ok {
			e.first[label] = d
			e.r.digest(label, d)
		} else if prev != d {
			problem = join(problem, fmt.Sprintf("%s: output differs from the first pass on the same input", label))
		}
		e.r.op(problem)
	}
	tr.record("experiments.sweep", root, 0, start, end)
	for _, c := range classes {
		e.class[c] = append(e.class[c], float64(perClass[c])/float64(time.Millisecond))
	}
	e.rate = append(e.rate, float64(len(e.panels))/total.Seconds())
	return total, nil
}

func (e *experiments) report(_ context.Context) error {
	r := e.r
	for _, c := range classes {
		r.set(c+"_p50_ms", "ms", median(e.class[c]), len(e.class[c]))
		r.set(c+"_p99_ms", "ms", percentile(e.class[c], 99), len(e.class[c]))
	}
	r.set("req_per_s", "1/s", median(e.rate), len(e.rate))
	r.set("task.integral_hyperperiod_frac", "ratio", e.frac, e.fracN)
	return nil
}

func (e *experiments) layers(tr *tracer) {
	r := e.r
	for _, pn := range e.panels {
		d := tr.durations("experiment."+pn.name, time.Second)
		r.set("experiment."+pn.name+"_s", "s", median(d), len(d))
	}
}

func (e *experiments) close() {}

// orderingProblem checks the sweep-averaged energy ordering the paper
// reports: bound ≤ laEDF ≤ ccEDF ≤ staticEDF ≤ none.
func orderingProblem(name string, energy map[string][]float64, bound []float64) string {
	chain := []string{"laEDF", "ccEDF", "staticEDF", "none"}
	prevName, prev := "bound", mean(bound)
	for _, p := range chain {
		v := mean(energy[p])
		if v < prev-1e-9*math.Abs(prev) {
			return fmt.Sprintf("%s: mean energy %s=%g below %s=%g", name, p, v, prevName, prev)
		}
		prevName, prev = p, v
	}
	return ""
}

// edfMissProblem checks that the EDF-family policies missed no deadline:
// every point of the simulated panels has U ≤ 1 and switches are
// instantaneous, so the EDF guarantee holds.
func edfMissProblem(name string, misses map[string][]int) string {
	for _, p := range []string{"none", "staticEDF", "ccEDF", "laEDF"} {
		for i, m := range misses[p] {
			if m != 0 {
				return fmt.Sprintf("%s: %s missed %d deadlines at point %d", name, p, m, i)
			}
		}
	}
	return ""
}

// integralFrac is the share of sets whose periods are integral with a
// finite hyperperiod: the property the batch engine's release-table path
// keys on.
func integralFrac(sets []*task.Set) float64 {
	if len(sets) == 0 {
		return 0
	}
	n := 0
	for _, ts := range sets {
		if _, ok := ts.Hyperperiod(); ok {
			n++
		}
	}
	return float64(n) / float64(len(sets))
}

func digestJSON(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	return digestBytes(b), nil
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// join concatenates non-empty problems.
func join(a, b string) string {
	switch {
	case a == "":
		return b
	case b == "":
		return a
	}
	return a + "; " + b
}
