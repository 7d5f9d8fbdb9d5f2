package experiment

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"sync"

	"rtdvs/internal/core"
	"rtdvs/internal/fault"
	"rtdvs/internal/machine"
	"rtdvs/internal/sim"
	"rtdvs/internal/stats"
	"rtdvs/internal/task"
)

// RobustnessConfig parameterizes a fault-rate sweep: the same random task
// sets are run under increasing WCET-overrun probability, and each policy
// experiences the identical fault history at each rate (the injector's
// draws are keyed by task and invocation, not by policy behavior).
type RobustnessConfig struct {
	// Policies to evaluate; nil selects the robustness defaults: plain
	// EDF at full speed, the two aggressive DVS policies, and their
	// overrun-contained variants.
	Policies []string
	// Rates are the per-release overrun probabilities; nil means
	// 0.00..0.25 in steps of 0.05.
	Rates []float64
	// OverrunFactor inflates an overrunning job's demand to factor×WCET
	// (0 selects the default scenario's 1.5).
	OverrunFactor float64
	// OverrunTail adds an exponential tail with this mean (×WCET) on top
	// of the factor.
	OverrunTail float64
	// NTasks is the number of tasks per generated set (default 8).
	NTasks int
	// Utilization is the worst-case utilization target of the generated
	// sets (default 0.45). The default keeps the containment race
	// winnable: with factor-1.5 overruns a contained job needs roughly
	// C/f + 0.5·C of wall time, and past U ≈ 0.5 the look-ahead policy
	// has deferred enough work toward deadlines that some overruns are
	// structurally unabsorbable even at full speed. Raise it to study
	// exactly that regime.
	Utilization float64
	// Machine is the platform; nil means machine 1 (many operating
	// points, the hardware where the aggressive policies shine).
	Machine *machine.Spec
	// Sets is the number of random task sets per rate (default 20).
	Sets int
	// Seed makes the sweep reproducible.
	Seed int64
	// Horizon is the simulated duration per run; 0 selects 20 × the
	// longest period of each set (longer than the energy sweeps so the
	// per-release fault probability has releases to act on).
	Horizon float64
	// Workers bounds concurrency; 0 means GOMAXPROCS.
	Workers int
	// Metrics optionally reports sweep progress and fault/containment
	// totals to an obs registry. Nil disables reporting; results are
	// identical either way.
	Metrics *Metrics
}

// RobustnessPolicies are the default policies of the robustness sweep.
func RobustnessPolicies() []string {
	return []string{"none", "ccEDF", "ccEDF+contain", "laEDF", "laEDF+contain"}
}

// DefaultRates returns the default fault-rate axis 0.00..0.25.
func DefaultRates() []float64 {
	return []float64{0, 0.05, 0.10, 0.15, 0.20, 0.25}
}

// RobustnessSweep is the result of a fault-rate sweep: one row per
// overrun probability, one column group per policy.
type RobustnessSweep struct {
	Machine       string    `json:"machine"`
	NTasks        int       `json:"nTasks"`
	Sets          int       `json:"sets"`
	Utilization   float64   `json:"utilization"`
	OverrunFactor float64   `json:"overrunFactor"`
	Rates         []float64 `json:"rates"`
	// MissRate is mean deadline misses per release.
	MissRate map[string][]float64 `json:"missRate"`
	// EnergyNorm is mean energy relative to plain EDF at full speed under
	// the same faults — the price a policy pays (or the saving it keeps)
	// while the system degrades.
	EnergyNorm map[string][]float64 `json:"energyNorm"`
	// Containments is mean overrun containments per injected overrun
	// (only the +contain policies report; others stay 0).
	Containments map[string][]float64 `json:"containments"`
	// ContainLatency is the mean time (ms) a containment lasts — budget
	// exhaustion to job completion, the window the system runs at full
	// speed to absorb the overrun.
	ContainLatency map[string][]float64 `json:"containLatency"`
	// OverrunsPerRun is the mean number of injected overruns per run,
	// identical across policies by construction.
	OverrunsPerRun []float64 `json:"overrunsPerRun"`
}

// Robustness executes the fault-rate sweep.
func Robustness(cfg RobustnessConfig) (*RobustnessSweep, error) {
	return RobustnessContext(context.Background(), cfg)
}

// RobustnessContext executes the fault-rate sweep under ctx;
// cancellation drains the worker pool promptly and returns a
// *PartialError.
func RobustnessContext(ctx context.Context, cfg RobustnessConfig) (*RobustnessSweep, error) {
	if cfg.Policies == nil {
		cfg.Policies = RobustnessPolicies()
	}
	if cfg.Rates == nil {
		cfg.Rates = DefaultRates()
	}
	if cfg.OverrunFactor <= 0 {
		cfg.OverrunFactor = 1.5
	}
	if cfg.NTasks <= 0 {
		cfg.NTasks = 8
	}
	if cfg.Utilization <= 0 {
		cfg.Utilization = 0.45
	}
	if cfg.Machine == nil {
		cfg.Machine = machine.Machine1()
	}
	if cfg.Sets <= 0 {
		cfg.Sets = 20
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	policies := ensureBaseline(cfg.Policies)
	nr := len(cfg.Rates)

	type cell struct {
		miss, norm, cont, lat map[string]*stats.Accumulator
		overruns              *stats.Accumulator
	}
	cells := make([]cell, nr)
	for i := range cells {
		cells[i] = cell{
			miss: map[string]*stats.Accumulator{}, norm: map[string]*stats.Accumulator{},
			cont: map[string]*stats.Accumulator{}, lat: map[string]*stats.Accumulator{},
			overruns: &stats.Accumulator{},
		}
		for _, p := range policies {
			cells[i].miss[p] = &stats.Accumulator{}
			cells[i].norm[p] = &stats.Accumulator{}
			cells[i].cont[p] = &stats.Accumulator{}
			cells[i].lat[p] = &stats.Accumulator{}
		}
	}

	// Per-run scalars captured by the workers into per-job slots; a
	// sequential fold afterwards adds them in (rate, set, policy) order —
	// exactly what one worker draining the job channel produces — so the
	// means are bit-identical for any worker count.
	type polOut struct {
		releases  int
		missCount int
		energy    float64
		// Containment counters from the policy (when it reports any) and
		// overrun counts from the fault record.
		reporter     bool
		containments int
		latSum       float64
		latN         int
		hasFaults    bool
		overruns     int
	}
	type jobOut struct {
		ok  bool
		pol []polOut // per policy, indexed like policies
	}
	np := len(policies)
	baseIdx := policyIndex(policies, "none")
	outs := make([]jobOut, nr*cfg.Sets)
	for i := range outs {
		outs[i] = jobOut{pol: make([]polOut, np)}
	}

	cfg.Metrics.jobsPlanned(len(outs))
	jobs := make(chan int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One simulator and one instance of each policy per worker,
			// reset between runs via Runner reuse and Policy.Attach.
			runner := sim.NewRunner()
			pcache := map[string]core.Policy{}
			for j := range jobs {
				if ctx.Err() != nil {
					continue // drain the channel without doing work
				}
				ri, si := j/cfg.Sets, j%cfg.Sets
				// The task set depends only on the set index, so every rate
				// stresses the same workloads.
				setSeed := jobSeed(cfg.Seed, 0, si)
				r := rand.New(rand.NewSource(setSeed))
				g := task.Generator{N: cfg.NTasks, Utilization: cfg.Utilization, Rand: r}
				ts, err := g.Generate()
				if err != nil {
					fail(err)
					continue
				}
				horizon := cfg.Horizon
				if horizon <= 0 {
					horizon = 20 * ts.MaxPeriod()
				}
				plan := fault.Plan{
					Seed:          setSeed ^ 0x9E3779B9,
					OverrunProb:   cfg.Rates[ri],
					OverrunFactor: cfg.OverrunFactor,
					OverrunTail:   cfg.OverrunTail,
				}

				out := &outs[j]
				ok := true
				for pi, pname := range policies {
					p := pcache[pname]
					if p == nil {
						p, err = core.ExtendedByName(pname)
						if err != nil {
							fail(err)
							ok = false
							break
						}
						pcache[pname] = p
					}
					res, err := runner.RunContext(ctx, sim.Config{
						Tasks:   ts,
						Machine: cfg.Machine,
						Policy:  p,
						Faults:  fault.MustNew(plan),
						Horizon: horizon,
					})
					if err != nil {
						if !skippable(err) {
							fail(err)
						}
						ok = false
						break
					}
					// The result aliases the runner's buffers and the
					// policy is reattached next job; capture everything
					// this run contributes before moving on.
					po := &out.pol[pi]
					po.releases = res.Releases
					po.missCount = res.MissCount()
					po.energy = res.TotalEnergy
					if res.Faults != nil {
						po.hasFaults = true
						po.overruns = res.Faults.Overruns
					}
					if cr, isCR := p.(core.ContainmentReporter); isCR {
						po.reporter = true
						po.containments = cr.Containments()
						po.latSum, po.latN = cr.ContainmentLatency()
					}
					cfg.Metrics.simRun(po.missCount)
					cfg.Metrics.faultTotals(po.overruns, po.containments)
				}
				out.ok = ok
				if ok {
					cfg.Metrics.jobDone()
				}
			}
		}()
	}

	feed(ctx, jobs, len(outs), nil)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		done := 0
		for i := range outs {
			if outs[i].ok {
				done++
			}
		}
		return nil, &PartialError{Done: done, Total: len(outs), Cause: err}
	}

	for ri := 0; ri < nr; ri++ {
		c := &cells[ri]
		for si := 0; si < cfg.Sets; si++ {
			out := &outs[ri*cfg.Sets+si]
			if !out.ok {
				continue
			}
			base := &out.pol[baseIdx]
			for pi, pname := range policies {
				po := &out.pol[pi]
				if po.releases > 0 {
					c.miss[pname].Add(float64(po.missCount) / float64(po.releases))
				}
				if base.energy > 0 {
					c.norm[pname].Add(po.energy / base.energy)
				}
				if po.reporter && po.hasFaults && po.overruns > 0 {
					c.cont[pname].Add(float64(po.containments) / float64(po.overruns))
					if po.latN > 0 {
						c.lat[pname].Add(po.latSum / float64(po.latN))
					}
				}
			}
			if base.hasFaults {
				c.overruns.Add(float64(base.overruns))
			}
		}
	}

	sw := &RobustnessSweep{
		Machine:        cfg.Machine.Name,
		NTasks:         cfg.NTasks,
		Sets:           cfg.Sets,
		Utilization:    cfg.Utilization,
		OverrunFactor:  cfg.OverrunFactor,
		Rates:          append([]float64(nil), cfg.Rates...),
		MissRate:       map[string][]float64{},
		EnergyNorm:     map[string][]float64{},
		Containments:   map[string][]float64{},
		ContainLatency: map[string][]float64{},
		OverrunsPerRun: make([]float64, nr),
	}
	for _, p := range policies {
		sw.MissRate[p] = make([]float64, nr)
		sw.EnergyNorm[p] = make([]float64, nr)
		sw.Containments[p] = make([]float64, nr)
		sw.ContainLatency[p] = make([]float64, nr)
	}
	for i := range cells {
		for _, p := range policies {
			sw.MissRate[p][i] = cells[i].miss[p].Mean()
			sw.EnergyNorm[p][i] = cells[i].norm[p].Mean()
			sw.Containments[p][i] = cells[i].cont[p].Mean()
			sw.ContainLatency[p][i] = cells[i].lat[p].Mean()
		}
		sw.OverrunsPerRun[i] = cells[i].overruns.Mean()
	}
	return sw, nil
}

// Render formats the robustness sweep as plain-text tables: miss rate and
// normalized energy per policy, then containment behavior for the
// policies that report it.
func (s *RobustnessSweep) Render(policies []string) string {
	if policies == nil {
		policies = RobustnessPolicies()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Robustness: degradation under injected WCET overruns (factor %g)\n", s.OverrunFactor)
	fmt.Fprintf(&b, "(machine=%s, %d tasks at U=%.2f, %d sets/point)\n\n",
		s.Machine, s.NTasks, s.Utilization, s.Sets)

	b.WriteString("miss rate (misses per release):\n")
	var mt stats.Table
	mt.Header(append([]string{"rate"}, policies...)...)
	for i, rate := range s.Rates {
		row := []string{fmt.Sprintf("%.2f", rate)}
		for _, p := range policies {
			row = append(row, fmt.Sprintf("%.4f", s.MissRate[p][i]))
		}
		mt.Rowf(row...)
	}
	b.WriteString(mt.String())

	b.WriteString("\nenergy (normalized to plain EDF at full speed, same faults):\n")
	var et stats.Table
	et.Header(append([]string{"rate"}, policies...)...)
	for i, rate := range s.Rates {
		row := []string{fmt.Sprintf("%.2f", rate)}
		for _, p := range policies {
			row = append(row, fmt.Sprintf("%.3f", s.EnergyNorm[p][i]))
		}
		et.Rowf(row...)
	}
	b.WriteString(et.String())

	var contained []string
	for _, p := range policies {
		if strings.HasSuffix(p, "+contain") {
			contained = append(contained, p)
		}
	}
	if len(contained) > 0 {
		b.WriteString("\ncontainment (escalations per injected overrun | mean latency ms):\n")
		var ct stats.Table
		ct.Header(append([]string{"rate"}, contained...)...)
		for i, rate := range s.Rates {
			row := []string{fmt.Sprintf("%.2f", rate)}
			for _, p := range contained {
				row = append(row, fmt.Sprintf("%.2f | %.3f", s.Containments[p][i], s.ContainLatency[p][i]))
			}
			ct.Rowf(row...)
		}
		b.WriteString(ct.String())
	}
	return b.String()
}

// WriteJSON emits the sweep as one JSON document.
func (s *RobustnessSweep) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteCSV emits the sweep as CSV: one row per rate with per-policy
// miss-rate and normalized-energy columns.
func (s *RobustnessSweep) WriteCSV(w io.Writer, policies []string) error {
	if policies == nil {
		policies = RobustnessPolicies()
	}
	cols := []string{"rate"}
	for _, p := range policies {
		cols = append(cols, "miss_"+p, "energy_"+p)
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for i, rate := range s.Rates {
		row := []string{fmt.Sprintf("%g", rate)}
		for _, p := range policies {
			row = append(row, fmt.Sprintf("%g", s.MissRate[p][i]), fmt.Sprintf("%g", s.EnergyNorm[p][i]))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}
