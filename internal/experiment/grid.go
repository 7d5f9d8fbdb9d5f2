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
	"rtdvs/internal/rtos"
	"rtdvs/internal/stats"
	"rtdvs/internal/task"
)

// GridConfig parameterizes the policy × fault-regime robustness grid.
// Unlike the fault-rate sweep (Robustness), each cell here runs on the
// rtos kernel with the load shedder armed, so the grid reports the full
// degradation story: miss rate, energy, containment latency, and how
// often the kernel had to demote a task to keep the rest on time.
type GridConfig struct {
	// Policies to evaluate; nil selects GridPolicies(). "none" is always
	// included as the energy baseline.
	Policies []string
	// Regimes are fault-regime names from GridRegimes(); nil selects all.
	Regimes []string
	// NTasks is the number of tasks per generated set (default 6).
	NTasks int
	// Utilization targets the worst-case utilization of the generated
	// sets (default 0.45, so a 1.6× sustained overload still fits at
	// f_max and policies differ by how fast they get there).
	Utilization float64
	// Machine is the platform; nil means machine 1.
	Machine *machine.Spec
	// Sets is the number of random task sets per cell (default 12).
	Sets int
	// Seed makes the grid reproducible.
	Seed int64
	// Horizon is the simulated duration per run; 0 selects 20 × the
	// longest period of each set.
	Horizon float64
	// Workers bounds concurrency; 0 means GOMAXPROCS.
	Workers int
	// Shed overrides the load-shedder arming; zero value selects a
	// window of the set's longest period with the kernel defaults.
	Shed rtos.ShedConfig
	// Metrics optionally reports grid progress to an obs registry.
	Metrics *Metrics
}

// GridPolicies are the default policies of the robustness grid: the
// static and lookahead baselines against the adaptive extension family.
func GridPolicies() []string {
	return []string{"none", "staticEDF", "laEDF", "laEDF+contain", "fbEDF", "fbEDF+contain", "stSelect"}
}

// GridRegimes returns the fault-regime axis of the robustness grid.
func GridRegimes() []string {
	return []string{"clean", "iid", "sustained", "burst"}
}

// gridPlan maps a regime name to its fault plan; ok=false means the
// regime runs fault-free.
func gridPlan(regime string, seed int64) (fault.Plan, bool, error) {
	switch regime {
	case "clean":
		return fault.Plan{}, false, nil
	case "iid":
		return fault.Plan{Seed: seed, OverrunProb: 0.15, OverrunFactor: 1.5}, true, nil
	case "sustained":
		return fault.SustainedOverload(seed), true, nil
	case "burst":
		return fault.Burst(seed), true, nil
	}
	return fault.Plan{}, false, fmt.Errorf("experiment: unknown fault regime %q", regime)
}

// GridCell aggregates one (regime, policy) cell over the grid's task
// sets.
type GridCell struct {
	// MissRate is mean deadline misses per release.
	MissRate float64 `json:"missRate"`
	// EnergyNorm is mean energy relative to plain EDF at full speed
	// under the identical regime and workload.
	EnergyNorm float64 `json:"energyNorm"`
	// ContainLatency is the mean containment duration in ms (0 for
	// policies without containment).
	ContainLatency float64 `json:"containLatency"`
	// Sheds is the mean number of load-shed demotions per run.
	Sheds float64 `json:"sheds"`
	// SkippedJobs is the mean number of jobs dropped by shed tasks per
	// run.
	SkippedJobs float64 `json:"skippedJobs"`
}

// RobustnessGrid is the policy × fault-regime result matrix.
type RobustnessGrid struct {
	Machine     string  `json:"machine"`
	NTasks      int     `json:"nTasks"`
	Sets        int     `json:"sets"`
	Utilization float64 `json:"utilization"`
	// Policies and Regimes fix the axis order of Cells.
	Policies []string `json:"policies"`
	Regimes  []string `json:"regimes"`
	// Cells is indexed [regime][policy], matching the axis slices.
	Cells [][]GridCell `json:"cells"`
}

// Grid executes the policy × fault-regime robustness grid.
func Grid(cfg GridConfig) (*RobustnessGrid, error) {
	return GridContext(context.Background(), cfg)
}

// GridContext executes the robustness grid under ctx; cancellation
// drains the worker pool promptly and returns a *PartialError.
func GridContext(ctx context.Context, cfg GridConfig) (*RobustnessGrid, error) {
	if cfg.Policies == nil {
		cfg.Policies = GridPolicies()
	}
	if cfg.Regimes == nil {
		cfg.Regimes = GridRegimes()
	}
	if cfg.NTasks <= 0 {
		cfg.NTasks = 6
	}
	if cfg.Utilization <= 0 {
		cfg.Utilization = 0.45
	}
	if cfg.Machine == nil {
		cfg.Machine = machine.Machine1()
	}
	if cfg.Sets <= 0 {
		cfg.Sets = 12
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	policies := ensureBaseline(cfg.Policies)
	for _, regime := range cfg.Regimes {
		if _, _, err := gridPlan(regime, 0); err != nil {
			return nil, err
		}
	}
	nr, np := len(cfg.Regimes), len(policies)

	// Per-run scalars land in per-job slots and a sequential fold adds
	// them in (regime, set, policy) order, so the means are bit-identical
	// for any worker count — the same discipline as the other sweeps.
	type jobOut struct {
		ok  bool
		pol []gridPolOut
	}
	outs := make([]jobOut, nr*cfg.Sets)
	for i := range outs {
		outs[i] = jobOut{pol: make([]gridPolOut, np)}
	}
	baseIdx := policyIndex(policies, "none")

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
			pcache := map[string]core.Policy{}
			for j := range jobs {
				if ctx.Err() != nil {
					continue
				}
				ri, si := j/cfg.Sets, j%cfg.Sets
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
				plan, faulty, err := gridPlan(cfg.Regimes[ri], setSeed^0x9E3779B9)
				if err != nil {
					fail(err)
					continue
				}

				out := &outs[j]
				ok := true
				for pi, pname := range policies {
					if ctx.Err() != nil {
						ok = false
						break
					}
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
					po, err := gridRun(cfg, ts, p, plan, faulty, horizon)
					if err != nil {
						fail(err)
						ok = false
						break
					}
					out.pol[pi] = po
					cfg.Metrics.simRun(po.missCount)
					cfg.Metrics.gridRun(po.missCount, po.sheds)
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

	grid := &RobustnessGrid{
		Machine:     cfg.Machine.Name,
		NTasks:      cfg.NTasks,
		Sets:        cfg.Sets,
		Utilization: cfg.Utilization,
		Policies:    append([]string(nil), policies...),
		Regimes:     append([]string(nil), cfg.Regimes...),
		Cells:       make([][]GridCell, nr),
	}
	for ri := 0; ri < nr; ri++ {
		grid.Cells[ri] = make([]GridCell, np)
		miss := make([]stats.Accumulator, np)
		norm := make([]stats.Accumulator, np)
		lat := make([]stats.Accumulator, np)
		sheds := make([]stats.Accumulator, np)
		skips := make([]stats.Accumulator, np)
		for si := 0; si < cfg.Sets; si++ {
			out := &outs[ri*cfg.Sets+si]
			if !out.ok {
				continue
			}
			base := &out.pol[baseIdx]
			for pi := range policies {
				po := &out.pol[pi]
				if po.releases > 0 {
					miss[pi].Add(float64(po.missCount) / float64(po.releases))
				}
				if base.energy > 0 {
					norm[pi].Add(po.energy / base.energy)
				}
				if po.latN > 0 {
					lat[pi].Add(po.latSum / float64(po.latN))
				}
				sheds[pi].Add(float64(po.sheds))
				skips[pi].Add(float64(po.skipped))
			}
		}
		for pi := range policies {
			grid.Cells[ri][pi] = GridCell{
				MissRate:       miss[pi].Mean(),
				EnergyNorm:     norm[pi].Mean(),
				ContainLatency: lat[pi].Mean(),
				Sheds:          sheds[pi].Mean(),
				SkippedJobs:    skips[pi].Mean(),
			}
		}
	}
	return grid, nil
}

// gridPolOut holds the per-run scalars one grid cell run contributes.
type gridPolOut struct {
	releases  int
	missCount int
	energy    float64
	latSum    float64
	latN      int
	sheds     int
	skipped   int
}

// gridRun executes one kernel run of the grid: one policy, one task set,
// one fault regime, load shedder armed.
func gridRun(cfg GridConfig, ts *task.Set, p core.Policy, plan fault.Plan, faulty bool, horizon float64) (out gridPolOut, err error) {
	k, err := rtos.NewKernel(cfg.Machine, machine.SwitchOverhead{}, p)
	if err != nil {
		return out, err
	}
	// Task value decreases with index, so under overload the kernel
	// sheds from the back of the generated set first — an arbitrary but
	// deterministic ranking shared by every cell.
	tasks := ts.Tasks()
	for i, t := range tasks {
		tc := rtos.TaskConfig{
			Name: t.Name, Period: t.Period, WCET: t.WCET,
			Value: float64(len(tasks) - i),
		}
		if _, err := k.AddTask(tc, rtos.AddOptions{Immediate: true}); err != nil {
			return out, err
		}
	}
	if faulty {
		in, err := fault.New(plan)
		if err != nil {
			return out, err
		}
		k.SetFaults(in)
	}
	shed := cfg.Shed
	if shed.Window <= 0 {
		shed = rtos.ShedConfig{Window: ts.MaxPeriod(), MissFrac: 0.2}
	}
	if err := k.SetLoadShedding(shed); err != nil {
		return out, err
	}
	k.Step(horizon)

	for _, st := range k.Tasks() {
		out.releases += st.Releases
	}
	out.missCount = len(k.Misses())
	out.energy = k.CPU().Energy()
	if cr, isCR := p.(core.ContainmentReporter); isCR {
		out.latSum, out.latN = cr.ContainmentLatency()
	}
	out.sheds = k.Sheds()
	out.skipped = k.JobsSkipped()
	return out, nil
}

// Render formats the grid as plain-text tables, one per metric, rows =
// fault regimes and columns = policies. The feedback-vs-lookahead story
// reads directly off the miss-rate table: compare the fbEDF and laEDF
// columns on the "sustained" row.
func (g *RobustnessGrid) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Robustness grid: policy × fault regime on the rtos kernel (load shedder armed)\n")
	fmt.Fprintf(&b, "(machine=%s, %d tasks at U=%.2f, %d sets/cell)\n\n",
		g.Machine, g.NTasks, g.Utilization, g.Sets)

	table := func(title string, f func(GridCell) string) {
		fmt.Fprintf(&b, "%s:\n", title)
		var t stats.Table
		t.Header(append([]string{"regime"}, g.Policies...)...)
		for ri, regime := range g.Regimes {
			row := []string{regime}
			for pi := range g.Policies {
				row = append(row, f(g.Cells[ri][pi]))
			}
			t.Rowf(row...)
		}
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	table("miss rate (misses per release)", func(c GridCell) string { return fmt.Sprintf("%.4f", c.MissRate) })
	table("energy (normalized to plain EDF at full speed, same regime)", func(c GridCell) string { return fmt.Sprintf("%.3f", c.EnergyNorm) })
	table("containment latency (mean ms; 0 = no containment)", func(c GridCell) string { return fmt.Sprintf("%.3f", c.ContainLatency) })
	table("load sheds (mean demotions per run)", func(c GridCell) string { return fmt.Sprintf("%.2f", c.Sheds) })
	table("skipped jobs (mean per run)", func(c GridCell) string { return fmt.Sprintf("%.1f", c.SkippedJobs) })
	return strings.TrimRight(b.String(), "\n")
}

// WriteJSON emits the grid as one JSON document.
func (g *RobustnessGrid) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(g)
}

// WriteCSV emits the grid as CSV: one row per (regime, policy) cell.
func (g *RobustnessGrid) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "regime,policy,miss_rate,energy_norm,contain_latency_ms,sheds,skipped_jobs"); err != nil {
		return err
	}
	for ri, regime := range g.Regimes {
		for pi, p := range g.Policies {
			c := g.Cells[ri][pi]
			if _, err := fmt.Fprintf(w, "%s,%s,%g,%g,%g,%g,%g\n",
				regime, p, c.MissRate, c.EnergyNorm, c.ContainLatency, c.Sheds, c.SkippedJobs); err != nil {
				return err
			}
		}
	}
	return nil
}
