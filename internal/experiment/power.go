package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"

	"rtdvs/internal/core"
	"rtdvs/internal/machine"
	"rtdvs/internal/rtos"
	"rtdvs/internal/sim"
	"rtdvs/internal/stats"
	"rtdvs/internal/task"
)

// Figure16Policies are the four curves the paper measures on the laptop.
var Figure16Policies = []string{"none", "staticRM", "ccEDF", "laEDF"}

// PowerSweep reports average power versus utilization, the quantity
// Figures 16 and 17 plot.
type PowerSweep struct {
	Title        string
	Unit         string
	Utilizations []float64
	Power        map[string][]float64
	Misses       map[string][]int
	Sets         int
}

// powerConfig is shared by Figures 16 and 17 so the two stay parameter-
// identical, as the paper stresses: 5 tasks, each consuming 90% of its
// worst case, on the 2-voltage K6-2+ specification.
type powerConfig struct {
	policies []string
	nTasks   int
	cFrac    float64
	system   bool // true: whole-system watts via the RTOS power meter
}

// Figure16 regenerates the laptop power measurements: whole-system power
// in watts (display backlighting off) measured by the oscilloscope-style
// meter over the RTOS kernel, including the mandatory PowerNow! stop
// intervals.
func Figure16(o Options) (*PowerSweep, error) {
	return Figure16Context(context.Background(), o)
}

// Figure16Context is Figure16 under a context; cancellation drains the
// worker pool and returns a *PartialError. The RTOS-kernel runs that
// back this figure have no internal preemption point, so cancellation
// lands between jobs rather than inside one.
func Figure16Context(ctx context.Context, o Options) (*PowerSweep, error) {
	return powerSweep(ctx, powerConfig{
		policies: Figure16Policies,
		nTasks:   5,
		cFrac:    0.9,
		system:   true,
	}, o)
}

// Figure17 regenerates the matching simulation: processor-only power in
// the simulator's native units, identical workload parameters. Except for
// the constant system overhead the curves match Figure 16, which is the
// paper's validation of its simulator.
func Figure17(o Options) (*PowerSweep, error) {
	return Figure17Context(context.Background(), o)
}

// Figure17Context is Figure17 under a context (see Figure16Context).
func Figure17Context(ctx context.Context, o Options) (*PowerSweep, error) {
	return powerSweep(ctx, powerConfig{
		policies: Figure16Policies,
		nTasks:   5,
		cFrac:    0.9,
		system:   false,
	}, o)
}

func powerSweep(ctx context.Context, pc powerConfig, o Options) (*PowerSweep, error) {
	utils := o.Points
	if utils == nil {
		utils = DefaultUtilizations()
	}
	sets := o.Sets
	if sets <= 0 {
		sets = 20
	}
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	ps := &PowerSweep{
		Utilizations: append([]float64(nil), utils...),
		Power:        map[string][]float64{},
		Misses:       map[string][]int{},
		Sets:         sets,
	}
	if pc.system {
		ps.Title = "Figure 16: power consumption on actual platform"
		ps.Unit = "W"
	} else {
		ps.Title = "Figure 17: power consumption on simulated platform"
		ps.Unit = "units"
	}
	acc := make(map[string][]*stats.Accumulator, len(pc.policies))
	for _, p := range pc.policies {
		ps.Power[p] = make([]float64, len(utils))
		ps.Misses[p] = make([]int, len(utils))
		acc[p] = make([]*stats.Accumulator, len(utils))
		for i := range acc[p] {
			acc[p][i] = &stats.Accumulator{}
		}
	}

	// Per-job output slots, folded sequentially in (utilization, set,
	// policy) order after the workers finish — the order a single worker
	// produces — so the means are bit-identical for any worker count.
	type jobOut struct {
		ok     bool
		watts  []float64 // per policy, indexed like pc.policies
		misses []int
	}
	np := len(pc.policies)
	outs := make([]jobOut, len(utils)*sets)
	for i := range outs {
		outs[i] = jobOut{watts: make([]float64, np), misses: make([]int, np)}
	}

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
			// The simulated path reuses one runner and one policy instance
			// per worker; the system path builds a fresh kernel per run
			// (the RTOS substrate has no reuse API).
			runner := sim.NewRunner()
			pcache := map[string]core.Policy{}
			for j := range jobs {
				if ctx.Err() != nil {
					continue // drain the channel without doing work
				}
				ui, si := j/sets, j%sets
				u := utils[ui]
				seed := jobSeed(o.Seed, ui, si)
				r := rand.New(rand.NewSource(seed))
				g := task.Generator{N: pc.nTasks, Utilization: u, Rand: r}
				ts, err := g.Generate()
				if err != nil {
					fail(err)
					continue
				}
				horizon := 10 * ts.MaxPeriod()
				out := &outs[j]
				ok := true
				for pi, pname := range pc.policies {
					var watts float64
					var misses int
					if pc.system {
						watts, misses, err = runSystemPower(ts, pname, pc.cFrac, horizon)
					} else {
						p := pcache[pname]
						if p == nil {
							p, err = core.ByName(pname)
							if err != nil {
								fail(err)
								ok = false
								break
							}
							pcache[pname] = p
						}
						watts, misses, err = runSimPower(ctx, runner, ts, p, pc.cFrac, horizon)
					}
					if err != nil {
						if !skippable(err) {
							fail(err)
						}
						ok = false
						break
					}
					out.watts[pi] = watts
					out.misses[pi] = misses
				}
				out.ok = ok
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
	for ui := range utils {
		for si := 0; si < sets; si++ {
			out := &outs[ui*sets+si]
			if !out.ok {
				continue
			}
			for pi, pname := range pc.policies {
				acc[pname][ui].Add(out.watts[pi])
				ps.Misses[pname][ui] += out.misses[pi]
			}
		}
	}
	for _, p := range pc.policies {
		for i := range utils {
			ps.Power[p][i] = acc[p][i].Mean()
		}
	}
	return ps, nil
}

// runSystemPower measures whole-system watts with the RTOS kernel, the
// PowerNow!-style stop intervals, and the Table 1 component model
// (screen off, disk standby, as in the paper's measurement runs).
func runSystemPower(ts *task.Set, pname string, cFrac, horizon float64) (watts float64, misses int, err error) {
	p, err := core.ByName(pname)
	if err != nil {
		return 0, 0, err
	}
	k, err := rtos.NewKernel(machine.LaptopK62(), machine.K62SwitchOverhead, p)
	if err != nil {
		return 0, 0, err
	}
	k.SetAdmitAll(true) // high-U RM sets run unguaranteed, as measured
	for i := 0; i < ts.Len(); i++ {
		t := ts.Task(i)
		wcet := t.WCET
		_, err := k.AddTask(rtos.TaskConfig{
			Name:   t.Name,
			Period: t.Period,
			WCET:   wcet,
			Work:   func(int) float64 { return cFrac * wcet },
		}, rtos.AddOptions{Immediate: true})
		if err != nil {
			return 0, 0, err
		}
	}
	meter := rtos.NewPowerMeter(k.CPU(), rtos.DefaultSystemPower(), false, false)
	meter.Mark(k.Now())
	k.Step(horizon)
	return meter.Average(k.Now()), len(k.Misses()), nil
}

// runSimPower measures processor-only average power with the simulator.
// The runner and policy are reused across calls; the caller owns both.
func runSimPower(ctx context.Context, runner *sim.Runner, ts *task.Set, p core.Policy, cFrac, horizon float64) (power float64, misses int, err error) {
	res, err := runner.RunContext(ctx, sim.Config{
		Tasks:   ts,
		Machine: machine.LaptopK62(),
		Policy:  p,
		Exec:    task.ConstantFraction{C: cFrac},
		Horizon: horizon,
	})
	if err != nil {
		return 0, 0, err
	}
	return res.AvgPower(), res.MissCount(), nil
}

// Render formats the power sweep as a plain-text table.
func (s *PowerSweep) Render(policies []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n(5 tasks, c=0.9, k6-2+ spec, %d sets/point, %s)\n\n", s.Title, s.Sets, s.Unit)
	var t stats.Table
	t.Header(append([]string{"U"}, policies...)...)
	for i, u := range s.Utilizations {
		row := []string{fmt.Sprintf("%.2f", u)}
		for _, p := range policies {
			row = append(row, fmt.Sprintf("%.2f", s.Power[p][i]))
		}
		t.Rowf(row...)
	}
	b.WriteString(t.String())
	return b.String()
}
