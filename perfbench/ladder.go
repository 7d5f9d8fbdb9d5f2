package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"rtdvs/internal/core"
	"rtdvs/internal/experiment"
	"rtdvs/internal/fault"
	"rtdvs/internal/machine"
	"rtdvs/internal/rtos"
	"rtdvs/internal/sched"
	"rtdvs/internal/serve"
	"rtdvs/internal/sim"
	"rtdvs/internal/task"
)

// rungBudget is how long each rung of the layer ladder repeats its calls.
const rungBudget = 200 * time.Millisecond

// ladder times the public functions of each layer directly, on inputs
// of the workloads' shapes built from the seed. Every rung is one span.
type ladder struct {
	seed  int64
	tr    *tracer
	r     *results
	root  uint64
	cycle []*mixRequest // one serve-mix client cycle
}

// rung repeats fn until the budget is spent and returns the time fn
// reports as measured and the units of work it did. fn times its own
// calls so that building inputs stays outside the measurement.
func (l *ladder) rung(name string, fn func() (units int, took time.Duration, err error)) (time.Duration, int, error) {
	id := l.tr.id()
	start := time.Now()
	var took time.Duration
	var units int
	for time.Since(start) < rungBudget || units == 0 {
		n, d, err := fn()
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", name, err)
		}
		units += n
		took += d
	}
	l.tr.record("layer."+name, id, l.root, start, time.Now())
	return took, units, nil
}

// per sets metric to the rung's time per unit of work, in unit.
func (l *ladder) per(metric, unit string, div time.Duration, fn func() (int, time.Duration, error)) error {
	took, n, err := l.rung(metric, fn)
	if err != nil {
		return err
	}
	l.r.set(metric, unit, float64(took)/float64(div)/float64(n), n)
	return nil
}

// timed measures a whole call of fn.
func timed(fn func() (int, error)) (int, time.Duration, error) {
	start := time.Now()
	n, err := fn()
	return n, time.Since(start), err
}

// generated draws perPoint sets of n tasks at every default utilization
// point, scaled by scale (the core count for multicore shapes).
func generated(rng *rand.Rand, n, perPoint int, scale float64) ([]*task.Set, error) {
	var sets []*task.Set
	for _, u := range experiment.DefaultUtilizations() {
		for i := 0; i < perPoint; i++ {
			g := task.Generator{N: n, Utilization: u * scale, Rand: rng}
			ts, err := g.Generate()
			if err != nil {
				return nil, err
			}
			sets = append(sets, ts)
		}
	}
	return sets, nil
}

func runLadder(ctx context.Context, p params, tr *tracer, r *results) error {
	cycles, err := buildCycles(p.seed, 1)
	if err != nil {
		return err
	}
	l := &ladder{seed: p.seed, tr: tr, r: r, root: tr.id(), cycle: cycles[0]}
	start := time.Now()
	steps := []func() error{
		l.taskRung, l.simRungs, l.multiRungs, l.queueRung, l.rtosRung, l.serveRungs,
		func() error { return l.experimentRungs(ctx) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	tr.record("ladder", l.root, 0, start, time.Now())
	return nil
}

func (l *ladder) taskRung() error {
	rng := rand.New(rand.NewSource(l.seed))
	us := experiment.DefaultUtilizations()
	return l.per("task.generate_us_per_set", "us", time.Microsecond, func() (int, time.Duration, error) {
		return timed(func() (int, error) {
			for _, u := range us {
				g := task.Generator{N: 10, Utilization: u, Rand: rng}
				if _, err := g.Generate(); err != nil {
					return 0, err
				}
			}
			return len(us), nil
		})
	})
}

// runAll runs every set under p on runner and returns the events.
func runAll(runner *sim.Runner, sets []*task.Set, spec *machine.Spec, p core.Policy, checked bool) (int, error) {
	events := 0
	for _, ts := range sets {
		res, err := runner.Run(sim.Config{Tasks: ts, Machine: spec, Policy: p,
			Horizon: 10 * ts.MaxPeriod(), CheckInvariants: checked})
		if err != nil {
			return 0, err
		}
		events += res.Events
	}
	return events, nil
}

// simRungs time the scalar and batch engines per event on Figure 9
// shaped sets (10 tasks, full WCET, machine 0, horizon 10 × the longest
// period, as the harness runs them), and the batch engine's release-table
// path on the serve-mix integer-period sets.
func (l *ladder) simRungs() error {
	sets, err := generated(rand.New(rand.NewSource(l.seed+1)), 10, 1, 1)
	if err != nil {
		return err
	}
	m0 := machine.Machine0()
	names := core.Names()
	policies := make([]core.Policy, len(names))
	for i, n := range names {
		if policies[i], err = core.ByName(n); err != nil {
			return err
		}
	}
	runner := sim.NewRunner()

	once := 0
	for i, n := range names {
		p := policies[i]
		if err := l.per("core."+n+"_ns_per_event", "ns", time.Nanosecond, func() (int, time.Duration, error) {
			return timed(func() (int, error) { return runAll(runner, sets, m0, p, false) })
		}); err != nil {
			return err
		}
		ev, err := runAll(runner, sets, m0, p, false)
		if err != nil {
			return err
		}
		once += ev
	}
	runs := len(sets) * len(names)
	l.r.set("sim.events_per_run", "count", float64(once)/float64(runs), runs)

	// The unchecked and checked rungs run the same calls, so their
	// difference is the invariant checker's cost.
	for _, c := range []struct {
		metric  string
		checked bool
	}{{"sim.runner_ns_per_event", false}, {"sim.checked_ns_per_event", true}} {
		if err := l.per(c.metric, "ns", time.Nanosecond, func() (int, time.Duration, error) {
			return timed(func() (int, error) {
				n := 0
				for _, p := range policies {
					ev, err := runAll(runner, sets, m0, p, c.checked)
					if err != nil {
						return 0, err
					}
					n += ev
				}
				return n, nil
			})
		}); err != nil {
			return err
		}
	}

	if err := l.faultedRung(); err != nil {
		return err
	}

	// Batch lanes: every (set, policy) pair, each lane with its own policy.
	var lanes []sim.Config
	for _, ts := range sets {
		for _, n := range names {
			p, err := core.ByName(n)
			if err != nil {
				return err
			}
			lanes = append(lanes, sim.Config{Tasks: ts, Machine: m0, Policy: p, Horizon: 10 * ts.MaxPeriod()})
		}
	}
	br := sim.NewBatchRunner()
	if err := l.per("sim.batch_ns_per_event", "ns", time.Nanosecond, batchRun(br, lanes)); err != nil {
		return err
	}

	var table []sim.Config
	for _, m := range l.cycle {
		for _, sr := range m.items {
			cfg, err := sr.Config()
			if err != nil {
				return err
			}
			table = append(table, cfg)
		}
	}
	return l.per("sim.batch_table_ns_per_event", "ns", time.Nanosecond, batchRun(br, table))
}

func batchRun(br *sim.BatchRunner, cfgs []sim.Config) func() (int, time.Duration, error) {
	return func() (int, time.Duration, error) {
		return timed(func() (int, error) {
			res, errs := br.Run(cfgs)
			n := 0
			for i := range res {
				if errs[i] != nil {
					return 0, errs[i]
				}
				n += res[i].Events
			}
			return n, nil
		})
	}
}

// faultedRung times the scalar Runner with a fault injector on
// robustness-shaped sets: 8 tasks at U = 0.45 on machine 1, 5% overruns.
func (l *ladder) faultedRung() error {
	rng := rand.New(rand.NewSource(l.seed + 2))
	var sets []*task.Set
	for i := 0; i < 12; i++ {
		g := task.Generator{N: 8, Utilization: 0.45, Rand: rng}
		ts, err := g.Generate()
		if err != nil {
			return err
		}
		sets = append(sets, ts)
	}
	var policies []core.Policy
	for _, n := range experiment.RobustnessPolicies() {
		p, err := core.ExtendedByName(n)
		if err != nil {
			return err
		}
		policies = append(policies, p)
	}
	m1 := machine.Machine1()
	runner := sim.NewRunner()
	return l.per("sim.faulted_ns_per_event", "ns", time.Nanosecond, func() (int, time.Duration, error) {
		return timed(func() (int, error) {
			n := 0
			for i, ts := range sets {
				for _, p := range policies {
					res, err := runner.Run(sim.Config{Tasks: ts, Machine: m1, Policy: p,
						Horizon: 20 * ts.MaxPeriod(), Faults: fault.MustNew(fault.Default(l.seed + int64(i)))})
					if err != nil {
						return 0, err
					}
					n += res.Events
				}
			}
			return n, nil
		})
	})
}

// multiRungs time the MultiRunner on multicore-panel shaped sets (16
// tasks, total utilization up to 2): partitioned worst-fit under the
// paper policies, and global under the gang policies.
func (l *ladder) multiRungs() error {
	sets, err := generated(rand.New(rand.NewSource(l.seed+3)), 16, 1, 2)
	if err != nil {
		return err
	}
	spec := machine.Machine0().WithCores(2)
	mr := sim.NewMultiRunner()
	run := func(placement sched.Placement, policies []string) func() (int, time.Duration, error) {
		return func() (int, time.Duration, error) {
			return timed(func() (int, error) {
				n := 0
				for _, ts := range sets {
					for _, p := range policies {
						res, err := mr.Run(sim.MultiConfig{Tasks: ts, Machine: spec, Policy: p,
							Placement: placement, Exec: "wcet", Horizon: 10 * ts.MaxPeriod()})
						if err != nil {
							return 0, err
						}
						n += res.Events
					}
				}
				return n, nil
			})
		}
	}
	if err := l.per("sim.multi_ns_per_event", "ns", time.Nanosecond, run(sched.PartitionedWF, core.Names())); err != nil {
		return err
	}
	return l.per("sim.gang_ns_per_event", "ns", time.Nanosecond, run(sched.Global, gangPolicies))
}

// queueRung drives sched.ReadyQueue the way an EDF run does: keys are
// absolute deadlines, each pop is followed by the popped task's next
// release and one key update, at the experiments' task counts.
func (l *ladder) queueRung() error {
	rng := rand.New(rand.NewSource(l.seed + 4))
	q := sched.NewReadyQueue()
	return l.per("sched.readyqueue_ns_per_op", "ns", time.Nanosecond, func() (int, time.Duration, error) {
		ops := 0
		var took time.Duration
		for _, n := range []int{5, 8, 10, 15, 16} {
			period := make([]float64, n)
			deadline := make([]float64, n)
			for i := range period {
				period[i] = 1 + 999*rng.Float64()
				deadline[i] = period[i]
			}
			start := time.Now()
			q.Reset(n)
			for i := 0; i < n; i++ {
				if err := q.Push(i, deadline[i]); err != nil {
					return 0, 0, err
				}
			}
			for k := 0; k < 64*n; k++ {
				ti := q.Pop()
				deadline[ti] += period[ti]
				if err := q.Push(ti, deadline[ti]); err != nil {
					return 0, 0, err
				}
				j := (ti + k) % n
				q.Update(j, deadline[j])
			}
			for q.Len() > 0 {
				q.Pop()
			}
			took += time.Since(start)
			ops += 2*n + 3*64*n
		}
		return ops, took, nil
	})
}

// rtosRung times Kernel.Step per released job over Figure 16 shaped sets:
// 5 tasks at 90% of WCET on the K6-2+ with its switch stop intervals.
func (l *ladder) rtosRung() error {
	sets, err := generated(rand.New(rand.NewSource(l.seed+5)), 5, 1, 1)
	if err != nil {
		return err
	}
	return l.per("rtos.step_ns_per_job", "ns", time.Nanosecond, func() (int, time.Duration, error) {
		jobs := 0
		var took time.Duration
		for _, ts := range sets {
			for _, name := range experiment.Figure16Policies {
				p, err := core.ByName(name)
				if err != nil {
					return 0, 0, err
				}
				k, err := rtos.NewKernel(machine.LaptopK62(), machine.K62SwitchOverhead, p)
				if err != nil {
					return 0, 0, err
				}
				k.SetAdmitAll(true)
				for i := 0; i < ts.Len(); i++ {
					t := ts.Task(i)
					wcet := t.WCET
					if _, err := k.AddTask(rtos.TaskConfig{Name: t.Name, Period: t.Period, WCET: wcet,
						Work: func(int) float64 { return 0.9 * wcet }}, rtos.AddOptions{Immediate: true}); err != nil {
						return 0, 0, err
					}
				}
				start := time.Now()
				k.Step(10 * ts.MaxPeriod())
				took += time.Since(start)
				for _, st := range k.Tasks() {
					jobs += st.Releases
				}
			}
		}
		return jobs, took, nil
	})
}

// serveRungs time the request codec and validation on the serve-mix
// scalar requests: decoding a body into serve.SimulateRequest the way the
// server does, SimulateRequest.Config, and encoding the sim.Result.
func (l *ladder) serveRungs() error {
	var scalar []*mixRequest
	for _, m := range l.cycle {
		if m.class == classSimulate {
			scalar = append(scalar, m)
		}
	}
	if err := l.per("serve.decode_us", "us", time.Microsecond, func() (int, time.Duration, error) {
		return timed(func() (int, error) {
			for _, m := range scalar {
				var req serve.SimulateRequest
				dec := json.NewDecoder(bytes.NewReader(m.body))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&req); err != nil {
					return 0, err
				}
			}
			return len(scalar), nil
		})
	}); err != nil {
		return err
	}
	if err := l.per("serve.validate_us", "us", time.Microsecond, func() (int, time.Duration, error) {
		return timed(func() (int, error) {
			for _, m := range scalar {
				if _, err := m.items[0].Config(); err != nil {
					return 0, err
				}
			}
			return len(scalar), nil
		})
	}); err != nil {
		return err
	}
	var buf bytes.Buffer
	return l.per("serve.encode_us", "us", time.Microsecond, func() (int, time.Duration, error) {
		return timed(func() (int, error) {
			for _, m := range scalar {
				buf.Reset()
				if err := json.NewEncoder(&buf).Encode(m.result); err != nil {
					return 0, err
				}
			}
			return len(scalar), nil
		})
	})
}

// experimentRungs run dist-sweep's shards in-process, one RunJobs call
// per shard job list, and fold the results with FoldJobs.
func (l *ladder) experimentRungs(ctx context.Context) error {
	req := fig9Request(l.seed)
	cfg, err := req.Config()
	if err != nil {
		return err
	}
	njobs, err := experiment.NumJobs(cfg)
	if err != nil {
		return err
	}
	id := l.tr.id()
	start := time.Now()
	var perShard []float64
	var all []experiment.JobResult
	for lo := 0; lo < njobs; lo += shardSize {
		var jobs []int
		for j := lo; j < lo+shardSize && j < njobs; j++ {
			jobs = append(jobs, j)
		}
		t0 := time.Now()
		res, err := experiment.RunJobs(ctx, cfg, jobs)
		if err != nil {
			return fmt.Errorf("RunJobs: %w", err)
		}
		perShard = append(perShard, float64(time.Since(t0))/float64(time.Millisecond))
		all = append(all, res...)
	}
	l.tr.record("layer.experiment.runjobs", id, l.root, start, time.Now())
	l.r.set("experiment.runjobs_ms_per_shard", "ms", median(perShard), len(perShard))

	var folds []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := experiment.FoldJobs(cfg, all); err != nil {
			return fmt.Errorf("FoldJobs: %w", err)
		}
		folds = append(folds, float64(time.Since(t0))/float64(time.Millisecond))
	}
	l.r.set("experiment.foldjobs_ms", "ms", median(folds), len(folds))
	return nil
}
