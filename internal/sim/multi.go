package sim

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"rtdvs/internal/core"
	"rtdvs/internal/fpx"
	"rtdvs/internal/machine"
	"rtdvs/internal/sched"
	"rtdvs/internal/task"
	"rtdvs/internal/trace"
)

// Multi-core simulation. Two execution models cover the multiprocessor
// design space of Nélis et al.:
//
// Partitioned (first-fit or worst-fit decreasing): tasks are statically
// assigned to cores, and each core is an independent uniprocessor EDF/RM
// problem with its own policy instance — so each core runs on the
// existing scalar engine, unmodified. At m = 1 the partition is the
// identity and the sub-problem IS the original problem: single-core
// MultiRunner results are bit-identical to the scalar Runner by
// construction, which the m=1 regression suite pins.
//
// Global: one system-wide EDF queue whose m earliest-deadline jobs
// occupy the m cores, jobs migrate freely, and a single gang policy
// drives the shared voltage/frequency rail. This mode runs on its own
// event loop (multiSim below) with deterministic cross-core
// tie-breaking: picks in (deadline, task index) order, sticky-core
// placement, remaining jobs to the lowest-indexed free core.

// execSeedStride separates the per-core execution-model seeds of a
// partitioned run. Each core's model is seeded from the run seed plus
// stride × (the core's first original task index), so the seed travels
// with the sub-set — relabeling cores cannot change any draw — and core
// 0 of a single-core run gets exactly cfg.Seed, the scalar parity case.
const execSeedStride = 1_000_003

// MultiConfig describes one multi-core simulation run. The core count
// comes from Machine.NumCores; Placement selects the execution model.
//
// Unlike the scalar Config, the policy and execution model are given by
// name/spec rather than instance: a partitioned run needs one policy
// instance and one execution-model instance per core, which the runner
// constructs (via core.ExtendedByName and task.ParseExec) so no state
// is ever shared across cores.
type MultiConfig struct {
	// Tasks is the periodic task set, indexed system-wide.
	Tasks *task.Set
	// Machine is the platform; NumCores cores share its point table.
	Machine *machine.Spec
	// Policy names the per-core policy (partitioned) or the gang policy
	// (global) — any name core.ExtendedByName resolves.
	Policy string
	// Placement selects partitioned-ff (default), partitioned-wf, or
	// global scheduling.
	Placement sched.Placement
	// Exec is the execution-model spec for task.ParseExec ("" = "wcet").
	Exec string
	// Seed seeds stateful execution models (see execSeedStride).
	Seed int64
	// Horizon is the simulated duration in ms; 0 selects 20 × the
	// longest period.
	Horizon float64
	// Overhead optionally models operating-point switch stop intervals.
	Overhead *machine.SwitchOverhead
	// Recorder optionally captures the execution trace. Only single-core
	// partitioned runs support it (a multi-core trace would interleave
	// per-core segments with clashing task indexes).
	Recorder *trace.Recorder
	// CheckInvariants enables the runtime invariant checkers; always on
	// under `go test`.
	CheckInvariants bool
	// Metrics optionally accumulates rtdvs_core_* observables once per
	// successful run.
	Metrics *MultiMetrics
	// Partition overrides the computed task-to-core assignment
	// (partitioned placements only). Used by the metamorphic tests to
	// relabel cores; must assign every task to a core in [0, NumCores).
	Partition *sched.Partition
}

// CoreStats aggregates one core's outcomes within a multi-core run.
type CoreStats struct {
	// Tasks lists the original task indexes assigned to this core
	// (partitioned runs; nil under global scheduling, where jobs
	// migrate).
	Tasks []int `json:"tasks,omitempty"`
	// Util is the worst-case utilization packed onto this core
	// (partitioned runs).
	Util        float64 `json:"util"`
	ExecEnergy  float64 `json:"execEnergy"`
	IdleEnergy  float64 `json:"idleEnergy"`
	CyclesDone  float64 `json:"cyclesDone"`
	BusyTime    float64 `json:"busyTime"`
	IdleTime    float64 `json:"idleTime"`
	HaltTime    float64 `json:"haltTime"`
	Switches    int     `json:"switches"`
	Releases    int     `json:"releases"`
	Completions int     `json:"completions"`
	Misses      int     `json:"misses"`
}

// MultiResult reports the outcome of a multi-core run. Times (BusyTime,
// IdleTime, HaltTime) are core-milliseconds — summed across cores — so
// BusyTime + IdleTime + HaltTime ≈ Cores × Horizon; at m = 1 every
// field coincides with the scalar Result's. Scalar totals are folded in
// a canonical core order (ascending first-assigned-task index) so they
// are bit-identical under core relabeling.
type MultiResult struct {
	Policy    string  `json:"policy"`
	Placement string  `json:"placement"`
	Cores     int     `json:"cores"`
	Horizon   float64 `json:"horizon"`

	ExecEnergy  float64 `json:"execEnergy"`
	IdleEnergy  float64 `json:"idleEnergy"`
	TotalEnergy float64 `json:"totalEnergy"`
	CyclesDone  float64 `json:"cyclesDone"`
	BusyTime    float64 `json:"busyTime"`
	IdleTime    float64 `json:"idleTime"`
	HaltTime    float64 `json:"haltTime"`
	Switches    int     `json:"switches"`
	Releases    int     `json:"releases"`
	Completions int     `json:"completions"`
	Events      int     `json:"events"`
	Preemptions int     `json:"preemptions"`
	// Migrations counts jobs resuming on a different core than they last
	// ran on (global scheduling only; partitioned jobs never migrate).
	Migrations int `json:"migrations"`
	// Misses holds every deadline miss with system-wide task indexes,
	// sorted by (Deadline, Task, Inv).
	Misses []Miss `json:"misses,omitempty"`
	// Guaranteed reports whether the admission test held at full speed:
	// a feasible partition with every per-core policy guaranteeing its
	// sub-set (partitioned), or the gang policy's global test (global).
	Guaranteed bool `json:"guaranteed"`
	// Feasible reports whether the placement admits the set at full
	// speed at all: per-core utilizations ≤ 1 (partitioned) or the
	// sufficient global-EDF test (global). An infeasible run still
	// executes and degrades by missing deadlines.
	Feasible bool        `json:"feasible"`
	PerTask  []TaskStats `json:"perTask"`
	PerCore  []CoreStats `json:"perCore"`
}

// AvgPower returns the average platform power (all cores) over the run.
func (r *MultiResult) AvgPower() float64 {
	if r.Horizon <= 0 {
		return 0
	}
	return r.TotalEnergy / r.Horizon
}

// MissCount returns the number of deadline misses.
func (r *MultiResult) MissCount() int { return len(r.Misses) }

// Clone returns a deep copy of r that remains valid after the
// MultiRunner that produced r is reused.
func (r *MultiResult) Clone() *MultiResult {
	c := *r
	if r.Misses != nil {
		c.Misses = append([]Miss(nil), r.Misses...)
	}
	if r.PerTask != nil {
		c.PerTask = append([]TaskStats(nil), r.PerTask...)
	}
	if r.PerCore != nil {
		c.PerCore = append([]CoreStats(nil), r.PerCore...)
		for i := range c.PerCore {
			if ts := c.PerCore[i].Tasks; ts != nil {
				c.PerCore[i].Tasks = append([]int(nil), ts...)
			}
		}
	}
	return &c
}

// MultiCanceled is the multi-core counterpart of Canceled: the context
// ended before the horizon and Partial carries whatever completed.
// For a partitioned run, cores are simulated in ascending index order
// and Partial folds every core finished before the cancellation plus
// the interrupted core's partial progress.
type MultiCanceled struct {
	// At is the simulated time (ms) the interrupted core had reached.
	At float64
	// Partial aliases the MultiRunner's buffers, like a completed
	// result; use MultiResult.Clone to retain it.
	Partial *MultiResult
	// Cause is the context's error.
	Cause error
}

// Error implements error.
func (e *MultiCanceled) Error() string {
	return fmt.Sprintf("sim: multi-core run cancelled at t=%g of horizon %g: %v",
		e.At, e.Partial.Horizon, e.Cause)
}

// Unwrap returns the context error the cancellation traces to.
func (e *MultiCanceled) Unwrap() error { return e.Cause }

// MultiRunner executes multi-core runs back to back, reusing the
// per-core scalar Runners, cached policy instances, and the global
// engine's buffers across runs. Not safe for concurrent use. The
// returned MultiResult aliases the runner's buffers and is valid until
// the next Run call; use Clone to retain one.
type MultiRunner struct {
	subs []*Runner // per-core scalar runners (partitioned mode)

	// Per-core policy instances, cached by name: Attach resets all
	// policy state, so instances are reusable across sequential runs.
	pols    []core.Policy
	polName string

	g   multiSim // global-EDF gang engine state
	res MultiResult

	subTasks []task.Task // scratch: per-core sub-set construction
	coreIdx  []int       // scratch: canonical core fold order
}

// NewMultiRunner returns an empty MultiRunner; buffers grow on first
// use.
func NewMultiRunner() *MultiRunner { return &MultiRunner{} }

// RunMulti executes the configuration on a fresh MultiRunner.
func RunMulti(cfg MultiConfig) (*MultiResult, error) {
	return NewMultiRunner().Run(cfg)
}

// RunMultiContext executes the configuration on a fresh MultiRunner
// under ctx.
func RunMultiContext(ctx context.Context, cfg MultiConfig) (*MultiResult, error) {
	return NewMultiRunner().RunContext(ctx, cfg)
}

// Run executes one multi-core configuration, reusing the runner's
// buffers.
func (r *MultiRunner) Run(cfg MultiConfig) (*MultiResult, error) {
	return r.run(nil, cfg)
}

// RunContext is Run with cooperative cancellation: when ctx ends before
// the horizon it returns a *MultiCanceled carrying the partial result.
func (r *MultiRunner) RunContext(ctx context.Context, cfg MultiConfig) (*MultiResult, error) {
	if ctx != nil && ctx.Done() == nil {
		ctx = nil
	}
	return r.run(ctx, cfg)
}

// run validates the configuration and dispatches to the placement's
// execution model.
func (r *MultiRunner) run(ctx context.Context, cfg MultiConfig) (*MultiResult, error) {
	m, err := validateMulti(&cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Placement == sched.Global {
		return r.runGlobal(ctx, cfg, m)
	}
	return r.runPartitioned(ctx, cfg, m)
}

// validateMulti checks the placement-independent parts of a MultiConfig,
// applies the default horizon in place, and returns the core count.
func validateMulti(cfg *MultiConfig) (int, error) {
	if cfg.Tasks == nil || cfg.Tasks.Len() == 0 {
		return 0, task.ErrEmptySet
	}
	if cfg.Machine == nil {
		return 0, fmt.Errorf("sim: nil machine spec")
	}
	if err := cfg.Machine.Validate(); err != nil {
		return 0, err
	}
	if cfg.Policy == "" {
		return 0, fmt.Errorf("sim: empty policy name")
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 20 * cfg.Tasks.MaxPeriod()
	}
	m := cfg.Machine.NumCores()
	if cfg.Recorder != nil && (m > 1 || cfg.Placement == sched.Global) {
		return 0, fmt.Errorf("sim: trace recording requires a single-core partitioned run, got %d cores (%v)", m, cfg.Placement)
	}
	if cfg.Placement == sched.Global && cfg.Partition != nil {
		return 0, fmt.Errorf("sim: placement %v has no static partition", sched.Global)
	}
	return m, nil
}

// resolvePartition returns the task-to-core assignment for a partitioned
// run: the validated override when one is given, the placement's packing
// otherwise.
func resolvePartition(cfg MultiConfig, m int) (sched.Partition, error) {
	if cfg.Partition == nil {
		return sched.PartitionFor(cfg.Placement, cfg.Tasks, m)
	}
	part := *cfg.Partition
	if part.Cores != m {
		return part, fmt.Errorf("sim: partition override covers %d cores, machine has %d", part.Cores, m)
	}
	if len(part.Assign) != cfg.Tasks.Len() {
		return part, fmt.Errorf("sim: partition override assigns %d tasks, set has %d", len(part.Assign), cfg.Tasks.Len())
	}
	for i, c := range part.Assign {
		if c < 0 || c >= m {
			return part, fmt.Errorf("sim: partition override sends task %d to core %d, want [0, %d)", i, c, m)
		}
	}
	return part, nil
}

// polFor returns the i-th cached policy instance for name, rebuilding
// the cache when the name changes. Attach (called by the scalar Runner
// or the global engine) resets all instance state, so reuse is safe.
func (r *MultiRunner) polFor(name string, i int) (core.Policy, error) {
	if name != r.polName {
		r.pols = r.pols[:0]
		r.polName = name
	}
	for len(r.pols) <= i {
		p, err := core.ExtendedByName(name)
		if err != nil {
			return nil, err
		}
		r.pols = append(r.pols, p)
	}
	return r.pols[i], nil
}

// subRunner returns the i-th per-core scalar Runner, growing the pool
// on first use.
func (r *MultiRunner) subRunner(i int) *Runner {
	for len(r.subs) <= i {
		r.subs = append(r.subs, NewRunner())
	}
	return r.subs[i]
}

// resetResult initializes the reusable MultiResult for a new run.
func (r *MultiRunner) resetResult(cfg MultiConfig, m int) *MultiResult {
	res := &r.res
	*res = MultiResult{
		Policy:    cfg.Policy,
		Placement: cfg.Placement.String(),
		Cores:     m,
		Horizon:   cfg.Horizon,
		Misses:    res.Misses[:0],
		PerTask:   growZeroed(res.PerTask, cfg.Tasks.Len()),
		PerCore:   growZeroed(res.PerCore, m),
	}
	for c := range res.PerCore {
		res.PerCore[c].Tasks = res.PerCore[c].Tasks[:0]
	}
	return res
}

// sortMisses orders the merged miss list by (Deadline, Task, Inv) — a
// strict total order (an invocation misses at most once), so the merged
// order is unique regardless of which core contributed which miss. A
// single-core run's chronological miss order already satisfies it, so
// the m=1 fold is a no-op re-sort.
func sortMisses(ms []Miss) {
	// Insertion sort: miss lists are short, usually empty, and the fold
	// must stay allocation-free (sort.Slice's closure escapes).
	for i := 1; i < len(ms); i++ {
		v := ms[i]
		j := i
		for j > 0 && missBefore(v, ms[j-1]) {
			ms[j] = ms[j-1]
			j--
		}
		ms[j] = v
	}
}

// missBefore is the (Deadline, Task, Inv) order sortMisses applies.
func missBefore(x, y Miss) bool {
	switch {
	//rtdvs:ignore floatcmp deadlines coincide only when bit-equal (same release arithmetic); a tolerant Ne breaks the strict weak order
	case x.Deadline != y.Deadline:
		return x.Deadline < y.Deadline
	case x.Task != y.Task:
		return x.Task < y.Task
	}
	return x.Inv < y.Inv
}

// --- partitioned execution ---

// runPartitioned reduces the m-core problem to per-core scalar runs and
// folds their results.
func (r *MultiRunner) runPartitioned(ctx context.Context, cfg MultiConfig, m int) (*MultiResult, error) {
	ts := cfg.Tasks
	n := ts.Len()

	part, err := resolvePartition(cfg, m)
	if err != nil {
		return nil, err
	}

	res := r.resetResult(cfg, m)
	res.Feasible = partFeasible(ts, part, m)
	res.Guaranteed = res.Feasible

	// Fill per-core task lists and utilizations from the assignment.
	for i := 0; i < n; i++ {
		c := part.Assign[i]
		pc := &res.PerCore[c]
		pc.Tasks = append(pc.Tasks, i)
		pc.Util += ts.Task(i).Utilization()
	}

	// Canonical fold order: non-empty cores by ascending first task
	// index, then empty cores by core index. Relabeling cores permutes
	// core indexes but not this order, so every float accumulation below
	// is bit-identical under relabeling.
	r.coreIdx = r.coreIdx[:0]
	for c := 0; c < m; c++ {
		if len(res.PerCore[c].Tasks) > 0 {
			r.coreIdx = append(r.coreIdx, c)
		}
	}
	sort.Slice(r.coreIdx, func(a, b int) bool {
		return res.PerCore[r.coreIdx[a]].Tasks[0] < res.PerCore[r.coreIdx[b]].Tasks[0]
	})
	for c := 0; c < m; c++ {
		if len(res.PerCore[c].Tasks) == 0 {
			r.coreIdx = append(r.coreIdx, c)
		}
	}

	// Simulate each core in canonical order, folding as we go so a
	// cancellation still returns a consistent prefix.
	var canceled *MultiCanceled
	for sub, c := range r.coreIdx {
		pc := &res.PerCore[c]
		if len(pc.Tasks) == 0 {
			// An unloaded core halts at the platform minimum for the
			// whole horizon.
			e := cfg.Machine.IdlePower(cfg.Machine.Min()) * cfg.Horizon
			pc.IdleEnergy = e
			pc.IdleTime = cfg.Horizon
			res.IdleEnergy += e
			res.IdleTime += cfg.Horizon
			continue
		}

		subSet, pol, exec, err := r.coreConfig(cfg, ts, pc.Tasks, m)
		if err != nil {
			return nil, err
		}
		scfg := Config{
			Tasks:           subSet,
			Machine:         cfg.Machine,
			Policy:          pol,
			Exec:            exec,
			Horizon:         cfg.Horizon,
			Overhead:        cfg.Overhead,
			Recorder:        cfg.Recorder, // nil unless m == 1
			CheckInvariants: cfg.CheckInvariants,
		}
		sres, err := r.subRunner(sub).RunContext(ctx, scfg)
		if err != nil {
			if cerr, ok := err.(*Canceled); ok {
				foldCore(res, pc, cerr.Partial, pc.Tasks)
				canceled = &MultiCanceled{At: cerr.At, Partial: res, Cause: cerr.Cause}
				break
			}
			return nil, fmt.Errorf("sim: core %d: %w", c, err)
		}
		if !sres.Guaranteed {
			res.Guaranteed = false
		}
		foldCore(res, pc, sres, pc.Tasks)
	}

	res.TotalEnergy = res.ExecEnergy + res.IdleEnergy
	sortMisses(res.Misses)
	if canceled != nil {
		return nil, canceled
	}
	if cfg.Metrics != nil {
		cfg.Metrics.observe(res)
	}
	return res, nil
}

// partFeasible reports whether every core's packed worst-case
// utilization passes the uniprocessor EDF bound — Partition.Feasible
// recomputed for an override that may not have set it.
func partFeasible(ts *task.Set, part sched.Partition, m int) bool {
	util := make([]float64, m)
	for i, c := range part.Assign {
		util[c] += ts.Task(i).Utilization()
	}
	for _, u := range util {
		if !fpx.Le(u, 1) {
			return false
		}
	}
	return true
}

// coreConfig builds core c's sub-problem: the sub-set over its assigned
// tasks (original order preserved; at m = 1 the original set is reused
// verbatim so scalar delegation is exact), a fresh-for-this-core policy
// instance, and an execution model seeded from the sub-set's first
// original task (see execSeedStride).
func (r *MultiRunner) coreConfig(cfg MultiConfig, ts *task.Set, coreTasks []int, m int) (*task.Set, core.Policy, task.ExecModel, error) {
	pol, err := r.polFor(cfg.Policy, coreTasks[0])
	if err != nil {
		return nil, nil, nil, err
	}
	seed := cfg.Seed + execSeedStride*int64(coreTasks[0])
	exec, err := task.ParseExec(cfg.Exec, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	if m == 1 {
		return ts, pol, exec, nil
	}
	r.subTasks = r.subTasks[:0]
	for _, i := range coreTasks {
		r.subTasks = append(r.subTasks, ts.Task(i))
	}
	subSet, err := task.NewSet(r.subTasks...)
	if err != nil {
		return nil, nil, nil, err
	}
	return subSet, pol, exec, nil
}

// foldCore accumulates one core's scalar result into the multi-core
// totals, remapping local task indexes back to system-wide ones.
func foldCore(res *MultiResult, pc *CoreStats, sres *Result, coreTasks []int) {
	pc.ExecEnergy = sres.ExecEnergy
	pc.IdleEnergy = sres.IdleEnergy
	pc.CyclesDone = sres.CyclesDone
	pc.BusyTime = sres.BusyTime
	pc.IdleTime = sres.IdleTime
	pc.HaltTime = sres.HaltTime
	pc.Switches = sres.Switches
	pc.Releases = sres.Releases
	pc.Completions = sres.Completions
	pc.Misses = len(sres.Misses)

	res.ExecEnergy += sres.ExecEnergy
	res.IdleEnergy += sres.IdleEnergy
	res.CyclesDone += sres.CyclesDone
	res.BusyTime += sres.BusyTime
	res.IdleTime += sres.IdleTime
	res.HaltTime += sres.HaltTime
	res.Switches += sres.Switches
	res.Releases += sres.Releases
	res.Completions += sres.Completions
	res.Events += sres.Events
	res.Preemptions += sres.Preemptions
	for li, gi := range coreTasks {
		res.PerTask[gi] = sres.PerTask[li]
	}
	for _, ms := range sres.Misses {
		res.Misses = append(res.Misses, Miss{
			Task: coreTasks[ms.Task], Inv: ms.Inv,
			Deadline: ms.Deadline, Remaining: ms.Remaining,
		})
	}
}

// --- global-EDF gang execution ---

// runGlobal executes the configuration on the global-EDF gang engine.
func (r *MultiRunner) runGlobal(ctx context.Context, cfg MultiConfig, m int) (*MultiResult, error) {
	pol, err := r.polFor(cfg.Policy, 0)
	if err != nil {
		return nil, err
	}
	if _, ok := pol.(core.GangPolicy); !ok {
		return nil, fmt.Errorf("sim: global placement needs a gang policy (one of gangStaticEDF, gangCCEDF, gangLAEDF), got %q", cfg.Policy)
	}
	exec, err := task.ParseExec(cfg.Exec, cfg.Seed)
	if err != nil {
		return nil, err
	}
	wireDistributions(pol, exec)
	if err := pol.Attach(cfg.Tasks, cfg.Machine); err != nil {
		return nil, err
	}

	res := r.resetResult(cfg, m)
	res.Guaranteed = pol.Guaranteed()
	res.Feasible = sched.GlobalEDFTest(cfg.Tasks, m, 1)

	g := &r.g
	g.init(cfg, pol, exec, m, res, ctx)
	g.run()
	if err := g.invErr; err != nil {
		return nil, err
	}
	sortMisses(res.Misses)
	if g.ctxErr != nil {
		return nil, &MultiCanceled{At: g.now, Partial: res, Cause: g.ctxErr}
	}
	if cfg.Metrics != nil {
		cfg.Metrics.observe(res)
	}
	return res, nil
}

// multiSim is the global-EDF gang event loop: a shared release timer
// heap, one system-wide EDF ready queue, and m cores on one voltage
// rail. All state lives in reusable buffers. It implements core.System
// for the gang policy's callbacks.
type multiSim struct {
	cfg    MultiConfig
	pol    core.Policy
	exec   task.ExecModel
	ts     *task.Set
	m      int
	kind   sched.Kind
	states []taskState
	now    float64
	res    *MultiResult

	hw    machine.OperatingPoint
	hwIdx int
	sel   machine.PointSelector

	timers sched.ReadyQueue
	ready  sched.ReadyQueue

	due      []int // scratch: timer drain, replayed in ascending index order
	released []int // scratch: releases pending policy callbacks
	picks    []int // this segment's EDF picks, in (deadline, index) order
	lastRun  []int // previous segment's picks (for preemption counting)
	finished []int // scratch: completions this segment

	running  []int // per core: running task index, or -1
	taskCore []int // per task: core it last ran on, or -1

	checks bool // invariant checking enabled
	invErr error

	ctx     context.Context
	ctxTick int
	ctxErr  error
}

// init resets the engine for a new run.
func (g *multiSim) init(cfg MultiConfig, pol core.Policy, exec task.ExecModel, m int, res *MultiResult, ctx context.Context) {
	n := cfg.Tasks.Len()
	g.cfg = cfg
	g.pol = pol
	g.exec = exec
	g.ts = cfg.Tasks
	g.m = m
	g.kind = pol.Scheduler()
	g.states = growZeroed(g.states, n)
	g.now = 0
	g.res = res
	g.sel = cfg.Machine.Selector()
	g.timers.Reset(n)
	g.ready.Reset(n)
	g.due = g.due[:0]
	g.released = g.released[:0]
	g.picks = g.picks[:0]
	g.lastRun = g.lastRun[:0]
	g.finished = g.finished[:0]
	g.running = growZeroed(g.running, m)
	g.taskCore = growZeroed(g.taskCore, n)
	for i := range g.taskCore {
		g.taskCore[i] = -1
	}
	g.checks = cfg.CheckInvariants || testing.Testing()
	g.invErr = nil
	g.ctx = ctx
	g.ctxTick = 0
	g.ctxErr = nil

	for i := range g.states {
		phase := cfg.Tasks.Task(i).Phase
		g.states[i] = taskState{nextRelease: phase, nominalRel: phase, deadline: phase}
		g.timerAdd(i, phase)
	}
	g.hw = pol.Point()
	g.hwIdx = g.sel.Index(g.hw)
	g.checkPoint(g.hw)
}

// --- core.System ---

func (g *multiSim) Now() float64 { return g.now }

func (g *multiSim) Deadline(i int) float64 {
	st := &g.states[i]
	if st.active {
		return st.deadline
	}
	return st.nominalRel
}

// --- invariants ---

func (g *multiSim) failf(format string, args ...interface{}) {
	if g.invErr == nil {
		g.invErr = fmt.Errorf("sim: invariant violated at t=%g: %s",
			g.now, fmt.Sprintf(format, args...))
	}
}

func (g *multiSim) checkPoint(op machine.OperatingPoint) {
	if !g.checks || g.invErr != nil {
		return
	}
	for _, p := range g.cfg.Machine.Points {
		if p == op {
			return
		}
	}
	g.failf("policy %s selected operating point (f=%g, V=%g), which is not one of the machine's discrete points",
		g.pol.Name(), op.Freq, op.Voltage)
}

// checkOccupancy enforces the multi-core scheduling invariant: a core
// runs at most one job (structural: running is core-indexed) and a job
// runs on at most one core at any instant.
func (g *multiSim) checkOccupancy() {
	if !g.checks || g.invErr != nil {
		return
	}
	for a := 0; a < g.m; a++ {
		t := g.running[a]
		if t < 0 {
			continue
		}
		if !g.states[t].active {
			g.failf("inactive task %d scheduled on core %d", t, a)
			return
		}
		for b := a + 1; b < g.m; b++ {
			if g.running[b] == t {
				g.failf("task %d scheduled on cores %d and %d at once", t, a, b)
				return
			}
		}
	}
}

func (g *multiSim) checkUtilization() {
	if !g.checks || g.invErr != nil || !g.res.Guaranteed {
		return
	}
	if ur, ok := g.pol.(UtilizationReporter); ok {
		// A gang policy reserves aggregate utilization across m cores.
		if u := ur.ReservedUtilization(); fpx.Gt(u, float64(g.m)) {
			g.failf("policy %s reserves utilization %g > %d cores for an admitted task set",
				g.pol.Name(), u, g.m)
		}
	}
}

func (g *multiSim) checkMiss(i, inv int, deadline float64) {
	if !g.checks || g.invErr != nil {
		return
	}
	if g.res.Guaranteed {
		g.failf("task %d invocation %d missed its deadline %g under %s, which guaranteed the set",
			i, inv, deadline, g.pol.Name())
	}
}

// --- engine ---

//rtdvs:hotpath
func (g *multiSim) timerAdd(i int, at float64) {
	if err := g.timers.Push(i, at); err != nil {
		panic(err)
	}
}

//rtdvs:hotpath
func (g *multiSim) readyKey(i int) float64 {
	if g.kind == sched.RM {
		return g.ts.Task(i).Period
	}
	return g.states[i].deadline
}

//rtdvs:hotpath
func (g *multiSim) readyAdd(i int) {
	if err := g.ready.Push(i, g.readyKey(i)); err != nil {
		panic(err)
	}
}

//rtdvs:hotpath
func (g *multiSim) pollCtx() bool {
	if g.ctxTick--; g.ctxTick > 0 {
		return false
	}
	g.ctxTick = cancelCheckInterval
	if err := g.ctx.Err(); err != nil {
		g.ctxErr = err
		return true
	}
	return false
}

// processReleases is the scalar simulator's release processing on the
// shared timer heap: misses abort at the release that doubles as the
// deadline, due tasks replay in ascending index order, and the gang
// policy hears one OnRelease per released task.
//
//rtdvs:hotpath
func (g *multiSim) processReleases() {
	if !fpx.Le(g.timers.PeekKey(), g.now) {
		return
	}
	g.due = g.due[:0]
	for fpx.Le(g.timers.PeekKey(), g.now) {
		g.due = append(g.due, g.timers.Pop())
	}
	sortIndexes(g.due)
	g.released = g.released[:0]
	for _, i := range g.due {
		st := &g.states[i]
		for fpx.Le(st.nextRelease, g.now) {
			if st.active {
				g.res.Misses = append(g.res.Misses, Miss{
					Task: i, Inv: st.inv - 1, Deadline: st.deadline, Remaining: st.remaining,
				})
				g.res.PerTask[i].Misses++
				if c := g.taskCore[i]; c >= 0 {
					g.res.PerCore[c].Misses++
				}
				g.checkMiss(i, st.inv-1, st.deadline)
				st.active = false
				g.ready.Remove(i)
			}
			rel := st.nominalRel
			p := g.ts.Task(i)
			wcet := p.WCET
			c := g.exec.Cycles(i, st.inv, wcet)
			if c > wcet {
				c = wcet
			}
			if c <= 0 {
				c = math.SmallestNonzeroFloat64
			}
			st.remaining = c
			st.used = 0
			st.releasedAt = st.nextRelease
			st.deadline = rel + p.Period
			st.nominalRel = rel + p.Period
			st.nextRelease = st.nominalRel
			st.active = true
			st.inv++
			g.res.Releases++
			g.res.PerTask[i].Releases++
			g.readyAdd(i)
			g.released = append(g.released, i)
		}
		g.timerAdd(i, st.nextRelease)
	}
	for _, i := range g.released {
		g.pol.OnRelease(g, i)
	}
	if len(g.released) > 0 {
		g.checkUtilization()
	}
}

// switchTo moves the shared rail to the requested point. All m cores
// halt together through the stop interval (one rail, one transition —
// counted as one switch), so HaltTime accrues m core-milliseconds per
// millisecond of wall halt.
//
//rtdvs:hotpath
func (g *multiSim) switchTo(op machine.OperatingPoint) {
	if op == g.hw {
		return
	}
	var halt float64
	if g.cfg.Overhead != nil {
		halt = g.cfg.Overhead.Halt(g.hw, op)
	}
	g.res.Switches++
	if halt > 0 {
		end := math.Min(g.now+halt, g.cfg.Horizon)
		dur := end - g.now
		for c := 0; c < g.m; c++ {
			g.res.PerCore[c].HaltTime += dur
			g.res.HaltTime += dur
		}
		g.now = end
	}
	g.hw = op
	g.hwIdx = g.sel.Index(op)
	g.checkPoint(op)
}

// assign maps this segment's EDF picks onto cores: first pass keeps
// every pick on the core it last ran on when that core is free (sticky,
// in pick order), second pass sends the rest to the lowest-indexed free
// cores, counting migrations. Both passes walk picks in (deadline,
// index) order, so the assignment is a pure function of the engine
// state.
//
//rtdvs:hotpath
func (g *multiSim) assign() {
	for c := range g.running {
		g.running[c] = -1
	}
	for _, t := range g.picks {
		if c := g.taskCore[t]; c >= 0 && g.running[c] < 0 {
			g.running[c] = t
		}
	}
	next := 0
	for _, t := range g.picks {
		if c := g.taskCore[t]; c >= 0 && g.running[c] == t {
			continue
		}
		for g.running[next] >= 0 {
			next++
		}
		g.running[next] = t
		if g.taskCore[t] >= 0 {
			g.res.Migrations++
		}
		g.taskCore[t] = next
	}
}

// run is the main loop: process releases, pick the m earliest-deadline
// jobs, place them on cores, advance to the next event, account per-core
// energy, and deliver completions in ascending task-index order.
//
//rtdvs:hotpath
func (g *multiSim) run() {
	for fpx.Lt(g.now, g.cfg.Horizon) {
		if g.ctx != nil && g.pollCtx() {
			break
		}
		g.res.Events++
		g.processReleases()

		nextRel := math.Min(g.timers.PeekKey(), g.cfg.Horizon)

		if g.ready.Len() == 0 {
			// All cores idle until the next release at the policy's idle
			// point.
			op := g.pol.IdlePoint()
			g.switchTo(op)
			start := g.now
			end := math.Max(nextRel, g.now)
			if end > start {
				dur := end - start
				e := g.cfg.Machine.IdlePower(op) * dur
				for c := 0; c < g.m; c++ {
					g.res.PerCore[c].IdleEnergy += e
					g.res.PerCore[c].IdleTime += dur
					g.res.IdleEnergy += e
					g.res.IdleTime += dur
				}
				g.now = end
				g.checkEnergy()
			} else {
				g.now = nextRel
			}
			continue
		}

		op := g.pol.Point()
		g.switchTo(op)
		if fpx.Ge(g.now, g.cfg.Horizon) {
			break
		}
		if fpx.Le(g.timers.PeekKey(), g.now) {
			// A release became due during the stop interval.
			continue
		}
		nextRel = math.Min(g.timers.PeekKey(), g.cfg.Horizon)

		// Pick the m earliest-deadline jobs, ties by task index — pop
		// then restore, so pick order is exactly the heap order.
		k := g.ready.Len()
		if k > g.m {
			k = g.m
		}
		g.picks = g.picks[:0]
		for i := 0; i < k; i++ {
			g.picks = append(g.picks, g.ready.Pop())
		}
		for _, t := range g.picks {
			g.readyAdd(t)
		}

		// A job that ran last segment, is still active, and lost its
		// core was preempted by an earlier deadline.
		for _, t := range g.lastRun {
			if !g.states[t].active {
				continue // completed or aborted, not preempted
			}
			onCore := false
			for _, p := range g.picks {
				if p == t {
					onCore = true
					break
				}
			}
			if !onCore {
				g.res.Preemptions++
			}
		}

		g.assign()
		g.checkOccupancy()

		// Segment end: next release, horizon, or earliest finish among
		// the running jobs.
		end := nextRel
		for c := 0; c < g.m; c++ {
			t := g.running[c]
			if t < 0 {
				continue
			}
			if finish := g.now + g.states[t].remaining/g.hw.Freq; finish < end {
				end = finish
			}
		}
		dur := end - g.now

		// Execute the segment core by core in ascending core order.
		for c := 0; c < g.m; c++ {
			t := g.running[c]
			pc := &g.res.PerCore[c]
			if t < 0 {
				e := g.cfg.Machine.IdlePower(g.hw) * dur
				pc.IdleEnergy += e
				pc.IdleTime += dur
				g.res.IdleEnergy += e
				g.res.IdleTime += dur
				continue
			}
			st := &g.states[t]
			finish := g.now + st.remaining/g.hw.Freq
			cycles := dur * g.hw.Freq
			if cycles > st.remaining || fpx.Le(finish, end) {
				cycles = st.remaining
			}
			st.remaining -= cycles
			st.used += cycles
			e := cycles * g.hw.EnergyPerCycle()
			pc.CyclesDone += cycles
			pc.ExecEnergy += e
			pc.BusyTime += dur
			g.res.CyclesDone += cycles
			g.res.ExecEnergy += e
			g.res.BusyTime += dur
			g.res.PerTask[t].Cycles += cycles
			g.pol.OnExecute(t, cycles)
		}
		g.now = end
		g.checkEnergy()

		// Deliver completions in ascending task-index order.
		g.finished = g.finished[:0]
		for c := 0; c < g.m; c++ {
			t := g.running[c]
			if t >= 0 && fpx.Le(g.states[t].remaining, 0) {
				g.finished = append(g.finished, t)
			}
		}
		sortIndexes(g.finished)
		for _, t := range g.finished {
			st := &g.states[t]
			st.remaining = 0
			st.active = false
			g.ready.Remove(t)
			g.res.Completions++
			g.res.PerTask[t].Completions++
			if c := g.taskCore[t]; c >= 0 {
				g.res.PerCore[c].Completions++
				g.res.PerCore[c].Releases++ // invocation fully hosted: release credited where it completed
			}
			if resp := g.now - st.releasedAt; resp > g.res.PerTask[t].MaxResponse {
				g.res.PerTask[t].MaxResponse = resp
			}
			g.pol.OnCompletion(g, t, st.used)
		}
		if len(g.finished) > 0 {
			g.checkUtilization()
		}
		//rtdvs:ignore hotalloc reset-and-refill of g.lastRun reuses its backing array; no growth after the first poll
		g.lastRun = append(g.lastRun[:0], g.picks...)
	}
	g.res.TotalEnergy = g.res.ExecEnergy + g.res.IdleEnergy
	g.checkEnergy()
}

// checkEnergy verifies energy components stay non-negative and the
// total monotone — the scalar checker's conditions on the multi-core
// accumulators.
func (g *multiSim) checkEnergy() {
	if !g.checks || g.invErr != nil {
		return
	}
	if g.res.ExecEnergy < 0 || g.res.IdleEnergy < 0 {
		g.failf("negative energy component (exec=%g, idle=%g)",
			g.res.ExecEnergy, g.res.IdleEnergy)
	}
}
