package sim

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"testing"

	"rtdvs/internal/fpx"
	"rtdvs/internal/machine"
	"rtdvs/internal/sched"
	"rtdvs/internal/task"
)

// batchMaxSlots bounds the size of a lane's precomputed release table:
// a table that would need more slots (its end marker included) is
// abandoned and the lane falls back to the timer-heap path. The cap
// keeps table construction O(small) and the table itself cache-resident;
// real harmonic (frame-based) sets are far below it.
const batchMaxSlots = 4096

// BatchRunner executes K independent simulations back to back on one
// reused lane engine: each lane is attached, set up and run to its
// horizon before the next one starts, exactly as sequential runs on a
// scalar Runner are. Per-lane results are bit-identical to running each
// configuration on a scalar Runner: the lane event loop is a faithful
// transcription of the scalar one, so every float is accumulated in the
// same order.
//
// Two specializations make a lane cheaper than a scalar run. Lanes
// without fault injection or trace recording run a reduced loop with the
// fault branches and non-inlined math.Min/Max calls compiled out. Lanes
// whose task set is harmonic (task.Set.Hyperperiod, exactly integral
// periods and phases) replace the release timer heap with a precomputed
// release table: periodic releases become a cursor walk over (time,
// task-bitmask) slots instead of O(log n) heap churn per task per
// period. The table is merged from the tasks' release sequences and
// reaches only as far as the run can (one hyperperiod, or just past the
// horizon when that comes first; see buildReleaseTable). Release times
// on an integral grid are exact float64 integers, so the table
// reproduces the scalar heap's times bit-for-bit.
//
// Lanes that do configure Faults or a Recorder are executed on embedded
// scalar Runners (one per such lane, retained across batches), keeping
// the full configuration space available at scalar cost.
//
// Like Runner, a BatchRunner reuses every internal buffer, so
// steady-state batches perform no allocation; the returned Results alias
// per-lane buffers and are valid until the next Run call. Not safe for
// concurrent use. Lanes run one at a time and Attach resets a policy, so
// lanes may share a Policy instance; a stateful ExecModel shared between
// lanes sees their draws in lane order.
type BatchRunner struct {
	ln       lane      // the engine, reset for every lane
	store    []Result  // per-lane result storage, retained across batches
	results  []*Result // parallel output slices
	errs     []error
	fallback []*Runner // scalar runners for fault/recorder lanes
}

// NewBatchRunner returns an empty BatchRunner; buffers grow on first use.
func NewBatchRunner() *BatchRunner { return &BatchRunner{} }

// RunBatch executes the configurations on a fresh BatchRunner (see
// BatchRunner.Run).
func RunBatch(cfgs []Config) ([]*Result, []error) {
	return NewBatchRunner().Run(cfgs)
}

// Run executes every configuration and returns parallel slices of
// per-lane results and errors: results[i] is non-nil exactly when
// errs[i] is nil. The results (and the slices themselves) alias the
// BatchRunner's buffers and are valid until the next Run call; use
// Result.Clone to retain one.
func (b *BatchRunner) Run(cfgs []Config) ([]*Result, []error) {
	return b.run(nil, cfgs)
}

// RunContext is Run with cooperative cancellation: each lane polls ctx
// every cancelCheckInterval events, exactly like Runner.RunContext. Lanes
// that finished before the context ended keep their results; the lane
// it interrupts and every later lane report a *Canceled error carrying
// their partial result.
func (b *BatchRunner) RunContext(ctx context.Context, cfgs []Config) ([]*Result, []error) {
	if ctx != nil && ctx.Done() == nil {
		ctx = nil
	}
	return b.run(ctx, cfgs)
}

// lane is the batch engine. Its event-loop methods are a transcription
// of the scalar simulator's, specialized to the fault-free no-recorder
// configuration. lane implements core.System and sched.TaskView for the
// policy callbacks.
type lane struct {
	cfg    Config
	ts     *task.Set
	states []taskState
	now    float64
	kind   sched.Kind
	res    Result

	inv      *laneInvariant
	invStore laneInvariant

	hw      machine.OperatingPoint
	hwIdx   int
	sel     machine.PointSelector
	resTime []float64

	// timers holds timer-heap lanes' pending releases and ready the
	// EDF/RM run queue, both exactly as in the scalar simulator.
	timers sched.ReadyQueue
	ready  sched.ReadyQueue

	due      []int // scratch: timer-heap lanes' release drain
	released []int // scratch: release events pending policy callbacks

	lastRun int
	ctxErr  error

	// Cached policy facets, constant after Attach: the utilization
	// reporter assertion and the admission verdict, so the per-event
	// invariant checks skip the interface machinery the scalar checker
	// pays.
	ur         UtilizationReporter
	guaranteed bool

	// cachedOp/cachedIdx memoize the last PointSelector.Index lookup —
	// a pure function, so the cache is exact. The idle path would
	// otherwise pay a linear table scan per idle event.
	cachedOp   machine.OperatingPoint
	cachedIdx  int
	cacheValid bool

	// Harmonic release table: when harmonic is true the lane never
	// touches the timer heap — slotTime/slotBits list the release
	// instants of one hyperperiod (or of its prefix up to an end marker
	// past the horizon), and (epochBase, cursor) locate the next pending
	// slot. tabNext caches its absolute time.
	harmonic  bool
	slotTime  []float64
	slotBits  []uint64
	hyper     float64
	epochBase float64
	cursor    int
	tabNext   float64

	// Single-frame fast path: when every task shares one period and one
	// phase, all simultaneously active jobs carry the same ready key
	// (equal deadlines under EDF, equal periods under RM), so the heap's
	// key-then-index order degenerates to plain task-index order. The
	// ready set is then a bitmask — insert/remove are single bit ops and
	// peek is TrailingZeros64 — with order provably identical to the
	// heap's. frame implies harmonic, so n ≤ 64 is already guaranteed.
	frame     bool
	readyBits uint64
}

// --- core.System / sched.TaskView ---

func (ln *lane) Now() float64 { return ln.now }

func (ln *lane) Deadline(i int) float64 {
	st := &ln.states[i]
	if st.active {
		return st.deadline
	}
	return st.nominalRel
}

func (ln *lane) NumTasks() int        { return ln.ts.Len() }
func (ln *lane) Task(i int) task.Task { return ln.ts.Task(i) }
func (ln *lane) Ready(i int) bool     { return ln.states[i].active }

// --- batch orchestration ---

// run executes the lanes in order: fault/recorder lanes on scalar
// Runners, every other lane on the lane engine.
func (b *BatchRunner) run(ctx context.Context, cfgs []Config) ([]*Result, []error) {
	k := len(cfgs)
	b.results = growZeroed(b.results, k)
	b.errs = growZeroed(b.errs, k)
	if cap(b.store) >= k {
		b.store = b.store[:k]
	} else {
		grown := make([]Result, k)
		copy(grown, b.store[:cap(b.store)])
		b.store = grown
	}
	nfall := 0
	for l, cfg := range cfgs {
		if cfg.Faults != nil || cfg.Recorder != nil {
			b.results[l], b.errs[l] = b.fallbackRunner(nfall).RunContext(ctx, cfg)
			nfall++
			continue
		}
		cfg, err := prepare(cfg)
		if err != nil {
			b.errs[l] = err
			continue
		}
		b.results[l], b.errs[l] = b.ln.run(ctx, cfg, &b.store[l])
	}
	return b.results, b.errs
}

// fallbackRunner returns the i-th scalar Runner of the fallback pool,
// growing the pool on first use and retaining it across batches so
// repeated batches with fault/recorder lanes stay allocation-free too.
func (b *BatchRunner) fallbackRunner(i int) *Runner {
	for len(b.fallback) <= i {
		b.fallback = append(b.fallback, NewRunner())
	}
	return b.fallback[i]
}

// run executes one prepared configuration to its horizon, polling ctx
// the way the scalar run loop does, and leaves the result in out, whose
// buffers the run reuses.
//
//rtdvs:hotpath
func (ln *lane) run(ctx context.Context, cfg Config, out *Result) (*Result, error) {
	ln.setup(cfg, out)
	tick := 0 // poll before the first event: an expired ctx does no work
	for fpx.Lt(ln.now, ln.cfg.Horizon) {
		if ctx != nil {
			if tick--; tick <= 0 {
				tick = cancelCheckInterval
				if err := ctx.Err(); err != nil {
					ln.ctxErr = err
					break
				}
			}
		}
		ln.step()
	}
	return ln.finish(out)
}

// setup initializes the lane exactly the way Runner.run initializes the
// scalar simulator, borrowing out's result buffers, then picks the
// release mechanism.
func (ln *lane) setup(cfg Config, out *Result) {
	n := cfg.Tasks.Len()
	ln.cfg = cfg
	ln.ts = cfg.Tasks
	ln.now = 0
	ln.kind = cfg.Policy.Scheduler()
	ln.sel = cfg.Machine.Selector()
	ln.states = growZeroed(ln.states, n)
	ln.resTime = growZeroed(ln.resTime, ln.sel.Len())
	ln.timers.Reset(n)
	ln.ready.Reset(n)
	ln.lastRun = -1
	ln.ctxErr = nil
	ln.cacheValid = false

	prt := out.PointResTime
	if prt == nil {
		prt = make(map[machine.OperatingPoint]float64, ln.sel.Len())
	} else {
		clear(prt)
	}
	ln.res = Result{
		Policy:       cfg.Policy.Name(),
		Horizon:      cfg.Horizon,
		Guaranteed:   cfg.Policy.Guaranteed(),
		Misses:       out.Misses[:0],
		PerTask:      growZeroed(out.PerTask, n),
		PointResTime: prt,
	}

	ln.harmonic = ln.buildReleaseTable()
	t0 := cfg.Tasks.Task(0)
	ln.frame = ln.harmonic
	ln.readyBits = 0
	for i := range ln.states {
		t := cfg.Tasks.Task(i)
		ln.states[i] = taskState{nextRelease: t.Phase, nominalRel: t.Phase, deadline: t.Phase}
		if !ln.harmonic {
			ln.timerAdd(i, t.Phase)
		}
		//rtdvs:ignore floatcmp exact equality is the gate: the frame fast path requires identical periods and phases, not nearly equal ones
		if t.Period != t0.Period || t.Phase != t0.Phase {
			ln.frame = false
		}
	}

	if cfg.CheckInvariants || testing.Testing() {
		ln.invStore = laneInvariant{ln: ln}
		ln.inv = &ln.invStore
	} else {
		ln.inv = nil
	}
	ln.ur, _ = cfg.Policy.(UtilizationReporter)
	ln.guaranteed = cfg.Policy.Guaranteed()
	ln.hw = cfg.Policy.Point()
	ln.hwIdx = ln.sel.Index(ln.hw)
	ln.inv.checkPoint(ln.hw)
	ln.inv.checkUtilization()
}

// buildReleaseTable precomputes a lane's release instants, reporting
// whether the lane qualifies. Qualification is strict so the table is
// bit-exact against the scalar timer heap: every period and phase must be
// an exact float64 integer (the scalar engine accumulates release times
// by repeated addition, which is exact on the integer grid below 2^53 —
// the same integers the table produces), phases must precede the first
// period so the [0,H) slot pattern repeats verbatim every hyperperiod,
// the task count must fit the 64-bit due-bitmask, and the horizon must
// keep absolute slot times on the exact grid.
//
// The table is built by merging the n arithmetic release sequences
// (phase, phase+P, …) in time order, one slot per distinct instant with
// the released tasks OR-ed into its bitmask, and it stops at whichever
// comes first: the hyperperiod, or the first slot the run can never
// reach. A slot is consumed only once the lane clock is within fpx.Eps of
// it, and the clock never passes the horizon, so every slot past
// Horizon+1 — a whole grid step, far beyond Eps and any rounding of the
// clock — is unreachable. The first such slot still goes into the table
// as its end marker: the cursor parks on it, so nextReleaseTime reads the
// same value the full table would give and a truncated table never
// wraps. batchMaxSlots caps the slots actually built.
func (ln *lane) buildReleaseTable() bool {
	ts := ln.ts
	n := ts.Len()
	if n > 64 {
		return false
	}
	h, ok := ts.Hyperperiod()
	if !ok {
		return false
	}
	if !(ln.cfg.Horizon+2*h < float64(int64(1)<<53)) {
		return false
	}
	// next and period hold each task's next release instant and its
	// period on the integer grid.
	var next, period [64]int64
	for i := 0; i < n; i++ {
		t := ts.Task(i)
		//rtdvs:ignore floatcmp exact integrality is the gate: the release table is only valid on an exact integer grid
		if t.Period != math.Trunc(t.Period) || t.Phase != math.Trunc(t.Phase) ||
			t.Phase < 0 || t.Phase >= t.Period {
			return false
		}
		next[i] = int64(t.Phase)
		period[i] = int64(t.Period)
	}

	hyper := int64(h)
	reach := ln.cfg.Horizon + 1
	ln.slotTime, ln.slotBits = ln.slotTime[:0], ln.slotBits[:0]
	for {
		at, due := hyper, uint64(0)
		for i, t := range next[:n] {
			if t < at {
				at, due = t, 1<<uint(i)
			} else if t == at {
				due |= 1 << uint(i)
			}
		}
		if at == hyper {
			break // one whole hyperperiod: the table wraps
		}
		if len(ln.slotTime) == batchMaxSlots {
			return false
		}
		ln.slotTime = append(ln.slotTime, float64(at))
		ln.slotBits = append(ln.slotBits, due)
		if float64(at) > reach {
			break // end marker: never consumed, so the table never wraps
		}
		for m := due; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			next[i] += period[i]
		}
	}
	ln.hyper = h
	ln.epochBase = 0
	ln.cursor = 0
	ln.tabNext = ln.slotTime[0]
	return true
}

// --- lane event loop (transcribed from the scalar simulator) ---

// timerAdd enqueues task i's next release on the lane's timer heap
// (timer-heap lanes only).
//
//rtdvs:hotpath
func (ln *lane) timerAdd(i int, at float64) {
	if err := ln.timers.Push(i, at); err != nil {
		panic(err)
	}
}

// readyKey returns task i's run-queue priority — identical to the
// scalar simulator's readyKey.
//
//rtdvs:hotpath
func (ln *lane) readyKey(i int) float64 {
	if ln.kind == sched.RM {
		return ln.ts.Task(i).Period
	}
	return ln.states[i].deadline
}

// readyAdd enqueues a newly activated task: a bit set for single-frame
// lanes, a heap push otherwise.
//
//rtdvs:hotpath
func (ln *lane) readyAdd(i int) {
	if ln.frame {
		ln.readyBits |= 1 << uint(i)
		return
	}
	if err := ln.ready.Push(i, ln.readyKey(i)); err != nil {
		panic(err)
	}
}

// readyPeek returns the highest-priority active task, or -1 when idle.
// For single-frame lanes the lowest set bit IS the heap's answer: all
// active keys are equal, and the heap breaks ties by task index.
//
//rtdvs:hotpath
func (ln *lane) readyPeek() int {
	if ln.frame {
		if ln.readyBits == 0 {
			return -1
		}
		return bits.TrailingZeros64(ln.readyBits)
	}
	return ln.ready.Peek()
}

// readyRemove drops a completed or deadline-missed task from the ready
// set.
//
//rtdvs:hotpath
func (ln *lane) readyRemove(i int) {
	if ln.frame {
		ln.readyBits &^= 1 << uint(i)
		return
	}
	ln.ready.Remove(i)
}

// nextReleaseTime returns the lane's earliest pending release: the
// release-table cursor for harmonic lanes, the timer heap otherwise.
//
//rtdvs:hotpath
func (ln *lane) nextReleaseTime() float64 {
	if ln.harmonic {
		return ln.tabNext
	}
	return ln.timers.PeekKey()
}

// selIndex returns op's machine-table index through the lane's one-entry
// memo. PointSelector.Index is a pure linear scan, so memoizing the last
// lookup is exact and removes the scan from the per-event idle path.
//
//rtdvs:hotpath
func (ln *lane) selIndex(op machine.OperatingPoint) int {
	if ln.cacheValid && op == ln.cachedOp {
		return ln.cachedIdx
	}
	ln.cachedOp = op
	ln.cachedIdx = ln.sel.Index(op)
	ln.cacheValid = true
	return ln.cachedIdx
}

// fireReleases fires every due release of task i — the per-task inner
// loop of the scalar processReleases, minus the fault hooks fast lanes
// never configure.
//
//rtdvs:hotpath
func (ln *lane) fireReleases(i int) {
	st := &ln.states[i]
	for fpx.Le(st.nextRelease, ln.now) {
		if st.active {
			ln.res.Misses = append(ln.res.Misses, Miss{
				Task: i, Inv: st.inv - 1, Deadline: st.deadline, Remaining: st.remaining,
			})
			ln.res.PerTask[i].Misses++
			ln.inv.checkMiss(i, st.inv-1, st.deadline)
			st.active = false
			ln.readyRemove(i)
			if ln.lastRun == i {
				ln.lastRun = -1 // aborted, not preempted
			}
		}
		actual := st.nextRelease
		rel := st.nominalRel
		p := ln.ts.Task(i)
		wcet := p.WCET
		c := ln.cfg.Exec.Cycles(i, st.inv, wcet)
		if c > wcet {
			c = wcet
		}
		if c <= 0 {
			c = math.SmallestNonzeroFloat64
		}
		st.remaining = c
		st.used = 0
		st.overNotified = false
		st.releasedAt = actual
		st.deadline = rel + p.Period
		st.nominalRel = rel + p.Period
		st.nextRelease = st.nominalRel
		st.active = true
		st.inv++
		ln.res.Releases++
		ln.res.PerTask[i].Releases++
		ln.readyAdd(i)
		ln.released = append(ln.released, i)
	}
}

// processReleasesHeap is the scalar processReleases minus the fault
// hooks.
//
//rtdvs:hotpath
func (ln *lane) processReleasesHeap() {
	if !fpx.Le(ln.timers.PeekKey(), ln.now) {
		return
	}
	ln.due = ln.due[:0]
	for fpx.Le(ln.timers.PeekKey(), ln.now) {
		ln.due = append(ln.due, ln.timers.Pop())
	}
	sortIndexes(ln.due)
	ln.released = ln.released[:0]
	for _, i := range ln.due {
		ln.fireReleases(i)
		ln.timerAdd(i, ln.states[i].nextRelease)
	}
	for _, i := range ln.released {
		ln.cfg.Policy.OnRelease(ln, i)
	}
	if len(ln.released) > 0 {
		ln.inv.checkUtilization()
	}
}

// processReleasesTable drains the release table instead of a timer heap:
// every slot at or before now contributes its task bitmask, and the due
// tasks replay in ascending index order via the bit scan — the same
// event order the heap drain plus index sort produces. Slot times and
// the per-task accumulated release times are the same exact integers,
// so the fpx comparisons agree bit-for-bit with the heap path.
//
//rtdvs:hotpath
func (ln *lane) processReleasesTable() {
	if !fpx.Le(ln.tabNext, ln.now) {
		return
	}
	due := uint64(0)
	for fpx.Le(ln.tabNext, ln.now) {
		due |= ln.slotBits[ln.cursor]
		ln.cursor++
		if ln.cursor == len(ln.slotTime) {
			ln.cursor = 0
			ln.epochBase += ln.hyper
		}
		ln.tabNext = ln.epochBase + ln.slotTime[ln.cursor]
	}
	ln.released = ln.released[:0]
	for due != 0 {
		i := bits.TrailingZeros64(due)
		due &= due - 1
		ln.fireReleases(i)
	}
	for _, i := range ln.released {
		ln.cfg.Policy.OnRelease(ln, i)
	}
	if len(ln.released) > 0 {
		ln.inv.checkUtilization()
	}
}

// switchTo is the scalar switchTo minus the fault hooks, with the
// memoized point-index lookup.
//
//rtdvs:hotpath
func (ln *lane) switchTo(op machine.OperatingPoint) {
	if op == ln.hw {
		return
	}
	var halt float64
	if ln.cfg.Overhead != nil {
		halt = ln.cfg.Overhead.Halt(ln.hw, op)
	}
	idx := ln.selIndex(op)
	ln.res.Switches++
	if halt > 0 {
		end := ln.now + halt
		if ln.cfg.Horizon < end {
			end = ln.cfg.Horizon
		}
		ln.record(ln.now, end, op, idx)
		ln.res.HaltTime += end - ln.now
		ln.now = end
	}
	ln.hw, ln.hwIdx = op, idx
	ln.inv.checkPoint(op)
}

// record accounts an execution/idle segment's point residency. Fast
// lanes have no Recorder, so only the dense residency array (or the
// foreign-point fallback map) is touched.
//
//rtdvs:hotpath
func (ln *lane) record(start, end float64, op machine.OperatingPoint, opIdx int) {
	if opIdx >= 0 {
		ln.resTime[opIdx] += end - start
	} else {
		ln.res.PointResTime[op] += end - start
	}
}

// step advances the lane by one event-loop iteration — the body of the
// scalar run loop, transcribed with the fault branches removed and
// math.Min/Max replaced by branches (exact for the non-negative finite
// operands involved). run calls it only while the lane's clock is short
// of the horizon.
//
//rtdvs:hotpath
func (ln *lane) step() {
	ln.res.Events++
	if ln.harmonic {
		ln.processReleasesTable()
	} else {
		ln.processReleasesHeap()
	}

	nextRel := ln.nextReleaseTime()
	if ln.cfg.Horizon < nextRel {
		nextRel = ln.cfg.Horizon
	}
	pick := ln.readyPeek()

	if pick < 0 {
		// Idle until the next release at the policy's idle point.
		op := ln.cfg.Policy.IdlePoint()
		ln.switchTo(op)
		start := ln.now
		end := nextRel
		if start > end {
			end = start
		}
		if end > start {
			dur := end - start
			e := ln.cfg.Machine.IdlePower(op) * dur
			ln.res.IdleEnergy += e
			ln.res.IdleTime += dur
			ln.record(start, end, op, ln.selIndex(op))
			ln.now = end
			ln.inv.checkEnergy()
		} else {
			ln.now = nextRel
		}
		return
	}

	op := ln.cfg.Policy.Point()
	ln.switchTo(op)
	if fpx.Ge(ln.now, ln.cfg.Horizon) {
		return
	}
	if fpx.Le(ln.nextReleaseTime(), ln.now) {
		// A release became due during the stop interval; process it
		// (and let the policy react) before execution resumes.
		return
	}
	nextRel = ln.nextReleaseTime()
	if ln.cfg.Horizon < nextRel {
		nextRel = ln.cfg.Horizon
	}

	if ln.lastRun >= 0 && ln.lastRun != pick && ln.states[ln.lastRun].active {
		ln.res.Preemptions++
	}
	ln.lastRun = pick

	st := &ln.states[pick]
	finish := ln.now + st.remaining/ln.hw.Freq
	end := finish
	if nextRel < end {
		end = nextRel
	}
	dur := end - ln.now
	cycles := dur * ln.hw.Freq
	if cycles > st.remaining || fpx.Le(finish, end) {
		cycles = st.remaining
	}
	st.remaining -= cycles
	st.used += cycles
	ln.res.CyclesDone += cycles
	ln.res.PerTask[pick].Cycles += cycles
	ln.res.ExecEnergy += cycles * ln.hw.EnergyPerCycle()
	ln.res.BusyTime += dur
	ln.record(ln.now, end, ln.hw, ln.hwIdx)
	ln.now = end
	ln.inv.checkEnergy()
	ln.cfg.Policy.OnExecute(pick, cycles)

	if fpx.Le(st.remaining, 0) {
		st.remaining = 0
		st.active = false
		ln.readyRemove(pick)
		ln.res.Completions++
		ln.res.PerTask[pick].Completions++
		if resp := ln.now - st.releasedAt; resp > ln.res.PerTask[pick].MaxResponse {
			ln.res.PerTask[pick].MaxResponse = resp
		}
		ln.lastRun = -1
		ln.cfg.Policy.OnCompletion(ln, pick, st.used)
		ln.inv.checkUtilization()
	}
}

// finish closes out a lane the way Runner.run closes out a scalar run:
// final energy total and check, invariant verdict, residency fold,
// cancellation, then metrics observation on success. The result goes
// back into out, which keeps any buffer the run regrew.
func (ln *lane) finish(out *Result) (*Result, error) {
	ln.res.TotalEnergy = ln.res.ExecEnergy + ln.res.IdleEnergy
	ln.inv.checkEnergy()
	*out = ln.res
	if err := ln.inv.Err(); err != nil {
		return nil, err
	}
	for i, d := range ln.resTime {
		if d > 0 {
			out.PointResTime[ln.cfg.Machine.Points[i]] += d
		}
	}
	if ln.ctxErr != nil {
		return nil, &Canceled{At: ln.now, Partial: out, Cause: ln.ctxErr}
	}
	if ln.cfg.Metrics != nil {
		ln.cfg.Metrics.observe(out, ln.resTime, ln.cfg.Machine)
	}
	return out, nil
}

// laneInvariant is the batch counterpart of invariantChecker: identical
// checks and messages, with the utilization-reporter assertion and the
// admission verdict read from the lane's attach-time cache instead of
// re-derived per call. Fast lanes never configure fault injection, so
// the fault-provenance stand-down is vacuously absent.
type laneInvariant struct {
	ln        *lane
	lastTotal float64
	err       error
}

// Err returns the first recorded violation, if any.
func (c *laneInvariant) Err() error {
	if c == nil {
		return nil
	}
	return c.err
}

func (c *laneInvariant) failf(format string, args ...interface{}) {
	if c.err == nil {
		c.err = fmt.Errorf("sim: invariant violated at t=%g: %s",
			c.ln.now, fmt.Sprintf(format, args...))
	}
}

func (c *laneInvariant) checkPoint(op machine.OperatingPoint) {
	if c == nil || c.err != nil {
		return
	}
	for _, p := range c.ln.cfg.Machine.Points {
		if p == op {
			return
		}
	}
	c.failf("policy %s selected operating point (f=%g, V=%g), which is not "+
		"one of the machine's discrete points",
		c.ln.cfg.Policy.Name(), op.Freq, op.Voltage)
}

func (c *laneInvariant) checkEnergy() {
	if c == nil || c.err != nil {
		return
	}
	exec, idle := c.ln.res.ExecEnergy, c.ln.res.IdleEnergy
	if exec < 0 || idle < 0 {
		c.failf("negative energy component (exec=%g, idle=%g)", exec, idle)
		return
	}
	total := exec + idle
	if fpx.Lt(total, c.lastTotal) {
		c.failf("total energy decreased from %g to %g", c.lastTotal, total)
		return
	}
	c.lastTotal = total
}

func (c *laneInvariant) checkUtilization() {
	if c == nil || c.err != nil {
		return
	}
	ur := c.ln.ur
	if ur == nil || !c.ln.guaranteed {
		return
	}
	if u := ur.ReservedUtilization(); fpx.Gt(u, 1) {
		c.failf("policy %s reserves utilization %g > 1 for an admitted "+
			"task set", c.ln.cfg.Policy.Name(), u)
	}
}

func (c *laneInvariant) checkMiss(i, inv int, deadline float64) {
	if c == nil || c.err != nil {
		return
	}
	if c.ln.guaranteed {
		c.failf("task %d invocation %d missed its deadline %g under %s, "+
			"which guaranteed the set", i, inv, deadline, c.ln.cfg.Policy.Name())
	}
}
