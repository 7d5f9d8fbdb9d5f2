package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rtdvs/internal/core"
	"rtdvs/internal/fault"
	"rtdvs/internal/fpx"
	"rtdvs/internal/machine"
	"rtdvs/internal/task"
	"rtdvs/internal/trace"
)

// harmonicSet builds an exactly-integral harmonic task set (the
// frame-based shape the release table accelerates).
func harmonicSet(t testing.TB, tasks ...task.Task) *task.Set {
	t.Helper()
	ts, err := task.NewSet(tasks...)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ts.Hyperperiod(); !ok {
		t.Fatal("test set is not harmonic")
	}
	return ts
}

// batchTestConfigs builds a varied batch: the scalar runner test's
// generated (non-harmonic) shapes across all six policies, plus
// hand-built harmonic shapes — with phases, with switch overhead, with
// clustered frame releases — that exercise the release-table path.
func batchTestConfigs(t *testing.T) []func() Config {
	t.Helper()
	mk := runnerTestConfigs(t)
	for _, pname := range []string{"none", "staticEDF", "staticRM", "ccEDF", "ccRM", "laEDF"} {
		pname := pname
		harmonics := []func(t testing.TB) Config{
			func(t testing.TB) Config { // pure frame-based: all periods equal
				return Config{
					Tasks: harmonicSet(t,
						task.Task{Period: 20, WCET: 4},
						task.Task{Period: 20, WCET: 3},
						task.Task{Period: 20, WCET: 5},
					),
					Exec:    task.ConstantFraction{C: 0.7},
					Horizon: 500,
				}
			},
			func(t testing.TB) Config { // nested harmonic periods with phases
				return Config{
					Tasks: harmonicSet(t,
						task.Task{Period: 10, WCET: 2, Phase: 3},
						task.Task{Period: 20, WCET: 4},
						task.Task{Period: 40, WCET: 9, Phase: 7},
						task.Task{Period: 40, WCET: 3},
					),
					Exec:    task.UniformFraction{Lo: 0.2, Hi: 1, Rand: rand.New(rand.NewSource(9))},
					Horizon: 777.5,
				}
			},
			func(t testing.TB) Config { // switch overhead: halts jump time across releases
				return Config{
					Tasks: harmonicSet(t,
						task.Task{Period: 8, WCET: 3},
						task.Task{Period: 16, WCET: 5},
					),
					Exec:     task.FullWCET{},
					Horizon:  333,
					Overhead: &machine.SwitchOverhead{FreqOnly: 0.1, VoltageChange: 0.4},
				}
			},
		}
		for hi, mkh := range harmonics {
			mkh := mkh
			_ = hi
			mk = append(mk, func() Config {
				cfg := mkh(t)
				p, err := core.ByName(pname)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Policy = p
				cfg.Machine = machine.Machine1()
				return cfg
			})
		}
	}
	return mk
}

// requireSameAsScalar asserts a batch lane's (result, error) pair is
// identical to the scalar Runner's for the same configuration. Errors
// must agree too (some deliberately-harsh shapes trip the deadline
// invariant under guaranteeing policies — the batch engine must
// reproduce exactly that failure).
func requireSameAsScalar(t *testing.T, label string, got *Result, gotErr error, want *Result, wantErr error) {
	t.Helper()
	if (gotErr != nil) != (wantErr != nil) {
		t.Errorf("%s: batch err=%v, scalar err=%v", label, gotErr, wantErr)
		return
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Errorf("%s: batch err %q, scalar err %q", label, gotErr, wantErr)
		}
		return
	}
	if !reflect.DeepEqual(normalizeResult(got), normalizeResult(want)) {
		t.Errorf("%s: batch diverged from scalar\nbatch:  %+v\nscalar: %+v", label, got, want)
	}
}

// The tentpole contract: every per-lane BatchRunner result must be
// bit-identical (DeepEqual) to the scalar Runner's result for the same
// configuration, across all six policies and both generated and
// harmonic workload shapes, with the invariant checker live (it always
// is under go test) and the batch reused across passes.
func TestBatchMatchesScalarAcrossPolicies(t *testing.T) {
	mks := batchTestConfigs(t)
	br := NewBatchRunner()
	for pass := 0; pass < 2; pass++ {
		cfgs := make([]Config, len(mks))
		for i, mk := range mks {
			cfgs[i] = mk()
		}
		results, errs := br.Run(cfgs)
		for i, mk := range mks {
			want, wantErr := Run(mk())
			requireSameAsScalar(t, fmt.Sprintf("pass %d lane %d", pass, i), results[i], errs[i], want, wantErr)
		}
	}
}

// The harmonic shapes must actually engage the release-table path —
// otherwise the identity test above exercises nothing new.
func TestBatchHarmonicLanesUseReleaseTable(t *testing.T) {
	p1, _ := core.ByName("ccEDF")
	p2, _ := core.ByName("ccEDF")
	cfgs := []Config{
		{
			Tasks: harmonicSet(t,
				task.Task{Period: 10, WCET: 2},
				task.Task{Period: 20, WCET: 4, Phase: 5}),
			Machine: machine.Machine0(), Policy: p1, Horizon: 100,
		},
		{ // non-integral period: must stay on the timer heap
			Tasks:   mustSet(t, task.Task{Period: 10.5, WCET: 2}),
			Machine: machine.Machine0(), Policy: p2, Horizon: 100,
		},
	}
	br := NewBatchRunner()
	for i, want := range []bool{true, false} {
		if _, errs := br.Run(cfgs[i : i+1]); errs[0] != nil {
			t.Fatalf("lane %d: %v", i, errs[0])
		}
		if br.ln.harmonic != want {
			t.Errorf("lane %d: release table path = %v, want %v", i, br.ln.harmonic, want)
		}
	}
}

// runLanes runs ts for the horizon under every paper policy, one lane
// each, on a fresh BatchRunner. Every lane must match a scalar Runner on
// the same configuration exactly, and the lanes must take the release
// table path exactly when table is set (the table depends only on the
// set and the horizon, so the engine's state after the last lane speaks
// for all of them). Each run draws execution times from its own uniform
// model seeded with seed. The runner is returned so callers can inspect
// the table.
func runLanes(t *testing.T, label string, ts *task.Set, horizon float64, seed int64, table bool) *BatchRunner {
	t.Helper()
	mk := func(pname string) Config {
		p, err := core.ByName(pname)
		if err != nil {
			t.Fatal(err)
		}
		exec := task.UniformFraction{Lo: 0.2, Hi: 1, Rand: rand.New(rand.NewSource(seed))}
		return Config{Tasks: ts, Machine: machine.Machine1(), Policy: p, Exec: exec, Horizon: horizon}
	}
	names := core.Names()
	cfgs := make([]Config, len(names))
	for i, pname := range names {
		cfgs[i] = mk(pname)
	}
	br := NewBatchRunner()
	results, errs := br.Run(cfgs)
	if br.ln.harmonic != table {
		t.Errorf("%s: release table path = %v, want %v", label, br.ln.harmonic, table)
	}
	for i, pname := range names {
		want, wantErr := Run(mk(pname))
		requireSameAsScalar(t, label+" "+pname, results[i], errs[i], want, wantErr)
	}
	return br
}

// The release table reaches only as far as the run can: a horizon short
// of the hyperperiod builds a prefix that ends in a marker past the
// horizon and never wraps, while a horizon at or beyond the hyperperiod
// builds the whole period and wraps onto the next one. Either way every
// lane matches the scalar engine.
func TestReleaseTableHorizonBound(t *testing.T) {
	ts := harmonicSet(t,
		task.Task{Period: 12, WCET: 3},
		task.Task{Period: 18, WCET: 4},
		task.Task{Period: 40, WCET: 6},
	) // hyperperiod 360: 30 + 20 + 9 releases at 46 distinct instants
	for _, c := range []struct {
		name    string
		horizon float64
		slots   int
		wraps   bool
	}{
		{"horizon<H", 100, 15, false}, // instants up to 101, then 108 as the end marker
		{"horizon=H", 360, 46, true},
		{"horizon>>H", 5000, 46, true},
	} {
		ln := &runLanes(t, c.name, ts, c.horizon, 3, true).ln
		if len(ln.slotTime) != c.slots {
			t.Errorf("%s: %d slots, want %d", c.name, len(ln.slotTime), c.slots)
		}
		if wrapped := ln.epochBase > 0; wrapped != c.wraps {
			t.Errorf("%s: wrapped = %v, want %v", c.name, wrapped, c.wraps)
		}
		if !c.wraps && !(ln.slotTime[len(ln.slotTime)-1] > c.horizon+1) {
			t.Errorf("%s: truncated table ends at %g, not past the horizon",
				c.name, ln.slotTime[len(ln.slotTime)-1])
		}
	}
}

// Table lanes match the scalar engine on phased sets with coincident
// releases, on a full 64-task set, and at horizons within or just past
// fpx.Eps of a release instant, where the same fpx comparisons as the
// scalar engine's decide whether the lane consumes the slot. slots pins
// the task bitmask of chosen instants: tasks released together share
// one slot, replayed in task index order like the scalar heap drain.
func TestReleaseTableMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	sixtyFour := make([]task.Task, 64)
	for i := range sixtyFour {
		p := float64(int(16) << uint(rng.Intn(4))) // 16, 32, 64 or 128
		sixtyFour[i] = task.Task{Period: p, WCET: p / 160, Phase: float64(rng.Intn(int(p)))}
	}
	var nearSlot []float64 // around 77, where tasks 0 and 1 release together
	for _, d := range []float64{-2 * fpx.Eps, -fpx.Eps / 2, 0, fpx.Eps / 2, fpx.Eps, 2 * fpx.Eps} {
		nearSlot = append(nearSlot, 77+d)
	}
	for _, c := range []struct {
		name     string
		tasks    []task.Task
		horizons []float64
		slots    map[float64]uint64
	}{
		{
			name: "near slot",
			tasks: []task.Task{
				{Period: 7, WCET: 1},
				{Period: 11, WCET: 2},
				{Period: 13, WCET: 3},
			}, // hyperperiod 1001
			horizons: nearSlot,
			slots:    map[float64]uint64{77: 0b011},
		},
		{
			name: "phases",
			tasks: []task.Task{
				{Period: 10, WCET: 1, Phase: 5},
				{Period: 20, WCET: 2, Phase: 5},
				{Period: 15, WCET: 2},
				{Period: 30, WCET: 3, Phase: 15},
				{Period: 60, WCET: 4, Phase: 35},
			}, // hyperperiod 60
			horizons: []float64{47, 60, 60.5, 1234.25},
			slots:    map[float64]uint64{35: 0b10001, 45: 0b01111},
		},
		{name: "n=64", tasks: sixtyFour, horizons: []float64{100, 1000.5}},
	} {
		ts := harmonicSet(t, c.tasks...)
		for _, h := range c.horizons {
			label := fmt.Sprintf("%s horizon %v", c.name, h)
			ln := &runLanes(t, label, ts, h, 5, true).ln
			for j, at := range ln.slotTime {
				if w, ok := c.slots[at]; ok && ln.slotBits[j] != w {
					t.Errorf("%s: slot at %g releases tasks %b, want %b", label, at, ln.slotBits[j], w)
				}
			}
		}
	}
}

// A set whose full hyperperiod holds far more than batchMaxSlots release
// instants still takes the table path when the horizon-bounded table
// fits, and falls back to the timer heap when it does not.
func TestReleaseTableCapAppliesToBuiltSlots(t *testing.T) {
	ts := harmonicSet(t,
		task.Task{Period: 97, WCET: 20},
		task.Task{Period: 101, WCET: 20},
		task.Task{Period: 103, WCET: 20},
	) // hyperperiod 1009091: about 30000 release instants
	br := runLanes(t, "primes", ts, 20*103, 8, true)
	if n := len(br.ln.slotTime); n > 100 {
		t.Errorf("horizon-bounded table has %d slots, want about 60", n)
	}

	p, _ := core.ByName("ccEDF")
	long := Config{Tasks: ts, Machine: machine.Machine1(), Policy: p, Horizon: 1e6}
	br = NewBatchRunner()
	if _, errs := br.Run([]Config{long}); errs[0] != nil {
		t.Fatal(errs[0])
	}
	if br.ln.harmonic {
		t.Error("a table past batchMaxSlots was built")
	}
}

// fuzzHorizonFracs are the fractional parts FuzzReleaseTable adds to its
// integral horizons: whole, halfway, and within or just past fpx.Eps of
// a release instant on either side.
var fuzzHorizonFracs = []float64{0, 0.5, 0.25, 0.999, fpx.Eps / 2, -fpx.Eps / 2, 2 * fpx.Eps, -2 * fpx.Eps}

// FuzzReleaseTable drives small integer-period sets (n ≤ 8, periods up
// to 48, phases that may or may not precede the period) through a
// BatchRunner lane per paper policy. Every lane must match the scalar
// Runner exactly and must take the release table path exactly when the
// set qualifies for it. The horizons stay below batchMaxSlots, so the
// horizon-bounded table always fits.
func FuzzReleaseTable(f *testing.F) {
	// spec is n-1, then (period-1, phase, WCET eighths) per task.
	f.Add([]byte{2, 11, 0, 3, 17, 0, 4, 39, 0, 6}, uint16(99), uint8(0), int64(1))
	f.Add([]byte{1, 6, 0, 1, 10, 0, 2}, uint16(76), uint8(4), int64(2))
	f.Add([]byte{3, 9, 5, 1, 19, 5, 2, 14, 0, 2, 29, 15, 3}, uint16(59), uint8(1), int64(3))
	f.Add([]byte{0, 5, 7, 1}, uint16(40), uint8(6), int64(4))
	f.Fuzz(func(t *testing.T, spec []byte, horizon uint16, frac uint8, seed int64) {
		if len(spec) == 0 {
			t.Skip()
		}
		n := 1 + int(spec[0]%8)
		spec = spec[1:]
		if len(spec) < 3*n {
			t.Skip()
		}
		tasks := make([]task.Task, n)
		qualifies := true
		for i := range tasks {
			period := 1 + int(spec[3*i]%48)
			phase := int(spec[3*i+1] % 64)
			if phase >= period {
				qualifies = false
			}
			wcet := float64(period) * float64(1+spec[3*i+2]%8) / float64(8*n)
			tasks[i] = task.Task{Period: float64(period), Phase: float64(phase), WCET: wcet}
		}
		ts, err := task.NewSet(tasks...)
		if err != nil {
			t.Skip()
		}
		if _, ok := ts.Hyperperiod(); !ok {
			qualifies = false
		}
		h := float64(1+horizon%(batchMaxSlots-64)) + fuzzHorizonFracs[int(frac)%len(fuzzHorizonFracs)]
		runLanes(t, "fuzz", ts, h, seed, qualifies)
	})
}

func mustSet(t testing.TB, tasks ...task.Task) *task.Set {
	t.Helper()
	ts, err := task.NewSet(tasks...)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// A batch of one must equal the scalar Runner exactly.
func TestBatchOfOneEqualsScalar(t *testing.T) {
	for ci, mk := range batchTestConfigs(t) {
		results, errs := RunBatch([]Config{mk()})
		want, wantErr := Run(mk())
		requireSameAsScalar(t, fmt.Sprintf("cfg %d", ci), results[0], errs[0], want, wantErr)
	}
}

// Metamorphic: permuting the lane order must leave every per-lane
// result bit-identical — lanes are independent, so the order the engine
// runs them in cannot matter.
func TestBatchLanePermutationInvariant(t *testing.T) {
	mks := batchTestConfigs(t)
	n := len(mks)
	perm := rand.New(rand.NewSource(5)).Perm(n)

	cfgs := make([]Config, n)
	for i, mk := range mks {
		cfgs[i] = mk()
	}
	base, errs := NewBatchRunner().Run(cfgs)
	baseClones := make([]*Result, n)
	for i, r := range base {
		if r != nil {
			baseClones[i] = r.Clone()
		}
	}

	permuted := make([]Config, n)
	for pi, src := range perm {
		permuted[pi] = mks[src]()
	}
	permRes, permErrs := NewBatchRunner().Run(permuted)
	for pi, src := range perm {
		requireSameAsScalar(t, fmt.Sprintf("lane %d (orig %d)", pi, src),
			permRes[pi], permErrs[pi], baseClones[src], errs[src])
	}
}

// Lanes with fault injection or trace recording fall back to embedded
// scalar Runners; mixed batches must still report every lane identical
// to a standalone scalar run.
func TestBatchMixedFallbackLanes(t *testing.T) {
	mkFault := func() *fault.Injector {
		return fault.MustNew(fault.Plan{Seed: 11, OverrunProb: 0.3, OverrunFactor: 1.5})
	}
	ts := harmonicSet(t,
		task.Task{Period: 10, WCET: 3},
		task.Task{Period: 20, WCET: 5},
	)
	gen := func() *task.Set {
		r := rand.New(rand.NewSource(321))
		s, err := (&task.Generator{N: 4, Utilization: 0.8, Rand: r}).Generate()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	mks := []func() Config{
		func() Config {
			p, _ := core.ByName("ccEDF")
			return Config{Tasks: ts, Machine: machine.Machine0(), Policy: p, Horizon: 200,
				Faults: mkFault()}
		},
		func() Config {
			p, _ := core.ByName("ccEDF")
			return Config{Tasks: ts, Machine: machine.Machine0(), Policy: p, Horizon: 200}
		},
		func() Config {
			p, _ := core.ByName("laEDF")
			return Config{Tasks: gen(), Machine: machine.Machine2(), Policy: p, Horizon: 150,
				Recorder: new(trace.Recorder)}
		},
		func() Config {
			p, _ := core.ByName("laEDF")
			return Config{Tasks: gen(), Machine: machine.Machine2(), Policy: p, Horizon: 150}
		},
	}
	cfgs := make([]Config, len(mks))
	for i, mk := range mks {
		cfgs[i] = mk()
	}
	results, errs := RunBatch(cfgs)
	for i, mk := range mks {
		if errs[i] != nil {
			t.Fatalf("lane %d: %v", i, errs[i])
		}
		want, err := Run(mk())
		if err != nil {
			t.Fatalf("lane %d scalar: %v", i, err)
		}
		if !reflect.DeepEqual(normalizeResult(results[i]), normalizeResult(want)) {
			t.Errorf("lane %d (%s): mixed batch diverged from scalar", i, want.Policy)
		}
	}
}

// Lanes run back to back and Attach resets a policy, so one Policy
// instance may serve every lane of a batch: frame, release-table and
// timer-heap lanes and a fault fallback lane alike. Each of the six
// paper policies takes its turn as the shared instance, and every lane
// must equal a scalar run with a fresh instance.
func TestBatchSharedPolicyInstance(t *testing.T) {
	gen := func(seed int64, n int, u float64) *task.Set {
		s, err := (&task.Generator{N: n, Utilization: u, Rand: rand.New(rand.NewSource(seed))}).Generate()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	uniform := func(seed int64) task.ExecModel {
		return task.UniformFraction{Lo: 0.2, Hi: 1, Rand: rand.New(rand.NewSource(seed))}
	}
	shapes := []func(p core.Policy) Config{
		func(p core.Policy) Config { // frame-based: one shared period
			return Config{Tasks: harmonicSet(t,
				task.Task{Period: 20, WCET: 4},
				task.Task{Period: 20, WCET: 3},
				task.Task{Period: 20, WCET: 5},
			), Machine: machine.Machine1(), Policy: p, Exec: task.ConstantFraction{C: 0.7}, Horizon: 500}
		},
		func(p core.Policy) Config { // generated: timer heap
			return Config{Tasks: gen(3, 6, 0.7), Machine: machine.Machine0(), Policy: p, Exec: uniform(4), Horizon: 900}
		},
		func(p core.Policy) Config { // nested harmonic periods with phases: release table
			return Config{Tasks: harmonicSet(t,
				task.Task{Period: 10, WCET: 2, Phase: 3},
				task.Task{Period: 20, WCET: 4},
				task.Task{Period: 40, WCET: 9, Phase: 7},
			), Machine: machine.Machine2(), Policy: p, Exec: uniform(5), Horizon: 777.5}
		},
		func(p core.Policy) Config { // fault injection: scalar fallback
			return Config{Tasks: harmonicSet(t,
				task.Task{Period: 10, WCET: 3},
				task.Task{Period: 20, WCET: 5},
			), Machine: machine.Machine0(), Policy: p, Horizon: 200,
				Faults: fault.MustNew(fault.Plan{Seed: 11, OverrunProb: 0.3, OverrunFactor: 1.5})}
		},
		func(p core.Policy) Config { // generated, heavier, after the fallback lane
			return Config{Tasks: gen(8, 8, 0.9), Machine: machine.Machine1(), Policy: p, Exec: uniform(6), Horizon: 600}
		},
	}
	br := NewBatchRunner()
	for _, pname := range core.Names() {
		shared := mustPolicy(t, pname)
		cfgs := make([]Config, len(shapes))
		for i, mk := range shapes {
			cfgs[i] = mk(shared)
		}
		results, errs := br.Run(cfgs)
		for i, mk := range shapes {
			want, wantErr := Run(mk(mustPolicy(t, pname)))
			requireSameAsScalar(t, fmt.Sprintf("%s lane %d", pname, i), results[i], errs[i], want, wantErr)
		}
		for i, err := range errs {
			if err != nil {
				t.Errorf("%s lane %d: %v", pname, i, err)
			}
		}
		if errs[3] == nil && results[3].Faults == nil {
			t.Errorf("%s: fault lane did not run on the scalar fallback", pname)
		}
	}
}

// cancelOnAttach cancels a context when its lane is attached: a
// deterministic point between one lane and the next.
type cancelOnAttach struct {
	core.Policy
	cancel context.CancelFunc
}

func (c cancelOnAttach) Attach(ts *task.Set, m *machine.Spec) error {
	c.cancel()
	return c.Policy.Attach(ts, m)
}

// A context that ends mid-batch stops the lane it interrupts and every
// later one: lanes before it keep their scalar results, and the rest
// report *Canceled with a partial result, the fault fallback lane
// included.
func TestBatchRunContextCancelMidBatch(t *testing.T) {
	mks := []func() Config{
		func() Config {
			return Config{Tasks: harmonicSet(t, task.Task{Period: 10, WCET: 2}, task.Task{Period: 20, WCET: 4}),
				Machine: machine.Machine0(), Policy: mustPolicy(t, "ccEDF"), Horizon: 300}
		},
		func() Config {
			ts, err := (&task.Generator{N: 5, Utilization: 0.6, Rand: rand.New(rand.NewSource(2))}).Generate()
			if err != nil {
				t.Fatal(err)
			}
			return Config{Tasks: ts, Machine: machine.Machine1(), Policy: mustPolicy(t, "laEDF"),
				Exec: task.ConstantFraction{C: 0.8}, Horizon: 500}
		},
		func() Config {
			return Config{Tasks: harmonicSet(t, task.Task{Period: 10, WCET: 3}, task.Task{Period: 20, WCET: 5}),
				Machine: machine.Machine0(), Policy: mustPolicy(t, "ccEDF"), Horizon: 200,
				Faults: fault.MustNew(fault.Plan{Seed: 11, OverrunProb: 0.3, OverrunFactor: 1.5})}
		},
		func() Config {
			return Config{Tasks: harmonicSet(t, task.Task{Period: 20, WCET: 4}, task.Task{Period: 20, WCET: 5}),
				Machine: machine.Machine2(), Policy: mustPolicy(t, "staticRM"), Horizon: 400}
		},
	}
	br := NewBatchRunner()
	for k := range mks {
		ctx, cancel := context.WithCancel(context.Background())
		cfgs := make([]Config, len(mks))
		for i, mk := range mks {
			cfgs[i] = mk()
		}
		cfgs[k].Policy = cancelOnAttach{Policy: cfgs[k].Policy, cancel: cancel}
		results, errs := br.RunContext(ctx, cfgs)
		for i, mk := range mks {
			label := fmt.Sprintf("cancel at lane %d: lane %d", k, i)
			if i < k {
				want, wantErr := Run(mk())
				requireSameAsScalar(t, label, results[i], errs[i], want, wantErr)
				continue
			}
			if results[i] != nil {
				t.Errorf("%s: result non-nil after cancellation", label)
			}
			var c *Canceled
			if !errors.As(errs[i], &c) || !errors.Is(errs[i], context.Canceled) {
				t.Fatalf("%s: got %T (%v), want *Canceled wrapping context.Canceled", label, errs[i], errs[i])
			}
			if c.Partial == nil || c.At != 0 || c.Partial.Events != 0 {
				t.Errorf("%s: want an empty partial result at t=0, got At=%g partial=%+v", label, c.At, c.Partial)
			}
		}
		cancel()
	}
}

// Per-lane validation errors must match the scalar Runner's and leave
// the other lanes untouched.
func TestBatchPerLaneErrors(t *testing.T) {
	good, _ := core.ByName("ccEDF")
	cfgs := []Config{
		{Machine: machine.Machine0(), Policy: good, Horizon: 50},                                          // no tasks
		{Tasks: harmonicSet(t, task.Task{Period: 10, WCET: 2}), Policy: good, Horizon: 50},                // nil machine
		{Tasks: harmonicSet(t, task.Task{Period: 10, WCET: 2}), Machine: machine.Machine0(), Horizon: 50}, // nil policy
		{Tasks: harmonicSet(t, task.Task{Period: 10, WCET: 2}), Machine: machine.Machine0(), Policy: good, Horizon: 50},
	}
	results, errs := RunBatch(cfgs)
	if errs[0] != task.ErrEmptySet {
		t.Errorf("lane 0: got %v, want ErrEmptySet", errs[0])
	}
	if errs[1] == nil || errs[2] == nil {
		t.Errorf("lanes 1,2: want validation errors, got %v, %v", errs[1], errs[2])
	}
	if errs[3] != nil || results[3] == nil {
		t.Errorf("lane 3: valid lane failed: %v", errs[3])
	}
	for i := 0; i < 3; i++ {
		if results[i] != nil {
			t.Errorf("lane %d: result non-nil alongside error", i)
		}
	}
}

// A batch under an already-cancelled context must report *Canceled
// (with a partial result) for every lane, mirroring the scalar
// RunContext contract.
func TestBatchRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: no lane can make progress
	var cfgs []Config
	for i := 0; i < 3; i++ {
		p, _ := core.ByName("ccEDF")
		cfgs = append(cfgs, Config{
			Tasks:   harmonicSet(t, task.Task{Period: 10, WCET: 2}),
			Machine: machine.Machine0(), Policy: p, Horizon: 1e6,
		})
	}
	results, errs := NewBatchRunner().RunContext(ctx, cfgs)
	for i := range cfgs {
		if results[i] != nil {
			t.Errorf("lane %d: result non-nil on cancellation", i)
		}
		c, ok := errs[i].(*Canceled)
		if !ok {
			t.Fatalf("lane %d: got %T (%v), want *Canceled", i, errs[i], errs[i])
		}
		if c.Partial == nil {
			t.Errorf("lane %d: Canceled without partial result", i)
		}
	}
}

// Steady-state batches must not allocate: after the first Run has grown
// every buffer, repeated Runs of the same shape are allocation-free.
func TestBatchRunnerSteadyStateAllocs(t *testing.T) {
	const k = 8
	mk := func() []Config {
		cfgs := make([]Config, k)
		for i := range cfgs {
			p, err := core.ByName("ccEDF")
			if err != nil {
				t.Fatal(err)
			}
			cfgs[i] = Config{
				Tasks: harmonicSet(t,
					task.Task{Period: 10, WCET: 2},
					task.Task{Period: 20, WCET: 4},
					task.Task{Period: 40, WCET: 6},
				),
				Machine: machine.Machine0(),
				Policy:  p,
				Exec:    task.ConstantFraction{C: 0.6},
				Horizon: 400,
			}
		}
		return cfgs
	}
	cfgs := mk()
	br := NewBatchRunner()
	if _, errs := br.Run(cfgs); errs[0] != nil {
		t.Fatal(errs[0])
	}
	allocs := testing.AllocsPerRun(20, func() {
		results, errs := br.Run(cfgs)
		for i := range errs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if results[i].Events == 0 {
				t.Fatal("empty result")
			}
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state batch Run allocated %v times per run, want 0", allocs)
	}
}
