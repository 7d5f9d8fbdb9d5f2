package sim

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"rtdvs/internal/core"
	"rtdvs/internal/machine"
	"rtdvs/internal/sched"
	"rtdvs/internal/task"
	"rtdvs/internal/trace"
)

// The m = 1 regression suite pins the multiprocessor generalization to
// the uniprocessor engine it grew out of: on a single-core machine the
// multi-core Runner must reproduce the scalar engine's results bit for
// bit — same energies, same event counts, same misses,
// same traces — for every registered policy, on the success path and on
// the error and cancellation paths alike. The scalar results are
// themselves pinned by the paper's golden traces (golden_trace_test.go)
// and the conformance suite, so bit-identity here chains the whole
// multiprocessor layer back to the paper's worked examples.

// regressionPolicies are the registered policies the m = 1 pin covers:
// both baselines, the four scaling policies of Table 4, and a contained
// variant exercising the wrapper layer.
func regressionPolicies() []string {
	return []string{"none", "noneRM", "staticRM", "staticEDF", "ccEDF", "ccRM", "laEDF", "laEDF+contain"}
}

// sharedTotals is the projection of a result both engines must agree
// on; reflect.DeepEqual on this struct is the bit-identity claim.
type sharedTotals struct {
	Policy      string
	Horizon     float64
	ExecEnergy  float64
	IdleEnergy  float64
	TotalEnergy float64
	CyclesDone  float64
	BusyTime    float64
	IdleTime    float64
	HaltTime    float64
	Switches    int
	Releases    int
	Completions int
	Events      int
	Preemptions int
	Misses      []Miss
	Guaranteed  bool
	PerTask     []TaskStats
}

func scalarTotals(r *Result) sharedTotals {
	return sharedTotals{
		Policy: r.Policy, Horizon: r.Horizon,
		ExecEnergy: r.ExecEnergy, IdleEnergy: r.IdleEnergy, TotalEnergy: r.TotalEnergy,
		CyclesDone: r.CyclesDone, BusyTime: r.BusyTime, IdleTime: r.IdleTime, HaltTime: r.HaltTime,
		Switches: r.Switches, Releases: r.Releases, Completions: r.Completions,
		Events: r.Events, Preemptions: r.Preemptions,
		Misses: append([]Miss(nil), r.Misses...), Guaranteed: r.Guaranteed,
		PerTask: append([]TaskStats(nil), r.PerTask...),
	}
}

func multiTotals(r *MultiResult) sharedTotals {
	return sharedTotals{
		Policy: r.Policy, Horizon: r.Horizon,
		ExecEnergy: r.ExecEnergy, IdleEnergy: r.IdleEnergy, TotalEnergy: r.TotalEnergy,
		CyclesDone: r.CyclesDone, BusyTime: r.BusyTime, IdleTime: r.IdleTime, HaltTime: r.HaltTime,
		Switches: r.Switches, Releases: r.Releases, Completions: r.Completions,
		Events: r.Events, Preemptions: r.Preemptions,
		Misses: append([]Miss(nil), r.Misses...), Guaranteed: r.Guaranteed,
		PerTask: append([]TaskStats(nil), r.PerTask...),
	}
}

// regressionSet draws the workload both engines run: a seeded random
// set whose high utilization makes the RM policies miss, so the miss
// path is pinned too.
func regressionSet(t *testing.T, seed int64) *task.Set {
	t.Helper()
	g := task.Generator{N: 6, Utilization: 0.92, Rand: rand.New(rand.NewSource(seed))}
	ts, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// scalarRun executes the scalar engine with the exact derivation the
// multi-core engine uses at m = 1: same policy resolution, same
// execution-model seed (core 0's first task is task 0, so the per-core
// stride contributes nothing).
func scalarRun(t *testing.T, ts *task.Set, policy, execSpec string, seed int64, horizon float64) *Result {
	t.Helper()
	p, err := core.ExtendedByName(policy)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := task.ParseExec(execSpec, seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Tasks: ts, Machine: machine.Machine0(), Policy: p, Exec: exec, Horizon: horizon})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMultiCoreM1BitIdentical pins RunMulti at one core against the
// scalar engine for every regression policy across deterministic and
// stochastic execution models.
func TestMultiCoreM1BitIdentical(t *testing.T) {
	for _, execSpec := range []string{"wcet", "c=0.6", "uniform", "beta=2,5"} {
		for _, policy := range regressionPolicies() {
			ts := regressionSet(t, 11)
			want := scalarTotals(scalarRun(t, ts, policy, execSpec, 33, 900))
			mres, err := RunMulti(MultiConfig{
				Tasks:   ts,
				Machine: machine.Machine0().WithCores(1),
				Policy:  policy,
				Exec:    execSpec,
				Seed:    33,
				Horizon: 900,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", policy, execSpec, err)
			}
			if got := multiTotals(mres); !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: m=1 multi result diverges from scalar\ngot  %+v\nwant %+v", policy, execSpec, got, want)
			}
			if mres.Cores != 1 || len(mres.PerCore) != 1 {
				t.Errorf("%s/%s: m=1 run reports %d cores, %d PerCore entries", policy, execSpec, mres.Cores, len(mres.PerCore))
			}
			if mres.Migrations != 0 {
				t.Errorf("%s/%s: partitioned run migrated %d times", policy, execSpec, mres.Migrations)
			}
			wantTasks := make([]int, ts.Len())
			for i := range wantTasks {
				wantTasks[i] = i
			}
			if !reflect.DeepEqual(mres.PerCore[0].Tasks, wantTasks) {
				t.Errorf("%s/%s: core 0 tasks = %v, want %v", policy, execSpec, mres.PerCore[0].Tasks, wantTasks)
			}
		}
	}
}

// TestMultiCoreM1TraceIdentical pins the m = 1 execution trace — the
// exact segment sequence, operating points included — against the
// scalar recorder on the paper's worked example, for the four policies
// whose scalar traces the golden suite checks against Figures 2-7.
func TestMultiCoreM1TraceIdentical(t *testing.T) {
	for _, policy := range []string{"staticEDF", "ccEDF", "ccRM", "laEDF"} {
		var srec trace.Recorder
		p := mustPolicy(t, policy)
		if _, err := Run(Config{
			Tasks:    task.PaperExample(),
			Machine:  machine.Machine0(),
			Policy:   p,
			Exec:     task.FullWCET{},
			Horizon:  16,
			Recorder: &srec,
		}); err != nil {
			t.Fatal(err)
		}
		var mrec trace.Recorder
		if _, err := RunMulti(MultiConfig{
			Tasks:    task.PaperExample(),
			Machine:  machine.Machine0().WithCores(1),
			Policy:   policy,
			Exec:     "wcet",
			Horizon:  16,
			Recorder: &mrec,
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(mrec.Segments(), srec.Segments()) {
			t.Errorf("%s: m=1 trace diverges from scalar\ngot  %+v\nwant %+v", policy, mrec.Segments(), srec.Segments())
		}
	}
}

// TestMultiCoreM1Errors pins the validation error paths: the m = 1
// engine must reject exactly what the scalar engine rejects, plus the
// multi-core-specific misconfigurations.
func TestMultiCoreM1Errors(t *testing.T) {
	ts := regressionSet(t, 3)
	cases := []struct {
		name string
		cfg  MultiConfig
	}{
		{"empty set", MultiConfig{Machine: machine.Machine0(), Policy: "ccEDF"}},
		{"nil machine", MultiConfig{Tasks: ts, Policy: "ccEDF"}},
		{"unknown policy", MultiConfig{Tasks: ts, Machine: machine.Machine0(), Policy: "noSuchPolicy"}},
		{"bad exec spec", MultiConfig{Tasks: ts, Machine: machine.Machine0(), Policy: "ccEDF", Exec: "c=7"}},
		{"recorder on multi-core", MultiConfig{Tasks: ts, Machine: machine.Machine0().WithCores(2), Policy: "ccEDF", Recorder: &trace.Recorder{}}},
		{"global without gang policy", MultiConfig{Tasks: ts, Machine: machine.Machine0().WithCores(2), Policy: "ccEDF", Placement: sched.Global}},
		{"partition override under global", MultiConfig{Tasks: ts, Machine: machine.Machine0().WithCores(2), Policy: "gangCCEDF", Placement: sched.Global, Partition: &sched.Partition{}}},
		{"partition override wrong core count", MultiConfig{Tasks: ts, Machine: machine.Machine0().WithCores(2), Policy: "ccEDF",
			Partition: &sched.Partition{Cores: 3, Assign: make([]int, ts.Len())}}},
		{"partition override wrong task count", MultiConfig{Tasks: ts, Machine: machine.Machine0().WithCores(2), Policy: "ccEDF",
			Partition: &sched.Partition{Cores: 2, Assign: []int{0}}}},
	}
	for _, tc := range cases {
		if _, err := RunMulti(tc.cfg); err == nil {
			t.Errorf("%s: RunMulti accepted the config", tc.name)
		}
	}
	if _, err := RunMulti(MultiConfig{Tasks: &task.Set{}, Machine: machine.Machine0(), Policy: "ccEDF"}); !errors.Is(err, task.ErrEmptySet) {
		t.Errorf("empty set error = %v, want task.ErrEmptySet", err)
	}
}

// TestMultiCoreM1Cancellation pins the cancellation path: a cancelled
// m = 1 run must stop where the scalar engine stops and fold the same
// partial totals, on a fresh and on a reused MultiRunner.
func TestMultiCoreM1Cancellation(t *testing.T) {
	ts := regressionSet(t, 19)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	p := mustPolicy(t, "ccEDF")
	exec, err := task.ParseExec("wcet", 0)
	if err != nil {
		t.Fatal(err)
	}
	_, serr := RunContext(ctx, Config{Tasks: ts, Machine: machine.Machine0(), Policy: p, Exec: exec, Horizon: 600})
	var scanc *Canceled
	if !errors.As(serr, &scanc) {
		t.Fatalf("scalar run: %v, want Canceled", serr)
	}

	mcfg := MultiConfig{Tasks: ts, Machine: machine.Machine0().WithCores(1), Policy: "ccEDF", Exec: "wcet", Horizon: 600}
	_, merr := RunMultiContext(ctx, mcfg)
	var mcanc *MultiCanceled
	if !errors.As(merr, &mcanc) {
		t.Fatalf("multi run: %v, want MultiCanceled", merr)
	}
	if !errors.Is(merr, context.Canceled) {
		t.Errorf("MultiCanceled does not unwrap to context.Canceled: %v", merr)
	}
	if mcanc.At != scanc.At {
		t.Errorf("multi cancelled at t=%g, scalar at t=%g", mcanc.At, scanc.At)
	}
	if got, want := multiTotals(mcanc.Partial), scalarTotals(scanc.Partial); !reflect.DeepEqual(got, want) {
		t.Errorf("partial results diverge\ngot  %+v\nwant %+v", got, want)
	}

	// A reused MultiRunner folds the same partial: the completed run
	// before it leaves nothing behind in the fold.
	mr := NewMultiRunner()
	if _, err := mr.Run(mcfg); err != nil {
		t.Fatal(err)
	}
	_, rerr := mr.RunContext(ctx, mcfg)
	var rcanc *MultiCanceled
	if !errors.As(rerr, &rcanc) {
		t.Fatalf("reused multi run: %v, want MultiCanceled", rerr)
	}
	if rcanc.At != scanc.At {
		t.Errorf("reused runner cancelled at t=%g, scalar at t=%g", rcanc.At, scanc.At)
	}
	if got, want := multiTotals(rcanc.Partial), scalarTotals(scanc.Partial); !reflect.DeepEqual(got, want) {
		t.Errorf("reused runner partial results diverge\ngot  %+v\nwant %+v", got, want)
	}
}

// TestGangM1ScalarEquivalent pins each gang policy at one core to its
// uniprocessor counterpart: on a single core the global engine and the
// gang formulas (GFB admission at m = 1, Graham pacing at m = 1) reduce
// exactly to the scalar engine running the original policy.
func TestGangM1ScalarEquivalent(t *testing.T) {
	pairs := [][2]string{
		{"gangStaticEDF", "staticEDF"},
		{"gangCCEDF", "ccEDF"},
		{"gangLAEDF", "laEDF"},
	}
	for seed := int64(1); seed <= 4; seed++ {
		g := task.Generator{N: 5, Utilization: 0.6, Rand: rand.New(rand.NewSource(seed))}
		ts, err := g.Generate()
		if err != nil {
			t.Fatal(err)
		}
		for _, pr := range pairs {
			mres, err := RunMulti(MultiConfig{
				Tasks:     ts,
				Machine:   machine.Machine0().WithCores(1),
				Policy:    pr[0],
				Placement: sched.Global,
				Exec:      "c=0.7",
				Seed:      seed,
				Horizon:   800,
			})
			if err != nil {
				t.Fatal(err)
			}
			sres := scalarRun(t, ts, pr[1], "c=0.7", seed, 800)
			if mres.TotalEnergy != sres.TotalEnergy ||
				mres.Switches != sres.Switches ||
				mres.CyclesDone != sres.CyclesDone ||
				mres.Guaranteed != sres.Guaranteed ||
				mres.MissCount() != sres.MissCount() {
				t.Errorf("seed %d: %s at m=1 diverges from %s: energy %g vs %g, switches %d vs %d, guaranteed %v vs %v",
					seed, pr[0], pr[1], mres.TotalEnergy, sres.TotalEnergy,
					mres.Switches, sres.Switches, mres.Guaranteed, sres.Guaranteed)
			}
		}
	}
}
