package sim

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"rtdvs/internal/core"
	"rtdvs/internal/fpx"
	"rtdvs/internal/machine"
	"rtdvs/internal/obs"
	"rtdvs/internal/sched"
	"rtdvs/internal/task"
)

func metricsConfig(t *testing.T, policy string) Config {
	t.Helper()
	ts, err := task.NewSet(
		task.Task{Period: 8, WCET: 3},
		task.Task{Period: 12, WCET: 3},
		task.Task{Period: 20, WCET: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := core.ByName(policy)
	if err != nil {
		t.Fatal(err)
	}
	return Config{Tasks: ts, Machine: machine.Machine1(), Policy: pol, Horizon: 400}
}

// TestMetricsMatchResult runs the same configuration with and without a
// Metrics attached: the Results must be identical, and the counters must
// equal the Result's own fields.
func TestMetricsMatchResult(t *testing.T) {
	bare, err := Run(metricsConfig(t, "ccEDF"))
	if err != nil {
		t.Fatal(err)
	}
	bare = bare.Clone()

	reg := obs.NewRegistry()
	spec := machine.Machine1()
	m := NewMetrics(reg, spec)
	cfg := metricsConfig(t, "ccEDF")
	cfg.Machine = spec
	cfg.Metrics = m
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if res.TotalEnergy != bare.TotalEnergy || res.Events != bare.Events ||
		res.Preemptions != bare.Preemptions || res.Switches != bare.Switches {
		t.Errorf("metrics changed the result: %+v vs %+v", res, bare)
	}
	checks := []struct {
		name string
		c    *obs.Counter
		want float64
	}{
		{"runs", m.runs, 1},
		{"events", m.events, float64(res.Events)},
		{"releases", m.releases, float64(res.Releases)},
		{"completions", m.completions, float64(res.Completions)},
		{"preemptions", m.preemptions, float64(res.Preemptions)},
		{"misses", m.misses, float64(len(res.Misses))},
		{"switches", m.switches, float64(res.Switches)},
	}
	for _, c := range checks {
		if got := c.c.Value(); got != c.want {
			t.Errorf("%s counter = %v, want %v", c.name, got, c.want)
		}
	}
	if got := m.execEnergy.Value(); fpx.Ne(got, res.ExecEnergy) {
		t.Errorf("execEnergy counter = %v, want %v", got, res.ExecEnergy)
	}

	// Residency counters must reproduce PointResTime, point by point.
	var resTimeTotal float64
	for i, p := range spec.Points {
		want := res.PointResTime[p]
		if got := m.residencyTime[i].Value(); fpx.Ne(got, want) {
			t.Errorf("residency time[%d] = %v, want %v", i, got, want)
		}
		if got := m.residencyCycles[i].Value(); fpx.Ne(got, want*p.Freq) {
			t.Errorf("residency cycles[%d] = %v, want %v", i, got, want*p.Freq)
		}
		resTimeTotal += m.residencyTime[i].Value()
	}
	if fpx.Ne(resTimeTotal, res.BusyTime+res.IdleTime) {
		t.Errorf("residency time sums to %v, want busy+idle %v", resTimeTotal, res.BusyTime+res.IdleTime)
	}

	// And the whole registry must render as valid exposition text.
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateText([]byte(sb.String())); err != nil {
		t.Fatalf("sim metrics scrape invalid: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), `rtdvs_sim_residency_cycles_total{machine="machine1"`) {
		t.Errorf("residency family missing machine label:\n%s", sb.String())
	}
}

// TestMetricsAccumulateAcrossRuns checks counters add up over a reused
// Runner and that a failed run contributes nothing.
func TestMetricsAccumulateAcrossRuns(t *testing.T) {
	reg := obs.NewRegistry()
	spec := machine.Machine1()
	m := NewMetrics(reg, spec)
	r := NewRunner()
	var wantEvents float64
	for i := 0; i < 3; i++ {
		cfg := metricsConfig(t, "laEDF")
		cfg.Machine = spec
		cfg.Metrics = m
		res, err := r.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantEvents += float64(res.Events)
	}
	if got := m.runs.Value(); got != 3 {
		t.Errorf("runs = %v, want 3", got)
	}
	if got := m.events.Value(); got != wantEvents {
		t.Errorf("events = %v, want %v", got, wantEvents)
	}

	// An invalid config errors out before observation.
	bad := metricsConfig(t, "laEDF")
	bad.Machine = &machine.Spec{Name: "broken"}
	bad.Metrics = m
	if _, err := r.Run(bad); err == nil {
		t.Fatal("broken machine accepted")
	}
	if got := m.runs.Value(); got != 3 {
		t.Errorf("failed run was observed: runs = %v", got)
	}
}

// TestPreemptionCounting pins the preemption counter on a hand-checked
// two-task schedule: T1=(period 10, wcet 6), T2=(period 25, wcet 9),
// full WCET, no DVS. Under EDF, T2's first invocation runs in T1's slack
// and is displaced at t=10 and t=20 by T1's earlier deadlines.
func TestPreemptionCounting(t *testing.T) {
	ts, err := task.NewSet(task.Task{Period: 10, WCET: 6}, task.Task{Period: 25, WCET: 9})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := core.ByName("none")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Tasks: ts, Machine: machine.Machine1(), Policy: pol, Horizon: 50})
	if err != nil {
		t.Fatal(err)
	}
	// Timeline: T1 runs [0,6), T2 [6,10) — preempted by T1 [10,16) — T2
	// [16,20) — preempted by T1 [20,26) — T2 finishes [26,27). Second T2
	// invocation at t=25 runs [27,36) inside T1's slack: no further
	// preemption before t=50 (T1 releases at 30 and 40 find T2... T2
	// deadline 50 vs T1 deadline 40: T1 wins at t=30, preempting T2).
	if res.Preemptions < 2 {
		t.Errorf("preemptions = %d, want at least the two hand-checked displacements", res.Preemptions)
	}
	if res.MissCount() != 0 {
		t.Errorf("unexpected misses: %+v", res.Misses)
	}
	if res.Events <= 0 {
		t.Error("events counter never advanced")
	}
}

// TestMultiMetricsMatchResults folds a partitioned run with unloaded
// cores and a global run through one reused MultiRunner under a live
// context: the counters must equal the two results' own fields, with
// per-core stats past the registered core count folded into the last
// core. A cancelled run afterwards reports a *MultiCanceled and adds
// nothing.
func TestMultiMetricsMatchResults(t *testing.T) {
	ts, err := task.NewSet(
		task.Task{Period: 8, WCET: 3},
		task.Task{Period: 12, WCET: 3},
		task.Task{Period: 20, WCET: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m := NewMultiMetrics(reg, 2)
	cfgs := []MultiConfig{
		{Tasks: ts, Machine: machine.Machine1().WithCores(4), Policy: "ccEDF",
			Placement: sched.PartitionedFF, Exec: "c=0.7", Horizon: 400, Metrics: m},
		{Tasks: ts, Machine: machine.Machine1().WithCores(2), Policy: "gangCCEDF",
			Placement: sched.Global, Exec: "uniform", Seed: 3, Horizon: 400, Metrics: m},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mr := NewMultiRunner()
	var results []*MultiResult
	for _, cfg := range cfgs {
		res, err := mr.RunContext(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := res.Clone()
		if !reflect.DeepEqual(c, res) {
			t.Errorf("%s: clone differs from the result", c.Placement)
		}
		if got, want := c.AvgPower(), c.TotalEnergy/c.Horizon; got != want {
			t.Errorf("%s: AvgPower = %v, want %v", c.Placement, got, want)
		}
		results = append(results, c)
	}
	if empty := results[0].PerCore[3]; len(empty.Tasks) != 0 || empty.IdleTime != 400 {
		t.Errorf("unloaded core 3 = %+v, want idle for the whole horizon", empty)
	}

	cancel()
	_, err = mr.RunContext(ctx, cfgs[1])
	var mc *MultiCanceled
	if !errors.As(err, &mc) || !strings.Contains(mc.Error(), "cancelled at t=0") {
		t.Fatalf("cancelled global run: %v, want *MultiCanceled at t=0", err)
	}

	var migrations, misses, preemptions, switches float64
	var busy, exec, idle [2]float64
	for _, res := range results {
		migrations += float64(res.Migrations)
		misses += float64(len(res.Misses))
		preemptions += float64(res.Preemptions)
		switches += float64(res.Switches)
		for c, pc := range res.PerCore {
			k := min(c, 1)
			busy[k] += pc.BusyTime
			exec[k] += pc.ExecEnergy
			idle[k] += pc.IdleEnergy
		}
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"partitioned-ff runs", m.runs[0].Value(), 1},
		{"global runs", m.runs[2].Value(), 1},
		{"migrations", m.migrations.Value(), migrations},
		{"misses", m.misses.Value(), misses},
		{"preemptions", m.preemptions.Value(), preemptions},
		{"switches", m.switches.Value(), switches},
		{"busy core 0", m.busyTime[0].Value(), busy[0]},
		{"busy core 1+", m.busyTime[1].Value(), busy[1]},
		{"exec core 0", m.execEnergy[0].Value(), exec[0]},
		{"exec core 1+", m.execEnergy[1].Value(), exec[1]},
		{"idle core 0", m.idleEnergy[0].Value(), idle[0]},
		{"idle core 1+", m.idleEnergy[1].Value(), idle[1]},
	} {
		if fpx.Ne(c.got, c.want) {
			t.Errorf("%s counter = %v, want %v", c.name, c.got, c.want)
		}
	}
}
