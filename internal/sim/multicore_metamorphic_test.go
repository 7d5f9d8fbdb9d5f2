package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"rtdvs/internal/machine"
	"rtdvs/internal/sched"
	"rtdvs/internal/task"
)

// Metamorphic properties of the multi-core engine. The partitioned
// engine folds scalar totals in a canonical core order (ascending
// first-assigned-task index) and seeds each partition's execution model
// from its first task's original index — not from the core index — so
// relabeling the cores of a partition must leave every system-wide
// total bit-identical and every per-core entry identical after the
// index remap. These tests pin both halves of that contract.

// permutePartition relabels the cores of p through perm: a task on core
// c moves to core perm[c]. The workload on each (renamed) core is
// unchanged, so the run must be equivalent.
func permutePartition(p sched.Partition, perm []int) sched.Partition {
	q := sched.Partition{
		Cores:    p.Cores,
		Assign:   make([]int, len(p.Assign)),
		Util:     make([]float64, p.Cores),
		Feasible: p.Feasible,
	}
	for i, c := range p.Assign {
		q.Assign[i] = perm[c]
	}
	for c, u := range p.Util {
		q.Util[perm[c]] = u
	}
	return q
}

// TestMultiCoreCorePermutationInvariance runs the same workload under
// the default partition and under random core relabelings of it, and
// requires bit-identical system-wide totals and per-core stats equal
// after the index remap.
func TestMultiCoreCorePermutationInvariance(t *testing.T) {
	for _, m := range []int{2, 4} {
		for _, execSpec := range []string{"wcet", "uniform", "beta=2,5"} {
			for seed := int64(1); seed <= 3; seed++ {
				g := task.Generator{N: 3 * m, Utilization: 0.6 * float64(m), Rand: rand.New(rand.NewSource(seed))}
				ts, err := g.Generate()
				if err != nil {
					t.Fatal(err)
				}
				base, err := sched.PartitionFor(sched.PartitionedWF, ts, m)
				if err != nil {
					t.Fatal(err)
				}
				cfg := MultiConfig{
					Tasks:           ts,
					Machine:         machine.Machine0().WithCores(m),
					Policy:          "ccEDF",
					Placement:       sched.PartitionedWF,
					Exec:            execSpec,
					Seed:            seed * 101,
					Horizon:         min(10*ts.MaxPeriod(), 1500),
					CheckInvariants: true,
				}
				ref, err := RunMulti(cfg)
				if err != nil {
					t.Fatal(err)
				}

				// A few deterministic permutations per case, including the
				// full reversal.
				prand := rand.New(rand.NewSource(seed ^ 0xA5))
				for trial := 0; trial < 3; trial++ {
					perm := prand.Perm(m)
					if trial == 0 {
						for c := range perm {
							perm[c] = m - 1 - c
						}
					}
					pcfg := cfg
					pp := permutePartition(base, perm)
					pcfg.Partition = &pp
					got, err := RunMulti(pcfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(multiTotals(got), multiTotals(ref)) {
						t.Fatalf("m=%d exec=%s seed=%d perm=%v: totals diverge\nref: %+v\ngot: %+v",
							m, execSpec, seed, perm, multiTotals(ref), multiTotals(got))
					}
					if !reflect.DeepEqual(got.Misses, ref.Misses) {
						t.Fatalf("m=%d exec=%s seed=%d perm=%v: miss lists diverge", m, execSpec, seed, perm)
					}
					if !reflect.DeepEqual(got.PerTask, ref.PerTask) {
						t.Fatalf("m=%d exec=%s seed=%d perm=%v: per-task stats diverge", m, execSpec, seed, perm)
					}
					for c := 0; c < m; c++ {
						if !reflect.DeepEqual(got.PerCore[perm[c]], ref.PerCore[c]) {
							t.Fatalf("m=%d exec=%s seed=%d perm=%v: core %d → %d stats diverge\nref: %+v\ngot: %+v",
								m, execSpec, seed, perm, c, perm[c], ref.PerCore[c], got.PerCore[perm[c]])
						}
					}
				}
			}
		}
	}
}

// TestMultiCorePartitionDeterminism pins that packing is a pure
// function of (set, m): repeated calls — and calls on a structurally
// equal regenerated set — give DeepEqual partitions for both
// heuristics.
func TestMultiCorePartitionDeterminism(t *testing.T) {
	for _, m := range []int{2, 3, 4, 8} {
		for seed := int64(1); seed <= 5; seed++ {
			gen := func() *task.Set {
				g := task.Generator{N: 12, Utilization: 0.5 * float64(m), Rand: rand.New(rand.NewSource(seed))}
				ts, err := g.Generate()
				if err != nil {
					t.Fatal(err)
				}
				return ts
			}
			a, b := gen(), gen()
			for _, p := range []sched.Placement{sched.PartitionedFF, sched.PartitionedWF} {
				pa, err := sched.PartitionFor(p, a, m)
				if err != nil {
					t.Fatal(err)
				}
				pb, err := sched.PartitionFor(p, b, m)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(pa, pb) {
					t.Fatalf("m=%d seed=%d %v: partition not deterministic\n%+v\n%+v", m, seed, p, pa, pb)
				}
			}
		}
	}
}
