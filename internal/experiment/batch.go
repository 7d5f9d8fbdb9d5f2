package experiment

import (
	"context"
	"math/rand"

	"rtdvs/internal/bound"
	"rtdvs/internal/sim"
	"rtdvs/internal/task"
)

// batchLaneTarget is the lane count a worker's chunk aims for: enough
// lanes that one BatchRunner call amortizes the per-chunk bookkeeping
// (generation, expansion, extraction) over many simulations, few enough
// that cancellation and checkpoint journaling stay fine-grained.
const batchLaneTarget = 64

// batchChunkJobs returns how many grid jobs one chunk should carry when
// every job expands to np policy lanes.
func batchChunkJobs(np int) int {
	n := batchLaneTarget / np
	if n < 1 {
		return 1
	}
	return n
}

// runChunk executes the grid jobs js as one batch: every job expands to
// one lane per policy, the lanes run back to back on the shared
// BatchRunner, and each job's scalar outputs land in the corresponding
// outs slot. It returns one error per job (aligned with js, nil on
// success); outs[i].ok is set only for error-free jobs. Multi-core jobs
// run one at a time through runOne.
//
// Per-job seeding, policy order, and execution-time randomness are
// identical to runOne's, and BatchRunner lanes are bit-identical to the
// scalar Runner, so a chunked sweep folds to exactly the same Sweep as
// a per-job one. Metrics accounting also mirrors runOne: a job that
// fails at policy pi records simulation counts only for the policies
// before pi, which is precisely what the sequential scalar path would
// have run.
func (jr *jobRunner) runChunk(ctx context.Context, cfg Config, policies []string, baseIdx int, js []int, outs []*harnessOut) []error {
	np := len(policies)
	jr.cfgs = jr.cfgs[:0]
	jr.laneOK = jr.laneOK[:0]
	if cap(jr.jobErrs) < len(js) {
		jr.jobErrs = make([]error, len(js))
	} else {
		jr.jobErrs = jr.jobErrs[:len(js)]
		for i := range jr.jobErrs {
			jr.jobErrs[i] = nil
		}
	}
	if cfg.Machine.NumCores() > 1 {
		for ci, j := range js {
			jr.jobErrs[ci] = jr.runOne(ctx, cfg, policies, baseIdx, j, outs[ci])
		}
		return jr.jobErrs
	}

	// Pass 1: generate each job's task set and expand it into lanes.
	// laneOK marks jobs whose lanes made it into the batch; a generation
	// failure records the error and contributes no lanes.
	for ci, j := range js {
		ui, si := j/cfg.Sets, j%cfg.Sets
		u := cfg.Utilizations[ui]
		seed := jobSeed(cfg.Seed, ui, si)
		r := rand.New(rand.NewSource(seed))
		g := task.Generator{N: cfg.NTasks, Utilization: u, Rand: r}
		ts, err := g.Generate()
		if err != nil {
			jr.jobErrs[ci] = err
			jr.laneOK = append(jr.laneOK, false)
			continue
		}
		horizon := cfg.Horizon
		if horizon <= 0 {
			horizon = 10 * ts.MaxPeriod()
		}
		ok := true
		for _, pname := range policies {
			p, err := jr.policy(pname)
			if err != nil {
				jr.jobErrs[ci] = err
				ok = false
				break
			}
			// Each policy sees the same per-set randomness for its
			// execution-time draws — one fresh source per lane, exactly
			// as the scalar path seeds one per policy run.
			execR := rand.New(rand.NewSource(seed ^ 0x5DEECE66D))
			jr.cfgs = append(jr.cfgs, sim.Config{
				Tasks:   ts,
				Machine: cfg.Machine,
				Policy:  p,
				Exec:    cfg.Exec(execR),
				Horizon: horizon,
			})
		}
		if !ok {
			// Drop this job's partial lanes so the batch stays rectangular.
			jr.cfgs = jr.cfgs[:len(jr.cfgs)-len(jr.cfgs)%np]
			jr.laneOK = append(jr.laneOK, false)
			continue
		}
		jr.laneOK = append(jr.laneOK, true)
	}

	// Pass 2: one batch run over every lane of every viable job.
	results, errs := jr.batch.RunContext(ctx, jr.cfgs)

	// Pass 3: per-job extraction in (job, policy) order.
	lane := 0
	for ci := range js {
		if !jr.laneOK[ci] {
			continue
		}
		out := outs[ci]
		var baseCycles float64
		failed := false
		for pi := range policies {
			res, err := results[lane], errs[lane]
			lane++
			if failed {
				continue
			}
			if err != nil {
				jr.jobErrs[ci] = err
				failed = true
				continue
			}
			cfg.Metrics.simRun(res.MissCount())
			out.energy[pi] = res.TotalEnergy
			out.misses[pi] = res.MissCount()
			if pi == baseIdx {
				baseCycles = res.CyclesDone
			}
		}
		if failed {
			continue
		}
		horizon := jr.cfgs[lane-1].Horizon
		bnd, err := bound.Energy(cfg.Machine, baseCycles, horizon)
		if err != nil {
			jr.jobErrs[ci] = err
			continue
		}
		out.bnd = bnd
		out.ok = true
	}
	return jr.jobErrs
}
