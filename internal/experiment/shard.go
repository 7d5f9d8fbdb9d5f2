package experiment

import (
	"context"
	"fmt"
)

// SweepHeader is the canonical identity of a sweep configuration: every
// parameter that determines per-job results, in a fixed serializable
// form. It is both the first record of a checkpoint journal (Resume
// refuses a journal whose header differs) and, hashed through
// checkpoint.Fingerprint together with a shard's job list, the
// content address of a shard result in the distributed-sweep cache.
type SweepHeader struct {
	Kind         string    `json:"kind"`
	Machine      string    `json:"machine"`
	NTasks       int       `json:"nTasks"`
	Sets         int       `json:"sets"`
	Seed         int64     `json:"seed"`
	Horizon      float64   `json:"horizon"`
	Utilizations []float64 `json:"utilizations"`
	Policies     []string  `json:"policies"`
	ExecDesc     string    `json:"execDesc"`
	// Placement identifies the multiprocessor execution model of
	// multi-core sweeps. Empty for uniprocessor sweeps (the core count
	// itself is part of the Machine rendering), so every pre-multicore
	// journal and shard fingerprint is unchanged.
	Placement string `json:"placement,omitempty"`
}

// Header returns the normalized sweep header for cfg: defaults applied,
// the baseline policy included, the machine rendered as its full spec.
// Two configs with equal headers produce bit-identical per-job results.
func Header(cfg Config) (SweepHeader, error) {
	cfg, err := normalize(cfg)
	if err != nil {
		return SweepHeader{}, err
	}
	return sweepHeader(cfg, ensureBaseline(cfg.Policies)), nil
}

// sweepHeader builds the header from a normalized config and its
// baseline-complete policy list.
func sweepHeader(cfg Config, policies []string) SweepHeader {
	h := SweepHeader{
		Kind:         "harness",
		Machine:      cfg.Machine.String(), // full spec, not just the name
		NTasks:       cfg.NTasks,
		Sets:         cfg.Sets,
		Seed:         cfg.Seed,
		Horizon:      cfg.Horizon,
		Utilizations: cfg.Utilizations,
		Policies:     policies,
		ExecDesc:     execDesc(cfg),
	}
	if cfg.Machine.NumCores() > 1 {
		h.Placement = cfg.Placement.String()
	}
	return h
}

// JobResult is one (utilization, set) job's scalar outputs, addressed
// by its flat index ui*Sets+si in the normalized grid: the total energy
// and miss count of every policy (indexed like the header's Policies)
// plus the theoretical bound. Floats survive the JSON round trip
// exactly (Go emits the shortest representation that parses back to the
// same float64), which is what lets a shard computed on a remote worker
// fold bit-identically into a local sweep.
type JobResult struct {
	Index  int       `json:"index"`
	Energy []float64 `json:"energy"`
	Misses []int     `json:"misses"`
	Bound  float64   `json:"bound"`
}

// NumJobs returns the size of cfg's normalized job grid:
// len(Utilizations) × Sets.
func NumJobs(cfg Config) (int, error) {
	cfg, err := normalize(cfg)
	if err != nil {
		return 0, err
	}
	return len(cfg.Utilizations) * cfg.Sets, nil
}

// RunJobs executes the given flat job indexes of cfg's grid and returns
// their results in the same order. It is the shard execution primitive
// of the distributed sweep fabric: per-job seeding is a pure function
// of (cfg, index), so a shard computes exactly what the local worker
// pool would have, wherever it runs. Jobs run in chunks on one
// reusable jobRunner's BatchRunner — shards, not jobs, are the unit of
// parallelism, and batch lanes are bit-identical to the scalar Runner,
// so chunking leaves shard results unchanged.
//
// Unlike RunContext, any error — including cancellation — aborts the
// whole call: a shard is all-or-nothing, and the caller retries it.
func RunJobs(ctx context.Context, cfg Config, jobs []int) ([]JobResult, error) {
	cfg, err := normalize(cfg)
	if err != nil {
		return nil, err
	}
	policies := ensureBaseline(cfg.Policies)
	np := len(policies)
	baseIdx := policyIndex(policies, "none")
	njobs := len(cfg.Utilizations) * cfg.Sets
	for _, j := range jobs {
		if j < 0 || j >= njobs {
			return nil, fmt.Errorf("experiment: job index %d outside the grid [0, %d)", j, njobs)
		}
	}

	jr := newJobRunner()
	results := make([]JobResult, 0, len(jobs))
	chunkCap := batchChunkJobs(np)
	for start := 0; start < len(jobs); start += chunkCap {
		chunk := jobs[start:min(start+chunkCap, len(jobs))]
		outs := make([]*harnessOut, len(chunk))
		for i := range outs {
			outs[i] = &harnessOut{energy: make([]float64, np), misses: make([]int, np)}
		}
		errs := jr.runChunk(ctx, cfg, policies, baseIdx, chunk, outs)
		for i, j := range chunk {
			if errs[i] != nil {
				return nil, errs[i]
			}
			cfg.Metrics.jobDone()
			results = append(results, JobResult{Index: j, Energy: outs[i].energy, Misses: outs[i].misses, Bound: outs[i].bnd})
		}
	}
	return results, nil
}

// FoldJobs assembles a Sweep from per-job results produced by RunJobs —
// locally, from a journal, or on remote shard workers. The fold order
// is the deterministic (utilization, set, policy) job order, not the
// arrival order, so the result is DeepEqual-identical to RunContext's
// for the same cfg no matter how the jobs were scheduled, retried, or
// duplicated in flight. Every grid job must be present exactly once
// (duplicates with identical content are tolerated); a missing or
// ill-shaped job is an error rather than a silently skewed mean.
func FoldJobs(cfg Config, results []JobResult) (*Sweep, error) {
	cfg, err := normalize(cfg)
	if err != nil {
		return nil, err
	}
	policies := ensureBaseline(cfg.Policies)
	np := len(policies)
	baseIdx := policyIndex(policies, "none")
	njobs := len(cfg.Utilizations) * cfg.Sets

	outs := make([]harnessOut, njobs)
	for i := range results {
		r := &results[i]
		if r.Index < 0 || r.Index >= njobs {
			return nil, fmt.Errorf("experiment: folding job index %d outside the grid [0, %d)", r.Index, njobs)
		}
		if len(r.Energy) != np || len(r.Misses) != np {
			return nil, fmt.Errorf("experiment: job %d carries %d/%d policy values, want %d",
				r.Index, len(r.Energy), len(r.Misses), np)
		}
		outs[r.Index] = harnessOut{ok: true, energy: r.Energy, misses: r.Misses, bnd: r.Bound}
	}
	for j := range outs {
		if !outs[j].ok {
			return nil, fmt.Errorf("experiment: folding an incomplete sweep: job %d missing", j)
		}
	}
	return fold(cfg, policies, baseIdx, outs), nil
}
