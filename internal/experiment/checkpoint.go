package experiment

import (
	"encoding/json"
	"fmt"
	"sync"

	"rtdvs/internal/checkpoint"
)

// The journal's first record is the SweepHeader (see shard.go): every
// parameter that determines a sweep's per-job results. Resume refuses a
// journal whose header fingerprint differs — silently mixing results
// from a differently-parameterized sweep would corrupt the fold while
// looking like a successful resume.

// harnessRecord journals one completed (utilization, set) job: the
// total energy and miss count of every policy, plus the theoretical
// bound. Floats survive the JSON round trip exactly (Go emits the
// shortest representation that parses back to the same float64), which
// is what makes a resumed sweep bit-identical to an uninterrupted one.
type harnessRecord struct {
	UI     int       `json:"ui"`
	SI     int       `json:"si"`
	Energy []float64 `json:"energy"`
	Misses []int     `json:"misses"`
	Bnd    float64   `json:"bnd"`
}

// harnessJournal serializes concurrent workers' appends onto one
// checkpoint log.
type harnessJournal struct {
	mu  sync.Mutex
	log *checkpoint.Log
}

// openHarnessJournal opens cfg.Checkpoint — resuming the existing
// journal when cfg.Resume is set, starting fresh otherwise — verifies
// the header fingerprint, and replays completed job records into outs.
func openHarnessJournal(cfg Config, policies []string, outs []harnessOut) (*harnessJournal, error) {
	want := sweepHeader(cfg, policies)
	if !cfg.Resume {
		log, err := checkpoint.Create(cfg.Checkpoint)
		if err != nil {
			return nil, err
		}
		j := &harnessJournal{log: log}
		if err := j.append(want); err != nil {
			log.Close()
			return nil, err
		}
		return j, nil
	}

	log, records, err := checkpoint.Open(cfg.Checkpoint)
	if err != nil {
		return nil, err
	}
	j := &harnessJournal{log: log}
	if len(records) == 0 {
		// A journal that never got its header (created but crashed before
		// the first sync, or simply absent): start it now.
		if err := j.append(want); err != nil {
			log.Close()
			return nil, err
		}
		return j, nil
	}
	var got SweepHeader
	if err := json.Unmarshal(records[0], &got); err != nil {
		log.Close()
		return nil, fmt.Errorf("experiment: checkpoint %s: bad header: %w", cfg.Checkpoint, err)
	}
	// Compare by fingerprint — the same definition of "same
	// configuration" the distributed-sweep result cache keys on.
	gotFP, err := checkpoint.Fingerprint(got)
	if err != nil {
		log.Close()
		return nil, err
	}
	wantFP, err := checkpoint.Fingerprint(want)
	if err != nil {
		log.Close()
		return nil, err
	}
	if gotFP != wantFP {
		log.Close()
		return nil, fmt.Errorf("experiment: checkpoint %s was written by a differently-parameterized sweep; "+
			"use a fresh checkpoint file (journal %+v, sweep %+v)", cfg.Checkpoint, got, want)
	}
	np := len(policies)
	for ri, raw := range records[1:] {
		var rec harnessRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			log.Close()
			return nil, fmt.Errorf("experiment: checkpoint %s: record %d: %w", cfg.Checkpoint, ri+1, err)
		}
		idx := rec.UI*cfg.Sets + rec.SI
		if rec.UI < 0 || rec.SI < 0 || rec.SI >= cfg.Sets || idx >= len(outs) ||
			len(rec.Energy) != np || len(rec.Misses) != np {
			log.Close()
			return nil, fmt.Errorf("experiment: checkpoint %s: record %d does not fit the sweep "+
				"(ui=%d si=%d, %d policies)", cfg.Checkpoint, ri+1, rec.UI, rec.SI, np)
		}
		outs[idx] = harnessOut{ok: true, energy: rec.Energy, misses: rec.Misses, bnd: rec.Bnd}
	}
	return j, nil
}

// recordHook, when non-nil, runs after each job record is journaled. It
// is a test seam: a test cancels a sweep from it at a known point.
var recordHook func()

// record journals one completed job. Safe for concurrent workers.
func (j *harnessJournal) record(ui, si int, out *harnessOut) error {
	if err := j.append(harnessRecord{UI: ui, SI: si, Energy: out.energy, Misses: out.misses, Bnd: out.bnd}); err != nil {
		return err
	}
	if recordHook != nil {
		recordHook()
	}
	return nil
}

func (j *harnessJournal) append(v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Append(payload)
}

func (j *harnessJournal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Close()
}
