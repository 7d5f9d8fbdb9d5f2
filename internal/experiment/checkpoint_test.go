package experiment

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtdvs/internal/checkpoint"
)

func checkpointConfig(path string) Config {
	cfg := smallConfig()
	cfg.Exec = UniformExec() // exercise float journaling on non-trivial values
	cfg.Checkpoint = path
	return cfg
}

// A checkpointed sweep must produce exactly the result of an
// unjournaled one.
func TestCheckpointFreshRunMatches(t *testing.T) {
	cfg := checkpointConfig("")
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	cfg.Checkpoint = path
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSweepsEqual(t, want, got)

	// The journal holds the header plus one record per job.
	log, records, err := checkpoint.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	log.Close()
	if want := 1 + len(cfg.Utilizations)*cfg.Sets; len(records) != want {
		t.Fatalf("journal has %d records, want %d", len(records), want)
	}
}

// Resuming a partially-written journal skips the recorded jobs and
// still produces a bit-identical sweep — including when the journal's
// tail is a torn (mid-record) write.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	cfg := checkpointConfig("")
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Build a complete journal, then replay prefixes of it.
	full := filepath.Join(t.TempDir(), "full.ckpt")
	cfg.Checkpoint = full
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	log, records, err := checkpoint.Open(full)
	if err != nil {
		t.Fatal(err)
	}
	log.Close()

	for _, tc := range []struct {
		name string
		keep int    // records (incl. header) to replay into the partial journal
		tail []byte // raw bytes appended afterwards (torn write)
	}{
		{"empty", 0, nil},
		{"headerOnly", 1, nil},
		{"half", 1 + len(records[1:])/2, nil},
		{"allButOne", len(records) - 1, nil},
		{"tornTail", 1 + len(records[1:])/2, []byte{0x2a, 0x00, 0x00, 0x00, 0xde, 0xad}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "partial.ckpt")
			part, err := checkpoint.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range records[:tc.keep] {
				if err := part.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := part.Close(); err != nil {
				t.Fatal(err)
			}
			if tc.tail != nil {
				f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write(tc.tail); err != nil {
					t.Fatal(err)
				}
				f.Close()
			}

			rcfg := cfg
			rcfg.Checkpoint = path
			rcfg.Resume = true
			got, err := Run(rcfg)
			if err != nil {
				t.Fatal(err)
			}
			assertSweepsEqual(t, want, got)
		})
	}
}

// A cancelled checkpointed sweep journals its completed jobs; resuming
// finishes the remainder and matches the uninterrupted run.
func TestCheckpointResumeAfterCancel(t *testing.T) {
	cfg := checkpointConfig("")
	// One worker and two chunks' worth of jobs: cancelling once the first
	// job is journaled lets the first chunk finish and leaves the second
	// unrun, on any host.
	cfg.Workers = 1
	cfg.Sets = 2 * batchChunkJobs(len(ensureBaseline(cfg.Policies))) / len(cfg.Utilizations)
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	cfg.Checkpoint = path
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	recordHook = cancel
	t.Cleanup(func() { recordHook = nil })
	_, err = RunContext(ctx, cfg)
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T %v, want *PartialError", err, err)
	}
	if pe.Done < 1 || pe.Done >= pe.Total {
		t.Fatalf("cancelled with %d of %d jobs done, want a mid-sweep cancel", pe.Done, pe.Total)
	}

	cfg.Resume = true
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSweepsEqual(t, want, got)
}

// Resume must refuse a journal written by a differently-parameterized
// sweep instead of silently mixing results.
func TestCheckpointFingerprintMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	cfg := checkpointConfig(path)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}

	other := cfg
	other.Seed++
	other.Resume = true
	_, err := Run(other)
	if err == nil {
		t.Fatal("resume with a mismatched seed succeeded")
	}
	if !strings.Contains(err.Error(), "differently-parameterized") {
		t.Fatalf("error %v does not explain the fingerprint mismatch", err)
	}
}

// Without Resume, an existing journal is truncated and rebuilt.
func TestCheckpointFreshTruncatesStale(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	cfg := checkpointConfig(path)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}

	// Re-running with different parameters and no Resume must succeed:
	// the stale journal is discarded, not validated.
	cfg.Seed++
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}
