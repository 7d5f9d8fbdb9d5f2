package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// resultLine is the last line every run prints.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// runArgs runs the benchmark, checks that it passed its own checks and
// that every metric has the unit BENCHMARK.json gives it.
func runArgs(t *testing.T, args ...string) resultLine {
	t.Helper()
	b := readBenchmarkFile(t)
	units := map[string]string{}
	for _, m := range append(b.EndToEnd, b.PerLayer...) {
		units[m.Name] = m.Unit
	}
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("run %v: exit %d: %s", args, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("run %v: last line: %v\n%s", args, err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("run %v: correct=%v attempted=%d failed=%d\n%s",
			args, res.Correct, res.Attempted, res.Failed, out.String())
	}
	for k, m := range res.Metrics {
		if m.Unit != units[k] {
			t.Errorf("%s: unit %q, BENCHMARK.json says %q", k, m.Unit, units[k])
		}
	}
	return res
}

func names(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sorted(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}

// TestWorkloadsOnSecondSeed runs every workload briefly on a seed other
// than the one used while tuning, so a later claim can be checked on it.
func TestWorkloadsOnSecondSeed(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			res := runArgs(t, "--workload", w, "--seed", "2", "--seconds", "0.2", "--trace", "0")
			if got, want := names(res.Metrics), sorted(endToEnd); !reflect.DeepEqual(got, want) {
				t.Fatalf("metrics %v, want %v", got, want)
			}
			for k, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s = %v, want > 0", k, m.Value)
				}
			}
		})
	}
}

// TestTracedRun checks that a traced run reports every per-layer metric,
// writes its span dump, and saw no shed, cached or re-run shard.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced run measures every layer")
	}
	dir := t.TempDir()
	res := runArgs(t, "--workload", "serve-mix", "--seed", "2", "--seconds", "0.2", "--trace", "1", "--out", dir)
	if got, want := names(res.Metrics), sorted(perLayer); !reflect.DeepEqual(got, want) {
		t.Fatalf("metrics %v, want %v", got, want)
	}
	for _, k := range []string{"serve.shed_total", "fabric.cache_hits", "fabric.retries", "fabric.local_runs"} {
		if v := res.Metrics[k].Value; v != 0 {
			t.Errorf("%s = %v, want 0", k, v)
		}
	}
	if v := res.Metrics["task.integral_hyperperiod_frac"].Value; v != 1 {
		t.Errorf("serve-mix task.integral_hyperperiod_frac = %v, want 1", v)
	}
	data, err := os.ReadFile(filepath.Join(dir, "spans-serve-mix-seed2.json"))
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatal(err)
	}
	// Every handler span must hang off the client or shard span whose ID
	// its request carried.
	byID := map[uint64]span{}
	for _, s := range dump.Spans {
		byID[s.ID] = s
	}
	for _, s := range dump.Spans {
		if s.Name != "serve.handler" && s.Name != "serve.shard_handler" {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || !(strings.HasPrefix(p.Name, "client.") || p.Name == "fabric.shard") {
			t.Fatalf("%s span %d has parent %d (%q)", s.Name, s.ID, s.Parent, p.Name)
		}
	}
}

// TestBenchmarkFile checks that BENCHMARK.json names the workloads and
// metrics the program reports, in the same order.
func TestBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	var workloads, e2e, layers []string
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range b.PerLayer {
		layers = append(layers, m.Name)
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"workloads", workloads, workloadNames},
		{"end_to_end", e2e, endToEnd},
		{"per_layer", layers, perLayer},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("BENCHMARK.json %s = %v, want %v", c.what, c.got, c.want)
		}
	}
}

// TestSelfTimes pins the self-time rule: a span's duration minus the
// union of its children's intervals, overlaps counted once.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "b", ID: 3, Parent: 1, Start: 30, End: 60},
		{Name: "c", ID: 4, Parent: 3, Start: 35, End: 45},
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 50, 2: 30, 3: 20, 4: 10}
	for id, w := range want {
		if got := int64(self[id]); got != w {
			t.Errorf("self time of span %d = %d, want %d", id, got, w)
		}
	}
}
