package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"rtdvs/internal/experiment"
	"rtdvs/internal/fabric"
	"rtdvs/internal/fpx"
	"rtdvs/internal/obs"
	"rtdvs/internal/serve"
)

// distWorkers is the ROADMAP's two-worker rtdvs-sweep; shardSize is the
// fabric's default shard size, set explicitly so useful_frac can count
// the shards.
const (
	distWorkers = 2
	shardSize   = 4
)

// fig9Request is the Figure 9 panel of experiments in the request form
// fabric.Run takes: 10 tasks, machine 0, full WCET, default axis.
func fig9Request(seed int64) serve.SweepRequest {
	return serve.SweepRequest{NTasks: 10, Machine: "machine0", Exec: "wcet", Sets: fig9Sets, Seed: seed}
}

// distSweep runs fabric.Run over two in-process serve workers. Every pass
// gets fresh workers: the worker shard cache is keyed by the sweep's
// fingerprint, so a reused worker would answer from its cache.
type distSweep struct {
	p         params
	r         *results
	transport *http.Transport
	workers   []*server
	used      bool
	cur       atomic.Pointer[tracer]

	sweeps   []*experiment.Sweep
	inputs   []int // each pass's input draw
	problems []string
	rtt      *rttTransport // all passes' shard round trips
	rate     []float64     // shard requests completed per second, per pass
	traced   time.Duration
	counts   map[string]float64
	passes   int
	frac     float64
	fracN    int
}

func newDistSweep(p params, r *results) *distSweep {
	return &distSweep{p: p, r: r, counts: map[string]float64{}}
}

func (d *distSweep) setup(ctx context.Context) error {
	sets, err := generated(rand.New(rand.NewSource(d.p.seed)), 10, fig9Sets, 1)
	if err != nil {
		return err
	}
	d.frac, d.fracN = integralFrac(sets), len(sets)
	d.transport = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	d.rtt = &rttTransport{base: d.transport, name: "fabric.shard"}
	return d.startWorkers(ctx)
}

// startWorkers starts fresh workers, one shard at a time each, and opens
// the coordinator's connection to each.
func (d *distSweep) startWorkers(ctx context.Context) error {
	for i := 0; i < distWorkers; i++ {
		w, err := startServer(serve.Config{ShardConcurrency: 1}, &d.cur, "serve.shard_handler")
		if err != nil {
			return err
		}
		d.workers = append(d.workers, w)
		if err := warm(ctx, &http.Client{Transport: d.transport}, w.url); err != nil {
			return err
		}
	}
	d.used = false
	return nil
}

func (d *distSweep) stopWorkers() {
	for _, w := range d.workers {
		if err := w.stop(); err != nil {
			d.r.check(fmt.Sprintf("dist-sweep: stopping a worker: %v", err))
		}
	}
	d.workers = nil
	d.transport.CloseIdleConnections()
}

func (d *distSweep) pass(ctx context.Context, k int, tr *tracer) (time.Duration, error) {
	if d.used {
		d.stopWorkers()
		start := time.Now()
		if err := d.startWorkers(ctx); err != nil {
			return 0, err
		}
		d.r.addSetup(time.Since(start).Seconds())
	}
	d.used = true
	d.cur.Store(tr)
	defer d.cur.Store(nil)
	root := tr.id()
	d.rtt.tr, d.rtt.parent = tr, root
	urls := make([]string, len(d.workers))
	for i, w := range d.workers {
		urls[i] = w.url
	}
	reg := obs.NewRegistry()
	start := time.Now()
	sw, err := fabric.Run(ctx, fabric.Config{
		Sweep:     fig9Request(inputSeed(d.p.seed, k)),
		Workers:   urls,
		HTTP:      &http.Client{Transport: d.rtt},
		Registry:  reg,
		Seed:      d.p.seed,
		ShardSize: shardSize,
	})
	end := time.Now()
	tr.record("dist-sweep.sweep", root, 0, start, end)
	if tr != nil {
		d.traced += end.Sub(start)
	}
	d.passes++

	problem := ""
	if err != nil {
		problem = fmt.Sprintf("fabric.Run: %v", err)
	}
	c, err := counters(reg)
	if err != nil {
		return 0, err
	}
	for _, w := range d.workers {
		wc, err := counters(w.reg)
		if err != nil {
			return 0, err
		}
		c["shed"] += wc["rtdvs_http_shed_total"]
	}
	for k, v := range c {
		d.counts[k] += v
	}
	d.rate = append(d.rate, c["rtdvs_fabric_shards_dispatched_total"]/end.Sub(start).Seconds())
	if n := c["rtdvs_fabric_worker_cache_hits_total"]; fpx.Ne(n, 0) {
		problem = join(problem, fmt.Sprintf("%g shard responses came from a worker cache", n))
	}
	if n := c["shed"]; fpx.Ne(n, 0) {
		problem = join(problem, fmt.Sprintf("workers shed %g shard requests", n))
	}
	d.sweeps = append(d.sweeps, sw)
	d.inputs = append(d.inputs, k)
	d.problems = append(d.problems, problem)
	return end.Sub(start), nil
}

// report checks every pass's sweep against experiment.RunContext of the
// same configuration, computed once per input draw after the timed passes.
func (d *distSweep) report(ctx context.Context) error {
	r := d.r
	refs := map[int]*experiment.Sweep{}
	for i, sw := range d.sweeps {
		k := d.inputs[i]
		ref, ok := refs[k]
		if !ok {
			req := fig9Request(inputSeed(d.p.seed, k))
			cfg, err := req.Config()
			if err != nil {
				return err
			}
			if ref, err = experiment.RunContext(ctx, cfg); err != nil {
				return fmt.Errorf("reference sweep: %w", err)
			}
			refs[k] = ref
			dg, err := digestJSON(ref)
			if err != nil {
				return err
			}
			r.digest(fmt.Sprintf("dist-sweep/fig9/input%d", k), dg)
		}
		pr := d.problems[i]
		if sw != nil && !reflect.DeepEqual(sw, ref) {
			pr = join(pr, "fabric sweep differs from experiment.RunContext")
		}
		r.op(pr)
	}
	d.sweeps, d.inputs, d.problems = nil, nil, nil

	// A shard is the coordinator's only request, so all three class
	// latencies report its round trip.
	rtt := d.rtt.samples()
	for _, c := range classes {
		r.set(c+"_p50_ms", "ms", median(rtt), len(rtt))
		r.set(c+"_p99_ms", "ms", percentile(rtt, 99), len(rtt))
	}
	r.set("req_per_s", "1/s", median(d.rate), len(d.rate))
	r.set("task.integral_hyperperiod_frac", "ratio", d.frac, d.fracN)
	return nil
}

func (d *distSweep) layers(tr *tracer) {
	r := d.r
	shards := tr.durations("fabric.shard", time.Millisecond)
	r.set("fabric.shard_rtt_ms_p50", "ms", median(shards), len(shards))
	r.set("fabric.shard_rtt_ms_p99", "ms", percentile(shards, 99), len(shards))
	handler := tr.durations("serve.shard_handler", time.Millisecond)
	r.set("serve.shard_handler_ms", "ms", median(handler), len(handler))

	per := func(k string) float64 { return d.counts[k] / float64(d.passes) }
	dispatches := per("rtdvs_fabric_shards_dispatched_total")
	r.set("fabric.dispatches", "count", dispatches, d.passes)
	r.set("fabric.retries", "count", per("rtdvs_fabric_shard_retries_total"), d.passes)
	r.set("fabric.hedges", "count", per("rtdvs_fabric_shards_hedged_total"), d.passes)
	r.set("fabric.local_runs", "count", per("rtdvs_fabric_shards_local_total"), d.passes)
	r.set("fabric.cache_hits", "count", per("rtdvs_fabric_worker_cache_hits_total"), d.passes)
	r.set("serve.shed_total", "count", d.counts["shed"], d.passes)
	req := fig9Request(d.p.seed)
	cfg, _ := req.Config() // valid: the passes ran it
	njobs, _ := experiment.NumJobs(cfg)
	nshards := (njobs + shardSize - 1) / shardSize
	r.set("fabric.useful_frac", "ratio", float64(nshards)/dispatches, d.passes)
	var rttSum float64
	for _, s := range shards {
		rttSum += s
	}
	r.set("fabric.inflight_mean", "ratio", rttSum/(float64(d.traced)/float64(time.Millisecond)), len(shards))
}

func (d *distSweep) close() {
	if d.transport != nil {
		d.stopWorkers()
	}
}

// counters reads every counter of an obs registry from its text form.
func counters(reg *obs.Registry) (map[string]float64, error) {
	var b bytes.Buffer
	if err := reg.WriteText(&b); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(&b)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metric line %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}
