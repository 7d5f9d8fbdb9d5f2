package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rtdvs/internal/core"
	"rtdvs/internal/obs"
	"rtdvs/internal/serve"
	"rtdvs/internal/sim"
	"rtdvs/internal/task"
)

// The shape of one client's request cycle. The scalar requests are the
// full cross product of base-set family, paper policy and execution
// model; the batch requests split a second copy of that cross product
// into cycleBatch batches; the multi requests pair every family with the
// next (see multis). Every seed's
// cycle therefore holds the same mix of cheap and costly simulations; the
// seed draws the set variants, the batch split and the order.
const (
	cycleBatch = 6
	batchItems = 9
)

// baseSets are the hand-written integer-period sets: the paper's Table 2
// example and the quickstart and camcorder examples.
func baseSets() [][]task.Task {
	return [][]task.Task{
		task.PaperExample().Tasks(),
		{{Name: "control", Period: 33, WCET: 8}, {Name: "filter", Period: 10, WCET: 2}, {Name: "house", Period: 250, WCET: 40}},
		{{Name: "sensor", Period: 5, WCET: 3}, {Name: "stabilize", Period: 33, WCET: 6}, {Name: "servo", Period: 20, WCET: 2}},
	}
}

// variant scales a base set's periods by the integer k and its WCETs by a
// seeded factor in [0.5, 1], so periods stay integral.
func variant(rng *rand.Rand, base []task.Task, k float64) []task.Task {
	f := 0.5 + 0.5*rng.Float64()
	out := make([]task.Task, len(base))
	for i, t := range base {
		out[i] = task.Task{Name: t.Name, Period: t.Period * k, WCET: t.WCET * k * f}
	}
	return out
}

var (
	execSpecs    = []string{"wcet", "c=0.7", "uniform"}
	gangPolicies = []string{"gangStaticEDF", "gangCCEDF", "gangLAEDF"}
)

// mixRequest is one request of a client's cycle with the response body
// the server must send back.
type mixRequest struct {
	class string
	path  string
	body  []byte
	want  []byte
	sets  []*task.Set
	// items are the scalar simulations the request carries (one for the
	// scalar class, the items of a batch), and result is a scalar-class
	// request's expected sim.Result; the layer ladder times them in-process.
	items  []serve.SimulateRequest
	result *sim.Result
}

// requestGen draws the serve-mix requests from the workload seed.
type requestGen struct {
	rng *rand.Rand
	// families holds per base set the base and its variants with periods
	// scaled by 1, 2 and 3: member i of every family has the same scale.
	families [][][]task.Task
}

func newRequestGen(seed int64) *requestGen {
	g := &requestGen{rng: rand.New(rand.NewSource(seed))}
	for _, b := range baseSets() {
		fam := [][]task.Task{b}
		for k := 1; k <= 3; k++ {
			fam = append(fam, variant(g.rng, b, float64(k)))
		}
		g.families = append(g.families, fam)
	}
	return g
}

func (g *requestGen) member(family int) []task.Task {
	fam := g.families[family]
	return fam[g.rng.Intn(len(fam))]
}

// scalars draws one scalar request per (family, paper policy, execution
// model), in seeded order.
func (g *requestGen) scalars() []serve.SimulateRequest {
	var out []serve.SimulateRequest
	for f := range g.families {
		for _, p := range core.Names() {
			for _, e := range execSpecs {
				out = append(out, serve.SimulateRequest{
					Tasks: g.member(f), Machine: "machine0", Policy: p, Exec: e, Seed: g.rng.Int63n(1 << 20)})
			}
		}
	}
	g.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// multis draws one two-core request per (family pair, execution model),
// partitioned first-fit under a paper policy, and one per family pair,
// global under a gang policy with full WCET. A pair joins a set of one
// family with a set of the next. Three quarters of the class is
// partitioned so its median falls inside the partitioned requests, not on
// the step up to the costlier global ones.
func (g *requestGen) multis() []serve.SimulateRequest {
	names := core.Names()
	nf := len(g.families)
	// Both halves of a pair have the same period scale, so the joined
	// set's horizon, 20 × its longest period, covers as many releases
	// whichever member is drawn.
	pair := func(f int) []task.Task {
		i := g.rng.Intn(len(g.families[f]))
		return append(append([]task.Task(nil), g.families[f][i]...), g.families[(f+1)%nf][i]...)
	}
	var out []serve.SimulateRequest
	for f := 0; f < nf; f++ {
		for e, exec := range execSpecs {
			out = append(out, serve.SimulateRequest{Tasks: pair(f), Machine: "machine0", Exec: exec,
				Seed: g.rng.Int63n(1 << 20), Cores: 2,
				Placement: "partitioned-ff", Policy: names[(f*len(execSpecs)+e)%len(names)]})
		}
		out = append(out, serve.SimulateRequest{Tasks: pair(f), Machine: "machine0", Exec: "wcet",
			Cores: 2, Placement: "global", Policy: gangPolicies[f%len(gangPolicies)]})
	}
	return out
}

// cycle builds one client's request cycle and each request's expected
// response from an in-process simulation of the same request.
func (g *requestGen) cycle() ([]*mixRequest, error) {
	var out []*mixRequest
	for _, sr := range g.scalars() {
		res, set, err := expectScalar(sr)
		if err != nil {
			return nil, err
		}
		m := &mixRequest{class: classSimulate, path: "/v1/simulate", sets: []*task.Set{set},
			items: []serve.SimulateRequest{sr}, result: res}
		if err := m.encode(sr, res); err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	for _, mr := range g.multis() {
		mcfg, err := mr.MultiConfig()
		if err != nil {
			return nil, err
		}
		res, err := sim.RunMulti(mcfg)
		if err != nil {
			return nil, err
		}
		m := &mixRequest{class: classMulti, path: "/v1/simulate", sets: []*task.Set{mcfg.Tasks}}
		if err := m.encode(mr, res); err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	items := g.scalars()
	for i := 0; i < cycleBatch; i++ {
		m := &mixRequest{class: classBatch, path: "/v1/simulate:batch", items: items[i*batchItems : (i+1)*batchItems]}
		var resp serve.SimulateBatchResponse
		for _, sr := range m.items {
			res, set, err := expectScalar(sr)
			if err != nil {
				return nil, err
			}
			resp.Items = append(resp.Items, serve.SimulateBatchItem{Result: res})
			m.sets = append(m.sets, set)
		}
		if err := m.encode(serve.SimulateBatchRequest{Items: m.items}, resp); err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	g.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// encode sets the request body and the response body the server must
// send: the expected value encoded exactly as the server writes a 200.
func (m *mixRequest) encode(req, want any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(want); err != nil {
		return err
	}
	m.body, m.want = body, b.Bytes()
	return nil
}

func expectScalar(sr serve.SimulateRequest) (*sim.Result, *task.Set, error) {
	cfg, err := sr.Config()
	if err != nil {
		return nil, nil, err
	}
	res, err := sim.Run(cfg)
	return res, cfg.Tasks, err
}

// buildCycles draws one request cycle per client.
func buildCycles(seed int64, clients int) ([][]*mixRequest, error) {
	g := newRequestGen(seed)
	cycles := make([][]*mixRequest, clients)
	for i := range cycles {
		c, err := g.cycle()
		if err != nil {
			return nil, fmt.Errorf("building requests: %w", err)
		}
		cycles[i] = c
	}
	return cycles, nil
}

// server is an in-process serve.Server behind a loopback listener.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	reg    *obs.Registry
	served chan error
}

// startServer starts a serve.Server on a loopback port. Each request is
// recorded as a span named spanName on whatever tracer cur holds when the
// request arrives.
func startServer(cfg serve.Config, cur *atomic.Pointer[tracer], spanName string) (*server, error) {
	cfg.Registry = obs.NewRegistry()
	cfg.Logf = func(string, ...any) {}
	srv := serve.New(cfg)
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background()) // the listen error is the one to report
		return nil, err
	}
	s := &server{
		srv:    srv,
		hs:     &http.Server{Handler: handlerSpans(cur, spanName, srv.Handler())},
		url:    "http://" + ln.Addr().String(),
		reg:    cfg.Registry,
		served: make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop drains the HTTP server and the service and waits for both.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, s.srv.Shutdown(ctx))
}

// warm opens the client's connection to the server with a health check.
func warm(ctx context.Context, c *http.Client, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return nil
}

// serveMix drives an in-process serve.Server as a closed loop: nproc
// clients, one keep-alive connection each, each repeating its own seeded
// request cycle. A pass is every client completing its cycle once.
type serveMix struct {
	p       params
	r       *results
	cycles  [][]*mixRequest
	srv     *server
	clients []*http.Client
	cur     atomic.Pointer[tracer]

	lat    map[string][]float64 // client round trips by class, ms
	rate   []float64            // completed requests per second, per pass
	reqs   int
	shed   int
	digest string
}

func newServeMix(p params, r *results) *serveMix {
	return &serveMix{p: p, r: r, lat: map[string][]float64{}}
}

func (s *serveMix) setup(ctx context.Context) error {
	cycles, err := buildCycles(s.p.seed, s.p.nproc)
	if err != nil {
		return err
	}
	s.cycles = cycles
	var all []byte
	for _, c := range cycles {
		for _, m := range c {
			all = append(all, m.want...)
		}
	}
	s.digest = digestBytes(all)

	if s.srv, err = startServer(serve.Config{}, &s.cur, "serve.handler"); err != nil {
		return err
	}
	s.clients = make([]*http.Client, s.p.nproc)
	for i := range s.clients {
		s.clients[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		if err := warm(ctx, s.clients[i], s.srv.url); err != nil {
			return err
		}
	}
	return nil
}

// clientLog is what one client goroutine records during a pass.
type clientLog struct {
	lat      map[string][]float64
	outcomes []string // one per request: "" or what went wrong
	shed     int
}

// pass ignores the input draw: the cycles already spread every class over
// its whole request mix.
func (s *serveMix) pass(ctx context.Context, _ int, tr *tracer) (time.Duration, error) {
	s.cur.Store(tr)
	defer s.cur.Store(nil)
	root := tr.id()
	logs := make([]clientLog, len(s.clients))
	var wg sync.WaitGroup
	start := time.Now()
	for ci := range s.clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			lg := &logs[ci]
			lg.lat = map[string][]float64{}
			for _, m := range s.cycles[ci] {
				s.do(ctx, s.clients[ci], m, tr, root, lg)
			}
		}(ci)
	}
	wg.Wait()
	end := time.Now()
	tr.record("serve-mix.pass", root, 0, start, end)
	n := 0
	for _, lg := range logs {
		for _, c := range classes {
			s.lat[c] = append(s.lat[c], lg.lat[c]...)
		}
		s.shed += lg.shed
		for _, o := range lg.outcomes {
			s.r.op(o)
		}
		n += len(lg.outcomes)
	}
	s.reqs += n
	s.rate = append(s.rate, float64(n)/end.Sub(start).Seconds())
	return end.Sub(start), nil
}

// do sends one request and checks the reply against the expected body.
// Every request, failed or not, adds one latency sample.
func (s *serveMix) do(ctx context.Context, c *http.Client, m *mixRequest, tr *tracer, root uint64, lg *clientLog) {
	id := tr.id()
	start := time.Now()
	problem := func() string {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.srv.url+m.path, bytes.NewReader(m.body))
		if err != nil {
			return err.Error()
		}
		req.Header.Set("Content-Type", "application/json")
		if tr != nil {
			req.Header.Set(requestIDHeader, strconv.FormatUint(id, 10))
		}
		resp, err := c.Do(req)
		if err != nil {
			return err.Error()
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case err != nil:
			return err.Error()
		case resp.StatusCode == http.StatusTooManyRequests:
			lg.shed++
			return fmt.Sprintf("%s %s: shed with 429", m.class, m.path)
		case resp.StatusCode != http.StatusOK:
			return fmt.Sprintf("%s %s: status %d: %s", m.class, m.path, resp.StatusCode, body)
		case !bytes.Equal(body, m.want):
			return fmt.Sprintf("%s %s: response differs from the in-process simulation", m.class, m.path)
		}
		return ""
	}()
	end := time.Now()
	tr.record("client."+m.class, id, root, start, end)
	lg.lat[m.class] = append(lg.lat[m.class], float64(end.Sub(start))/float64(time.Millisecond))
	lg.outcomes = append(lg.outcomes, problem)
}

func (s *serveMix) report(_ context.Context) error {
	r := s.r
	for _, c := range classes {
		r.set(c+"_p50_ms", "ms", median(s.lat[c]), len(s.lat[c]))
		r.set(c+"_p99_ms", "ms", percentile(s.lat[c], 99), len(s.lat[c]))
	}
	r.set("req_per_s", "1/s", median(s.rate), len(s.rate))
	var sets []*task.Set
	for _, c := range s.cycles {
		for _, m := range c {
			sets = append(sets, m.sets...)
		}
	}
	r.set("task.integral_hyperperiod_frac", "ratio", integralFrac(sets), len(sets))
	r.digest("serve-mix", s.digest)
	return nil
}

func (s *serveMix) layers(tr *tracer) {
	r := s.r
	spans := tr.byID()
	handler := map[string][]float64{}
	var transport []float64
	for _, h := range tr.named("serve.handler") {
		parent, ok := spans[h.Parent]
		if !ok {
			continue
		}
		c := parent.Name[len("client."):]
		handler[c] = append(handler[c], float64(h.dur())/float64(time.Microsecond))
		if c == classSimulate {
			transport = append(transport, float64(parent.dur()-h.dur())/float64(time.Microsecond))
		}
	}
	for _, c := range classes {
		r.set("serve."+c+"_handler_us", "us", median(handler[c]), len(handler[c]))
	}
	r.set("serve.transport_us", "us", median(transport), len(transport))

	var total, n float64
	for _, c := range classes {
		var b, k float64
		for _, cyc := range s.cycles {
			for _, m := range cyc {
				if m.class == c {
					b += float64(len(m.want))
					k++
				}
			}
		}
		r.set("serve."+c+"_response_bytes", "bytes", b/k, int(k))
		total, n = total+b, n+k
	}
	r.set("serve.response_bytes", "bytes", total/n, int(n))
	r.set("serve.shed_total", "count", float64(s.shed), s.reqs)
}

func (s *serveMix) close() {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	s.clients = nil
	if s.srv != nil {
		if err := s.srv.stop(); err != nil {
			s.r.check(fmt.Sprintf("serve-mix: stopping the server: %v", err))
		}
		s.srv = nil
	}
}
