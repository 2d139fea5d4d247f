package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"topoctl/internal/dynamic"
	"topoctl/internal/geom"
	"topoctl/internal/graph"
	"topoctl/internal/metrics"
	"topoctl/internal/routing"
	"topoctl/internal/service"
	"topoctl/internal/ubg"
)

const (
	stretchT    = 1.5 // served spanner stretch bound
	expectedDeg = 8.0 // expected base degree of the uniform clouds
	clients     = 2   // closed-loop clients = keep-alive connections (nproc on the reference box)
	setupReps   = 3   // service boots per run; setup_s is their median
	hotPoolSize = 4096
	hotZipfS    = 1.2
	moveSigma   = 0.1 // Gaussian mobility step, in units of the radius
	batchOps    = 4   // moves per /mutate batch
	sampleEvery = 15  // every k-th read is re-derived after the run; odd, so /route and /distance alternate
	maxSamples  = 512 // per client
	maxReasons  = 8   // failure messages kept per client
	probePairs  = 256 // pairs per layer probe
	warmReads   = 256 // warm-up reads per client (serve-cold, churn)
	warmBatches = 16  // warm-up /mutate batches (churn)
	// churnReads is the churn reader's stream length per /mutate batch,
	// more than it can use at the measured rates (about 30 reads per
	// batch); it cycles through the stream if the writer is slower.
	churnReads = 64
)

type serveKind int

const (
	kindHot serveKind = iota
	kindCold
	kindChurn
)

// serveWorkload is one serving workload: a uniform 2-D cloud of n nodes
// at expected degree 8, served by service.New.
type serveWorkload struct {
	name   string
	n      int
	labels bool
	kind   serveKind
	// perSecond fixes the work of one run: requests per client per
	// --seconds (hot, cold) or /mutate batches per --seconds (churn).
	perSecond int
}

var (
	serveHot  = serveWorkload{name: "serve-hot", n: 4096, labels: true, kind: kindHot, perSecond: 12000}
	serveCold = serveWorkload{name: "serve-cold", n: 32768, kind: kindCold, perSecond: 250}
	churn     = serveWorkload{name: "churn", n: 4096, labels: true, kind: kindChurn, perSecond: 100}
)

type opKind uint8

const (
	opRoute opKind = iota
	opDistance
	opMutate
	numOpKinds
)

var opNames = [numOpKinds]string{"route", "distance", "mutate"}
var opPaths = [numOpKinds]string{"/route", "/distance", "/mutate"}

// request is one pre-generated client request: a read's vertex pair, or
// for /mutate the index of its body in the stream's bodies (src).
type request struct {
	kind     opKind
	src, dst int32
}

// stream is one client's pre-generated requests. Reads are 12
// pointer-free bytes each, so a long read stream adds little to the
// heap the collector paces by and nothing to its mark work.
type stream struct {
	reqs   []request
	bodies [][]byte // /mutate bodies
}

func (s *stream) read(kind opKind, src, dst int) {
	s.reqs = append(s.reqs, request{kind: kind, src: int32(src), dst: int32(dst)})
}

func (s *stream) mutate(ops []service.Op) error {
	body, err := json.Marshal(service.MutateRequest{Ops: ops})
	if err != nil {
		return err
	}
	s.reqs = append(s.reqs, request{kind: opMutate, src: int32(len(s.bodies))})
	s.bodies = append(s.bodies, body)
	return nil
}

// readBody holds a read's JSON body next to its reader, so formatting
// it when it is sent costs the one allocation bytes.NewReader would.
type readBody struct {
	r   bytes.Reader
	buf [32]byte
}

func (s *stream) body(r request) *bytes.Reader {
	if r.kind == opMutate {
		return bytes.NewReader(s.bodies[r.src])
	}
	b := new(readBody)
	out := append(b.buf[:0], `{"src":`...)
	out = strconv.AppendInt(out, int64(r.src), 10)
	out = append(out, `,"dst":`...)
	out = strconv.AppendInt(out, int64(r.dst), 10)
	b.r.Reset(append(out, '}'))
	return &b.r
}

// instanceSeed generates every serving workload's node positions. The
// topology is fixed and --seed draws only the request streams: across
// seeds, instance differences moved label size, label rebuild time and
// heap by 5-12%, more than the bounds allow.
const instanceSeed = 1

// points generates the workload's node positions.
func (w serveWorkload) points() []geom.Point {
	return geom.GeneratePoints(geom.CloudConfig{
		Kind: geom.CloudUniform, N: w.n, Dim: 2, Seed: instanceSeed,
		Side: ubg.DensitySide(w.n, 2, 1, expectedDeg),
	})
}

func uniformPair(rng *rand.Rand, n int) (int, int) {
	s := rng.Intn(n)
	d := rng.Intn(n - 1)
	if d >= s {
		d++
	}
	return s, d
}

// churnBatches draws count batches of batchOps distinct Gaussian moves,
// advancing pos (the positions the service will hold) as it goes.
func churnBatches(rng *rand.Rand, pos []geom.Point, count int) [][]service.Op {
	out := make([][]service.Op, count)
	for b := range out {
		ops := make([]service.Op, 0, batchOps)
		for len(ops) < batchOps {
			id := rng.Intn(len(pos))
			dup := false
			for _, op := range ops {
				dup = dup || op.ID == id
			}
			if dup {
				continue
			}
			p := pos[id].Clone()
			p[0] += rng.NormFloat64() * moveSigma
			p[1] += rng.NormFloat64() * moveSigma
			pos[id] = p
			ops = append(ops, service.Op{Kind: service.OpMove, ID: id, Point: p})
		}
		out[b] = ops
	}
	return out
}

// generator draws a run's request streams from the seed, one pass at a
// time: each pass's streams are generated just before the pass and
// dropped after it, so the harness holds one pass of requests while the
// service runs.
type generator struct {
	w    serveWorkload
	rng  *rand.Rand
	pool [][2]int // serve-hot's /route pairs
	zipf *rand.Zipf
	pos  []geom.Point // churn: positions after the batches drawn so far
}

func (w serveWorkload) generator(seed int64, pts []geom.Point) *generator {
	g := &generator{w: w, rng: rand.New(rand.NewSource(seed*1_000_003 + int64(w.kind)))}
	switch w.kind {
	case kindHot:
		// A fixed pool that fits the 8192-entry route cache; the warm-up
		// sends every pool pair once, so every timed /route is a hit.
		g.pool = make([][2]int, hotPoolSize)
		for i := range g.pool {
			g.pool[i][0], g.pool[i][1] = uniformPair(g.rng, w.n)
		}
		g.zipf = rand.NewZipf(g.rng, hotZipfS, 1, hotPoolSize-1)
	case kindChurn:
		g.pos = append([]geom.Point(nil), pts...)
	}
	return g
}

// alternating appends count requests alternating /route and /distance,
// with /route pairs from the pool on serve-hot and uniform pairs
// otherwise.
func (g *generator) alternating(s *stream, count int) {
	s.reqs = slices.Grow(s.reqs, count)
	for i := range count {
		if i%2 == 0 && g.pool != nil {
			p := g.pool[g.zipf.Uint64()]
			s.read(opRoute, p[0], p[1])
			continue
		}
		src, dst := uniformPair(g.rng, g.w.n)
		s.read(opKind(i%2), src, dst)
	}
}

// pass draws the streams of one pass, the warm-up or a timed one: one
// per client, except on churn, where client 0 sends the /mutate batches
// (also returned as ops) and client 1 reads.
func (g *generator) pass(warm bool, seconds int) (st [clients]*stream, batches [][]service.Op, err error) {
	for c := range st {
		st[c] = &stream{}
	}
	switch {
	case g.w.kind == kindHot && warm:
		for i, p := range g.pool {
			st[i%clients].read(opRoute, p[0], p[1])
		}
	case g.w.kind == kindChurn:
		count := g.w.perSecond * seconds
		if warm {
			count = warmBatches
		}
		batches = churnBatches(g.rng, g.pos, count)
		for _, ops := range batches {
			if err := st[0].mutate(ops); err != nil {
				return st, nil, err
			}
		}
		if warm {
			g.alternating(st[1], warmReads)
		} else {
			g.alternating(st[1], churnReads*count)
		}
	default:
		count := g.w.perSecond * seconds
		if warm {
			count = warmReads
		}
		for c := range st {
			g.alternating(st[c], count)
		}
	}
	return st, batches, nil
}

// server is one booted service behind a loopback HTTP listener.
type server struct {
	svc    *service.Service
	srv    *http.Server
	served chan error
	base   string
	tr     atomic.Pointer[tracer] // non-nil while a traced pass runs
}

// boot generates the points and starts the service; it returns once the
// first request can be served.
func (w serveWorkload) boot() (*server, []geom.Point, error) {
	pts := w.points()
	svc, err := service.New(pts, service.Options{T: stretchT, Labels: w.labels, Seed: instanceSeed})
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, nil, err
	}
	s := &server{svc: svc, served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	h := svc.Handler()
	s.srv = &http.Server{Handler: http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		tr := s.tr.Load()
		var id int64
		if tr != nil {
			id, _ = strconv.ParseInt(r.Header.Get(reqIDHeader), 10, 64)
		}
		if id == 0 {
			h.ServeHTTP(rw, r)
			return
		}
		begin := time.Now()
		h.ServeHTTP(rw, r)
		end := time.Now()
		tr.record(span{Trace: id, ID: -id, Parent: id, Name: "service.handler", Start: tr.since(begin), End: tr.since(end)})
	})}
	go func() { s.served <- s.srv.Serve(ln) }()
	probe := &http.Client{Transport: &http.Transport{}}
	defer probe.CloseIdleConnections()
	resp, err := probe.Get(s.base + "/readyz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("readyz: %s", resp.Status)
		}
	}
	if err != nil {
		s.close()
		return nil, nil, err
	}
	return s, pts, nil
}

// close stops the listener, waits for the serve loop to return and stops
// the service's writer.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	<-s.served
	s.svc.Close()
}

func (s *server) stats(c *http.Client) (service.Stats, error) {
	var st service.Stats
	resp, err := c.Get(s.base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// reply is the union of the /route, /distance and /mutate fields the
// clients check.
type reply struct {
	Delivered bool    `json:"delivered"`
	Cost      float64 `json:"cost"`
	Stretch   float64 `json:"stretch"`
	Distance  float64 `json:"distance"`
	Reachable bool    `json:"reachable"`
	Version   uint64  `json:"version"`
	Applied   int     `json:"applied"`
}

// sample is a read answer kept for re-derivation after the timed phase,
// against the topology version named in the reply.
type sample struct {
	req request
	rep reply
}

// clientResult is what one closed-loop client observed.
type clientResult struct {
	lat       [numOpKinds][]float64 // ms, untraced requests
	traced    [numOpKinds][]float64 // ms, traced requests (traced pass only)
	attempted int64
	failed    int64
	applied   int64
	reasons   []string // the first maxReasons failures
	samples   []sample
}

// fail counts a failed request: a transport error, a non-200 reply, a
// short /mutate or a wrong answer.
func (r *clientResult) fail(format string, args ...any) {
	r.failed++
	if len(r.reasons) < maxReasons {
		r.reasons = append(r.reasons, fmt.Sprintf(format, args...))
	}
}

type phase struct {
	wall time.Duration // writer's wall time on churn, else both clients'
	res  [clients]*clientResult
}

func (p *phase) lat(k opKind) []float64 {
	var out []float64
	for _, r := range p.res {
		out = append(out, r.lat[k]...)
	}
	return out
}

func (p *phase) tracedLat(k opKind) []float64 {
	var out []float64
	for _, r := range p.res {
		out = append(out, r.traced[k]...)
	}
	return out
}

// replies is the number of requests that got a 200 reply.
func (p *phase) replies() int {
	n := 0
	for k := range numOpKinds {
		n += len(p.lat(k))
	}
	return n
}

// account adds the phase's operations to the report; every failure
// makes the run fail.
func (p *phase) account(rep *report, name string) {
	for _, r := range p.res {
		rep.ops(r.attempted, r.failed)
		for _, m := range r.reasons {
			rep.check(false, "%s: %s", name, m)
		}
	}
}

// driver sends requests over one shared keep-alive transport.
type driver struct {
	s    *server
	http *http.Client
}

func newDriver(s *server) *driver {
	return &driver{s: s, http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true,
	}}}
}

// do sends one request, records its latency and checks what can be
// checked inline; with keep it also keeps the answer for re-derivation.
// A non-nil tr traces the request.
func (d *driver) do(st *stream, r request, res *clientResult, tr *tracer, keep bool) {
	res.attempted++
	name := opNames[r.kind]
	req, err := http.NewRequest(http.MethodPost, d.s.base+opPaths[r.kind], st.body(r))
	if err != nil {
		res.fail("%s: %v", name, err)
		return
	}
	var id int64
	if tr != nil {
		id = tr.newID()
		req.Header.Set(reqIDHeader, strconv.FormatInt(id, 10))
	}
	begin := time.Now()
	resp, err := d.http.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	if tr != nil {
		tr.record(span{Trace: id, ID: id, Name: "client." + name, Start: tr.since(begin), End: tr.since(end)})
	}
	if err != nil {
		res.fail("%s: %v", name, err)
		return
	}
	if resp.StatusCode != http.StatusOK {
		res.fail("%s: %s: %s", name, resp.Status, bytes.TrimSpace(body))
		return
	}
	if tr != nil {
		res.traced[r.kind] = append(res.traced[r.kind], ms(end.Sub(begin)))
	} else {
		res.lat[r.kind] = append(res.lat[r.kind], ms(end.Sub(begin)))
	}
	var rp reply
	if err := json.Unmarshal(body, &rp); err != nil {
		res.fail("%s reply does not decode: %v", name, err)
		return
	}
	switch r.kind {
	case opRoute:
		if rp.Delivered && rp.Stretch > stretchT+1e-9 {
			res.fail("route %d->%d stretch %v > t", r.src, r.dst, rp.Stretch)
		}
	case opMutate:
		res.applied += int64(rp.Applied)
		if rp.Applied != batchOps {
			res.fail("mutate applied %d of %d ops", rp.Applied, batchOps)
		}
	}
	if keep && len(res.samples) < maxSamples {
		res.samples = append(res.samples, sample{req: r, rep: rp})
	}
}

// traceSome returns tr for about half the requests of a traced pass and
// nil for the rest, which run untraced in the same pass, so the tracing
// overhead compares requests drawn from one distribution at the same
// time. The choice hashes the request's position (splitmix64) rather
// than taking every other one: churn's label rebuilds recur every 32
// /mutate batches and would all land in one half.
func traceSome(tr *tracer, i int) *tracer {
	x := uint64(i) + 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	if (x^x>>31)&1 == 1 {
		return tr
	}
	return nil
}

// readPass runs both clients' read streams to the end.
func (d *driver) readPass(st [clients]*stream, tr *tracer, sampleReads bool) *phase {
	p := &phase{}
	var wg sync.WaitGroup
	begin := time.Now()
	for c := range clients {
		p.res[c] = &clientResult{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res, s := p.res[c], st[c]
			for i, r := range s.reqs {
				d.do(s, r, res, traceSome(tr, i), sampleReads && i%sampleEvery == 0)
			}
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(begin)
	return p
}

// churnPass runs client 0's /mutate batches while client 1 reads until
// the writer finishes.
func (d *driver) churnPass(st [clients]*stream, tr *tracer, sampleReads bool) *phase {
	p := &phase{res: [clients]*clientResult{{}, {}}}
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		reads := st[1]
		for i := 0; !done.Load(); i++ {
			d.do(reads, reads.reqs[i%len(reads.reqs)], p.res[1], traceSome(tr, i), sampleReads && i%sampleEvery == 0)
		}
	}()
	begin := time.Now()
	writes := st[0]
	for i, r := range writes.reqs {
		d.do(writes, r, p.res[0], traceSome(tr, i), false)
	}
	p.wall = time.Since(begin)
	done.Store(true)
	wg.Wait()
	return p
}

// versions replays the topology versions the service published: version
// 1 is the boot topology and every /mutate batch publishes the next, so a
// private dynamic.Engine applying the same batches in order passes
// through the same versions. Versions are visited in increasing order.
type versions struct {
	eng      *dynamic.Engine
	batches  [][]service.Op
	version  uint64
	base, sp *graph.Frozen
}

func newVersions(pts []geom.Point, batches [][]service.Op) (*versions, error) {
	eng, err := dynamic.New(pts, dynamic.Options{T: stretchT})
	if err != nil {
		return nil, err
	}
	v := &versions{eng: eng, batches: batches, version: 1}
	_, _, v.base, v.sp = eng.ExportFrozen()
	return v, nil
}

// at advances to version and returns its base graph and spanner; ok is
// false for a version already passed or beyond the batches.
func (v *versions) at(version uint64) (base, sp *graph.Frozen, ok bool) {
	for v.version < version && v.version <= uint64(len(v.batches)) {
		v.eng.Begin()
		for _, op := range v.batches[v.version-1] {
			if err := v.eng.Move(op.ID, op.Point); err != nil {
				return nil, nil, false
			}
		}
		v.eng.Commit()
		_, _, v.base, v.sp = v.eng.ExportFrozen()
		v.version++
	}
	return v.base, v.sp, v.version == version
}

// verify re-derives every sampled answer with a direct bidirectional
// search on the topology version that produced it; at returns that
// version's graphs and must be asked in increasing version order.
func verify(p *phase, at func(uint64) (base, sp *graph.Frozen, ok bool), rep *report) {
	srch := graph.NewSearcher(0)
	var checked [numOpKinds]int
	for _, r := range p.res {
		for _, s := range r.samples {
			checked[s.req.kind]++
			base, sp, ok := at(s.rep.Version)
			src, dst := int(s.req.src), int(s.req.dst)
			if !rep.check(ok, "%s %d->%d answered at version %d, which the service never published", opNames[s.req.kind], src, dst, s.rep.Version) {
				continue
			}
			cost, reach := srch.DijkstraTarget(sp, src, dst, graph.Inf)
			switch s.req.kind {
			case opRoute:
				rep.check(reach == s.rep.Delivered, "route %d->%d delivered %v, search says %v", src, dst, s.rep.Delivered, reach)
				if reach && s.rep.Delivered {
					rep.check(near(cost, s.rep.Cost), "route %d->%d cost %v, search %v", src, dst, s.rep.Cost, cost)
					b, _ := srch.DijkstraTarget(base, src, dst, graph.Inf)
					rep.check(near(cost/b, s.rep.Stretch), "route %d->%d stretch %v, search %v", src, dst, s.rep.Stretch, cost/b)
				}
			case opDistance:
				rep.check(reach == s.rep.Reachable, "distance %d->%d reachable %v, search says %v", src, dst, s.rep.Reachable, reach)
				if reach && s.rep.Reachable {
					rep.check(near(cost, s.rep.Distance), "distance %d->%d = %v, search %v", src, dst, s.rep.Distance, cost)
				}
			}
		}
	}
	rep.text("re-derived %d /route and %d /distance answers", checked[opRoute], checked[opDistance])
}

// near reports whether two path costs agree to rounding (equal
// infinities included).
func near(a, b float64) bool { return a == b || math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(a)) }

func (w serveWorkload) run(cfg config, rep *report) error {
	// Set-up, repeated: setup_s is the median boot time.
	var boots []float64
	var s *server
	var pts []geom.Point
	for i := range setupReps {
		runtime.GC()
		begin := time.Now()
		var err error
		s, pts, err = w.boot()
		if err != nil {
			return fmt.Errorf("boot: %w", err)
		}
		boots = append(boots, time.Since(begin).Seconds())
		if i < setupReps-1 {
			s.close()
		}
	}
	defer s.close()
	rep.endToEnd("setup_s", median(boots), "s")
	rep.endToEnd("heap_mb", liveHeapMB(), "MB")

	gen := w.generator(cfg.seed, pts)
	pass := passRunner(w.kind)
	d := newDriver(s)
	defer d.http.CloseIdleConnections()
	st, replay, err := gen.pass(true, cfg.seconds)
	if err != nil {
		return err
	}
	pass(d, st, nil, false).account(rep, "warm-up")

	st, timedOps, err := gen.pass(false, cfg.seconds)
	if err != nil {
		return err
	}
	replay = append(replay, timedOps...)
	before, err := s.stats(d.http)
	if err != nil {
		return err
	}
	runtime.GC()
	mem0 := readMem()
	p := pass(d, st, nil, true)
	mem1 := readMem()
	after, err := s.stats(d.http)
	if err != nil {
		return err
	}
	final := s.svc.Snapshot()
	p.account(rep, "timed")

	var attempted, applied int64
	for _, r := range p.res {
		attempted += r.attempted
		applied += r.applied
	}
	route, dist, mut := p.lat(opRoute), p.lat(opDistance), p.lat(opMutate)
	if w.kind == kindChurn {
		rep.endToEnd("ops_per_s", float64(applied)/p.wall.Seconds(), "1/s")
		rep.endToEnd("primary_ms", median(mut), "ms")
		rep.endToEnd("secondary_ms", median(route), "ms")
		rep.info("mutate_p50_ms", median(mut), "ms")
		rep.info("mutate_p99_ms", quantile(mut, 0.99), "ms")
		rep.text("mutate batches %d, reads %d", len(mut), len(route)+len(dist))
	} else {
		rep.endToEnd("ops_per_s", float64(p.replies())/p.wall.Seconds(), "1/s")
		rep.endToEnd("primary_ms", median(route), "ms")
		rep.endToEnd("secondary_ms", median(dist), "ms")
		rep.text("requests %d", attempted)
	}
	rep.info("route_p50_ms", median(route), "ms")
	rep.info("distance_p50_ms", median(dist), "ms")
	rep.info("service.route_p99_ms", quantile(route, 0.99), "ms")
	rep.info("service.distance_p99_ms", quantile(dist, 0.99), "ms")

	reportRuntime(rep, mem0, mem1, attempted)
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	rep.layerMetric("service.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	lh, lf := after.LabelHits-before.LabelHits, after.LabelFallbacks-before.LabelFallbacks
	rep.layerMetric("labels.hit_ratio", ratio(lh, lh+lf), "ratio")
	rep.info("service.allocs_per_req", float64(mem1.mallocs-mem0.mallocs)/float64(attempted), "count")

	if w.kind == kindChurn {
		vs, err := newVersions(pts, replay)
		if err != nil {
			return err
		}
		verify(p, vs.at, rep)
		base, sp, ok := vs.at(final.Version)
		rep.check(ok && sameGraph(base, final.Base) && sameGraph(sp, final.Spanner),
			"served topology at version %d differs from the replayed engine's", final.Version)
		checkServedBase(final, rep)
	} else {
		verify(p, func(v uint64) (*graph.Frozen, *graph.Frozen, bool) {
			return final.Base, final.Spanner, v == final.Version
		}, rep)
	}

	if !cfg.trace {
		return nil
	}
	// The traced pass traces about half the requests (traceSome), so the
	// overhead is measured within one pass.
	st, _, err = gen.pass(false, cfg.seconds)
	if err != nil {
		return err
	}
	tr := newTracer()
	s.tr.Store(tr)
	tp := pass(d, st, tr, false)
	s.tr.Store(nil)
	tp.account(rep, "traced")
	primary := opRoute
	if w.kind == kindChurn {
		primary = opMutate
	}
	reportOverhead(rep, tp, primary)
	reportWire(rep, tr)
	probeRoutes(final, cfg.seed, tr, rep)

	in := layerInput{points: pts, base: final.Base, spanner: final.Spanner, seed: cfg.seed, labels: w.labels}
	if w.kind == kindChurn {
		in.replay, in.replayLabels = replay, true
	} else {
		pos := append([]geom.Point(nil), pts...)
		in.replay = churnBatches(rand.New(rand.NewSource(cfg.seed)), pos, replayBatches)
	}
	probeLayers(in, tr, rep)
	zeroLayers(rep, "core.", "dist.")
	return finishTrace(tr, rep, fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
}

// passRunner returns the pass runner of a workload kind: churn's writer
// beside a reader, or two readers.
func passRunner(kind serveKind) func(d *driver, st [clients]*stream, tr *tracer, sampleReads bool) *phase {
	if kind == kindChurn {
		return (*driver).churnPass
	}
	return (*driver).readPass
}

// replayBatches is the length of the dynamic probe's op stream on the
// read-only workloads (churn replays its own writes).
const replayBatches = 256

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// checkServedBase checks the served topology after churn: the base graph
// equals ubg.BuildRadius on the live points and the spanner's exact
// stretch is at most t.
func checkServedBase(snap *service.Snapshot, rep *report) {
	var live []geom.Point
	for i, p := range snap.Points {
		rep.check(snap.Alive[i], "slot %d departed under move-only churn", i)
		live = append(live, p)
	}
	want, err := ubg.BuildRadius(live, 1)
	rep.check(err == nil, "ubg.BuildRadius: %v", err)
	if err == nil {
		rep.check(sameGraph(want, snap.Base), "served base graph differs from ubg.BuildRadius on the live points")
	}
	st := metrics.Stretch(snap.Base, snap.Spanner)
	rep.check(st <= stretchT+1e-9, "served spanner stretch %v > t", st)
	rep.text("served base verified against ubg.BuildRadius; exact stretch %.4f", st)
}

// sameGraph reports whether a and b have the same vertices, edges and
// weights.
func sameGraph(a, b graph.Topology) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for u := range a.N() {
		for _, h := range a.Neighbors(u) {
			w, ok := b.EdgeWeight(u, h.To)
			if !ok || math.Abs(w-h.W) > 1e-12 {
				return false
			}
		}
	}
	return true
}

// reportOverhead prints the tracing overhead: the traced requests'
// primary p50 minus the untraced ones' of the same pass.
func reportOverhead(rep *report, p *phase, primary opKind) {
	p0, p1 := median(p.lat(primary)), median(p.tracedLat(primary))
	rep.info("trace.overhead_"+opNames[primary]+"_p50_ms", p1-p0, "ms")
	rep.layerMetric("trace.overhead_pct", 100*(p1-p0)/p0, "%")
}

// reportWire splits client latency into handler time and the rest
// (transport, HTTP and JSON framing, scheduling) from the traced
// requests.
func reportWire(rep *report, tr *tracer) {
	tr.mu.Lock()
	handler := map[int64]int64{}
	for _, s := range tr.spans {
		if s.Name == "service.handler" {
			handler[s.Trace] = s.End - s.Start
		}
	}
	var hd, transport []float64
	for _, s := range tr.spans {
		if h, ok := handler[s.ID]; ok && s.Parent == 0 {
			hd = append(hd, float64(h)/1e3)
			transport = append(transport, float64(s.End-s.Start-h)/1e3)
		}
	}
	tr.mu.Unlock()
	rep.info("service.handler_us", median(hd), "us")
	rep.info("service.transport_us", median(transport), "us")
}

// probeRoutes times Snapshot.Route on the final snapshot for fresh pairs,
// once as a miss and once as a hit.
func probeRoutes(snap *service.Snapshot, seed int64, tr *tracer, rep *report) {
	parent, end := tr.start("probe.service.route", 0)
	rng := rand.New(rand.NewSource(seed + 17))
	var hit, miss []float64
	for range probePairs {
		s, d := uniformPair(rng, len(snap.Alive))
		for range 2 {
			_, endOne := tr.start("service.Snapshot.Route", parent)
			begin := time.Now()
			res, err := snap.Route(routing.SchemeShortestPath, s, d)
			el := us(time.Since(begin))
			endOne()
			if err != nil {
				rep.check(false, "Snapshot.Route(%d,%d): %v", s, d, err)
				break
			}
			if res.Cached {
				hit = append(hit, el)
			} else {
				miss = append(miss, el)
			}
		}
	}
	end()
	rep.info("service.route_hit_us", median(hit), "us")
	rep.info("service.route_miss_us", median(miss), "us")
}
