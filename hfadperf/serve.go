package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/hfad"
	"repro/internal/blockdev"
	"repro/internal/server"
	"repro/internal/workload"
)

// Request classes of the serve workload. Appends travel on the write
// connection; reads and finds share the read connection.
const (
	clsRead = iota
	clsWrite
	clsQuery
	numClasses
)

var classNames = [numClasses]string{"read", "write", "query"}

// handlerTimer wraps the server's HTTP handler. With a tracer it records
// one span per request, parented to the client span its connection has in
// flight.
type handlerTimer struct {
	next http.Handler
	tr   *tracer
	cur  [2]atomic.Uint64 // client span in flight: [0] write, [1] read connection
}

func classOf(path string) int {
	switch {
	case strings.HasSuffix(path, "/append"):
		return clsWrite
	case strings.HasSuffix(path, "/read"):
		return clsRead
	default:
		return clsQuery
	}
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.tr == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	cls := classOf(r.URL.Path)
	h.tr.add(0, h.cur[connOf(cls)].Load(), "server."+classNames[cls]+"_handler", t0, time.Now())
}

func connOf(cls int) int {
	if cls == clsWrite {
		return 0
	}
	return 1
}

// serveOp is one generated request.
type serveOp struct {
	cls  int
	obj  int           // object index (Zipf rank)
	due  time.Duration // offset from the rung's start
	sel  int           // find: selective tag
	size uint64        // append: acknowledged size
	got  []byte        // read: bytes returned
	oids []uint64      // find: OIDs returned
	lat  sample        // from due time (see runRung), ns since the run epoch
	ok   bool
}

// rung is one offered rate of the ladder, or one probe slice.
type rung struct {
	rate    int
	start   int64 // ns since the run epoch
	dur     time.Duration
	ops     []*serveOp
	backlog int  // ops still unsent when the rung ended
	ok      bool // met the latency limit
	lags    []time.Duration
}

// window is the slice of a rung over which the reported figures are
// taken before their median across the rung: a stall or a burst of CPU
// steal then moves one window, not the run's figure.
const window = time.Second

// windowed splits the rung's sent ops into whole windows by when they
// ended, or by when they were due if byDue, and returns f of each.
func (r *rung) windowed(byDue bool, f func([]*serveOp) float64) []float64 {
	var wins [][]*serveOp
	for _, op := range r.ops {
		if op.lat.end == 0 {
			continue
		}
		at := op.lat.end - r.start
		if byDue {
			at = int64(op.due)
		}
		i := int(at / int64(window))
		for len(wins) <= i {
			wins = append(wins, nil)
		}
		wins[i] = append(wins[i], op)
	}
	n := int(r.dur / window)
	out := make([]float64, 0, n)
	for i := 0; i < n && i < len(wins); i++ {
		out = append(out, f(wins[i]))
	}
	return out
}

// serveHarness is the server under test and its two client connections.
type serveHarness struct {
	v       *volume
	o       *oracle
	srv     *server.Server
	hs      *http.Server
	timer   *handlerTimer
	done    chan struct{}
	clients [2]*server.Client // [0] write, [1] read connection
	oids    []hfad.OID        // object index -> OID
}

func (e *env) startServe(c *corpus) (*serveHarness, error) {
	cfg := e.spec.Serve
	v, o, err := e.preload(c, cfg.Objects, cfg.PreloadBatch, false)
	if err != nil {
		return nil, err
	}
	h := &serveHarness{v: v, o: o, done: make(chan struct{})}
	h.oids = make([]hfad.OID, cfg.Objects)
	for oid, i := range o.index {
		h.oids[i] = oid
	}
	h.srv = server.New(v.st, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		v.st.Close()
		return nil, err
	}
	h.timer = &handlerTimer{next: h.srv.Handler()}
	h.hs = &http.Server{Handler: h.timer}
	go func() {
		defer close(h.done)
		h.hs.Serve(ln)
	}()
	for i := range h.clients {
		h.clients[i] = server.NewClient(ln.Addr().String())
		h.clients[i].MaxRetries = 0 // a 429 is a refused op, not latency
	}
	// Warm-up: open both keep-alive connections.
	if _, err := h.clients[1].Read(uint64(h.oids[0]), 0, 1); err != nil {
		h.stop()
		return nil, err
	}
	if _, err := h.clients[0].Stat(uint64(h.oids[0])); err != nil {
		h.stop()
		return nil, err
	}
	return h, nil
}

// stopHTTP stops accepting requests and waits for the handlers; the load
// has stopped, so none can be in flight for long.
func (h *serveHarness) stopHTTP() {
	h.hs.Shutdown(context.Background())
	<-h.done
}

// stop shuts everything down cleanly.
func (h *serveHarness) stop() {
	h.stopHTTP()
	h.srv.Shutdown(context.Background())
}

// genRung draws a rung's requests: Poisson arrivals at rate, op classes
// and Zipf targets from workload.NewMix.
func (e *env) genRung(seed uint64, rate int, dur time.Duration) *rung {
	cfg := e.spec.Serve
	mix := workload.NewMix(seed, uint64(cfg.Objects), workload.MixConfig{
		Reads: cfg.Mix.Reads, Writes: cfg.Mix.Appends, Queries: cfg.Mix.Finds})
	rng := workload.NewRng(seed ^ 0xa11)
	r := &rung{rate: rate}
	var t time.Duration
	for {
		t += time.Duration(rng.ExpFloat64() / float64(rate) * float64(time.Second))
		if t >= dur {
			return r
		}
		kind, rank := mix.Next()
		op := &serveOp{obj: int(rank), due: t}
		switch kind {
		case workload.OpRead:
			op.cls = clsRead
		case workload.OpWrite:
			op.cls = clsWrite
		default:
			op.cls = clsQuery
			op.sel = int(rank) % cfg.Sels
		}
		r.ops = append(r.ops, op)
	}
}

// appendChunk is the deterministic payload of object oid's k-th append.
func (e *env) appendChunk(oid hfad.OID, k int) []byte {
	return workload.NewRng(e.seed ^ uint64(oid)<<20 ^ uint64(k)).Bytes(e.spec.Serve.AppendBytes)
}

// runRung sends the rung's requests open-loop: each connection's sender
// sends every request at its due time, or as soon as the previous one on
// that connection returns. Latency runs from the due time.
func (e *env) runRung(h *serveHarness, r *rung, epoch time.Time, appends map[hfad.OID]int, fails *failures) {
	start := time.Now()
	r.start = int64(start.Sub(epoch))
	r.dur = e.rungDur(r.rate)
	end := start.Add(r.dur)
	var lists [2][]*serveOp
	for _, op := range r.ops {
		lists[connOf(op.cls)] = append(lists[connOf(op.cls)], op)
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		backlog atomic.Int64
	)
	for conn := range lists {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			var lags []time.Duration
			for i, op := range lists[conn] {
				due := start.Add(op.due)
				now := time.Now()
				if now.After(end) {
					backlog.Add(int64(len(lists[conn]) - i))
					break
				}
				// Latency runs from the due time when the request waited
				// for the connection; when the sender was idle and overslept
				// (timer granularity), from when it actually left, and the
				// oversleep is the generator's lag.
				from := due
				if now.Before(due) {
					time.Sleep(due.Sub(now))
					now = time.Now()
					lags = append(lags, now.Sub(due))
					from = now
				}
				e.send(h, op, epoch, from, now, appends, fails)
			}
			mu.Lock()
			r.lags = append(r.lags, lags...)
			mu.Unlock()
		}(conn)
	}
	wg.Wait()
	r.backlog = int(backlog.Load())
}

// runProbe sends a probe slice's requests one at a time, each as soon as
// the previous one returns, until the slice's time is up: the latency of
// a request to a server with nothing else to do. Requests left when the
// time is up are not sent.
func (e *env) runProbe(h *serveHarness, r *rung, epoch time.Time, appends map[hfad.OID]int, fails *failures) {
	start := time.Now()
	r.start = int64(start.Sub(epoch))
	r.dur = e.probeDur()
	end := start.Add(r.dur)
	for _, op := range r.ops {
		now := time.Now()
		if now.After(end) {
			break
		}
		e.send(h, op, epoch, now, now, appends, fails)
	}
}

// send makes op's request on its class's connection, starting at now, and
// records its latency from from. appends counts each object's
// acknowledged appends; only the connection that carries appends touches
// it.
func (e *env) send(h *serveHarness, op *serveOp, epoch, from, now time.Time, appends map[hfad.OID]int, fails *failures) {
	cfg := e.spec.Serve
	conn := connOf(op.cls)
	c := h.clients[conn]
	var sp uint64
	if h.timer.tr != nil {
		sp = h.timer.tr.newID()
		h.timer.cur[conn].Store(sp)
	}
	oid := h.oids[op.obj]
	var err error
	switch op.cls {
	case clsRead:
		op.got, err = c.Read(uint64(oid), 0, uint64(cfg.ReadBytes))
	case clsWrite:
		k := appends[oid]
		var resp *server.AppendResp
		if resp, err = c.Append(uint64(oid), e.appendChunk(oid, k)); err == nil {
			op.size = resp.Size
			appends[oid] = k + 1
		} else {
			appends[oid] = -1 << 30 // unknown from here on
		}
	case clsQuery:
		var resp *server.OIDsResp
		resp, err = c.Find(&server.FindReq{
			Pairs: []server.TagPair{{Tag: hfad.TagUDef, Value: selTag(op.sel)}},
			Page:  server.PageSpec{Limit: cfg.FindLimit},
		})
		if err == nil {
			op.oids = resp.OIDs
		}
	}
	t1 := time.Now()
	h.timer.tr.add(sp, 0, "client."+classNames[op.cls], now, t1)
	op.lat = sample{int64(from.Sub(epoch)), int64(t1.Sub(epoch))}
	if err != nil {
		fails.add(classNames[op.cls], failKindOf(err), 1, err)
		return
	}
	op.ok = true
}

func failKindOf(err error) string {
	var se *server.StatusError
	var ne net.Error
	switch {
	case server.IsBusy(err):
		return "refused"
	case errors.As(err, &se):
		return fmt.Sprintf("http%d", se.Code)
	case errors.As(err, &ne) && ne.Timeout():
		return "timeout"
	default:
		return "error"
	}
}

// rungDur splits the window: the probe slices, the reference rung and
// the top (saturation) rung get their shares, the other rungs split the
// rest.
func (e *env) rungDur(rate int) time.Duration {
	cfg := e.spec.Serve
	share := (1 - cfg.ProbeShare - cfg.RefShare - cfg.TopShare) / float64(len(cfg.Ladder)-2)
	switch rate {
	case cfg.Reference:
		share = cfg.RefShare
	case cfg.Ladder[len(cfg.Ladder)-1]:
		share = cfg.TopShare
	}
	return time.Duration(float64(e.window) * share)
}

// probeDur is the length of one probe slice: one runs before each rung.
func (e *env) probeDur() time.Duration {
	cfg := e.spec.Serve
	return time.Duration(float64(e.window) * cfg.ProbeShare / float64(len(cfg.Ladder)))
}

// classDists returns a rung's latency distribution per class, over every
// op that was sent (a failed op keeps its latency; it also counts as a
// failure).
func classDists(r *rung) (all dist, per [numClasses]dist) {
	var xs [numClasses][]sample
	var every []sample
	for _, op := range r.ops {
		if op.lat.end == 0 {
			continue
		}
		xs[op.cls] = append(xs[op.cls], op.lat)
		every = append(every, op.lat)
	}
	for c := range per {
		per[c] = distOf(xs[c])
	}
	return distOf(every), per
}

// runServe is the serving workload: hfadd over loopback at a ladder of
// open-loop offered rates, 60/30/10 read/append/find with Zipf targets
// over a preloaded population much larger than the cache. Its p50_ms is
// the unloaded latency from the closed-loop probe slices; the open-loop
// latencies at the reference rate are the per-class and ref_ figures.
func runServe(e *env, tr *tracer) (*report, error) {
	cfg := e.spec.Serve
	rep := newReport()
	var (
		h     *serveHarness
		c     *corpus
		setup []time.Duration
	)
	for r := 0; r < e.spec.SetupRepeats; r++ {
		if h != nil {
			h.stop()
			h.v.discard()
		}
		runtime.GC() // every timed set-up starts from the same collector state
		t0 := time.Now()
		c = newCorpus(e.seed, cfg.Docs, cfg.Sels)
		var err error
		if h, err = e.startServe(c); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0))
	}
	rep.set("setup_s", medianDur(setup).Seconds(), "s")
	h.v.dev.tr = tr
	h.timer.tr = tr

	appends := map[hfad.OID]int{}
	before := takeSnap(h.v)
	m0 := h.srv.Metrics()
	epoch := before.at
	var (
		rungs   []*rung // in the order they ran, probe slices included
		probes  []*rung
		ref     *rung
		maxRate int
		failing bool
	)
	// Every rung runs, even past the first that misses the limit: the top
	// rung offers more than the server can take, and what it completes is
	// the saturation throughput. A probe slice runs before each rung, so
	// the probe samples the whole run. Each slice starts after a garbage
	// collection, so the garbage of the set-up or of the rung before it
	// is not collected during the slice.
	top := cfg.Ladder[len(cfg.Ladder)-1]
	for i, rate := range cfg.Ladder {
		runtime.GC()
		p := e.genRung(e.seed*1000+500+uint64(i), top, e.probeDur())
		p.ok = true // its ops are foreground ops for the checkpoint stall figures
		e.runProbe(h, p, epoch, appends, &rep.fails)
		rungs = append(rungs, p)
		probes = append(probes, p)

		r := e.genRung(e.seed*1000+uint64(i), rate, e.rungDur(rate))
		f0 := rep.fails.total()
		e.runRung(h, r, epoch, appends, &rep.fails)
		rungs = append(rungs, r)
		if rate == cfg.Reference {
			ref = r
		}
		all, per := classDists(r)
		ok := rep.fails.total() == f0 && float64(r.backlog) <= cfg.MaxBacklog*float64(len(r.ops))
		for _, d := range per {
			if ms(d.q(0.99)) > cfg.LimitP99MS {
				ok = false
			}
		}
		r.ok = ok
		if ok && !failing {
			maxRate = rate
		}
		failing = failing || !ok
		rep.notef("rung %5d ops/s: %6d ops, backlog %d, p50 %.3f ms, p99 %.3f ms, meets limit: %v",
			rate, len(r.ops), r.backlog, ms(all.q(0.5)), ms(all.q(0.99)), ok)
	}
	after := takeSnap(h.v)
	m1 := h.srv.Metrics()

	var sent, writes int64
	var lags []time.Duration
	for _, r := range rungs {
		lags = append(lags, r.lags...)
		for _, op := range r.ops {
			if op.lat.end != 0 {
				sent++
				if op.cls == clsWrite {
					writes++
				}
			}
		}
	}
	rep.attempted = sent
	rep.set("max_rate_ops_s", float64(maxRate), "ops/s")
	sat := rungs[len(rungs)-1]
	served := sat.windowed(false, func(ops []*serveOp) float64 {
		n := 0
		for _, op := range ops {
			if op.ok {
				n++
			}
		}
		return float64(n) / window.Seconds()
	})
	rep.set("ops_s", median(served), "ops/s")
	rep.notef("ops_s is the saturation throughput: the median over %s windows of requests completed per second at %d ops/s offered: %.0f", window, sat.rate, served)
	quantile := func(q float64) func([]*serveOp) float64 {
		return func(ops []*serveOp) float64 {
			xs := make([]sample, len(ops))
			for i, op := range ops {
				xs[i] = op.lat
			}
			return ms(distOf(xs).q(q))
		}
	}
	var (
		probeP50s []float64
		probeLat  []sample
		probeCls  [numClasses][]sample
	)
	for _, p := range probes {
		var ops []*serveOp
		for _, op := range p.ops {
			if op.lat.end != 0 {
				ops = append(ops, op)
				probeLat = append(probeLat, op.lat)
				probeCls[op.cls] = append(probeCls[op.cls], op.lat)
			}
		}
		probeP50s = append(probeP50s, quantile(0.5)(ops))
	}
	for cls, xs := range probeCls {
		d := distOf(xs)
		rep.notef("probe %s: n=%d p50 %.3f ms p90 %.3f ms", classNames[cls], len(d), ms(d.q(0.5)), ms(d.q(0.9)))
	}
	pd := distOf(probeLat)
	rep.set("p50_ms", ms(pd.q(0.5)), "ms")
	rep.set("p90_ms", ms(pd.q(0.9)), "ms")
	rep.set("p99_ms", ms(pd.q(0.99)), "ms")
	rep.notef("p50_ms, p90_ms and p99_ms are over all %d requests of %d closed-loop probe slices of %s, one request in flight; the slices' p50s: %.3f",
		len(pd), len(probes), e.probeDur(), probeP50s)
	p50s, p90s := ref.windowed(true, quantile(0.5)), ref.windowed(true, quantile(0.9))
	rep.set("ref_p50_ms", median(p50s), "ms")
	rep.set("ref_p90_ms", median(p90s), "ms")
	rep.notef("ref_p50_ms and ref_p90_ms are medians over %s windows of the reference rung: p50 %.3f, p90 %.3f", window, p50s, p90s)
	all, per := classDists(ref)
	rep.set("ref_p99_ms", ms(all.q(0.99)), "ms")
	for cls, d := range per {
		rep.set(classNames[cls]+"_p50_ms", ms(d.q(0.5)), "ms")
		t, label := d.tail()
		rep.set(classNames[cls]+"_"+label+"_ms", ms(t), "ms")
		rep.notef("%s at %d ops/s: %d samples", classNames[cls], cfg.Reference, len(d))
	}
	rep.set("fail_frac", ratio(float64(rep.fails.total()), float64(sent)), "ratio")
	used := float64(after.st.Alloc.UsedBlocks) * blockdev.DefaultBlockSize
	var userB int64
	for _, i := range h.o.index {
		userB += int64(len(c.body(i)))
	}
	userB += writes * int64(cfg.AppendBytes)
	rep.set("space_amp", ratio(used, float64(userB)), "ratio")

	L := rep.layers
	L["load.gen_lag_p99_ms"] = ms(durDist(lags).q(0.99))
	if b := m1.IngestBatches - m0.IngestBatches; b > 0 {
		L["server.coalesce_avg"] = float64(m1.IngestOps-m0.IngestOps) / float64(b)
	}
	L["server.rejected"] = float64(m1.RejectedInflight + m1.RejectedQueue - m0.RejectedInflight - m0.RejectedQueue)
	var ops []devOp
	if tr != nil {
		ops = h.v.dev.takeOps()
	}
	layerCounts(rep, e, before, after, sent, writes, writes*int64(cfg.AppendBytes))
	if tr != nil {
		// Foreground ops of the rungs that met the limit: overloaded rungs
		// measure the backlog, not the checkpoints.
		var fg []sample
		for _, r := range rungs {
			if !r.ok {
				continue
			}
			for _, op := range r.ops {
				if op.lat.end != 0 {
					fg = append(fg, op.lat)
				}
			}
		}
		handlerLayers(rep, tr)
		traceLayers(rep, e, tr, ops, before, after, fg)
	}

	// Output checks, outside the window.
	size := map[hfad.OID]uint64{}
	for oid, i := range h.o.index {
		size[oid] = uint64(len(c.body(i)))
	}
	for _, r := range rungs {
		for _, op := range r.ops {
			if !op.ok {
				continue
			}
			oid := h.oids[op.obj]
			body := c.body(op.obj)
			switch op.cls {
			case clsRead:
				k := min(len(op.got), len(body))
				if string(op.got[:k]) != string(body[:k]) || (len(op.got) < cfg.ReadBytes && len(op.got) < len(body)) {
					rep.ck.failf("read oid %d: bytes differ from the preloaded object", oid)
				}
			case clsWrite:
				if want := size[oid] + uint64(cfg.AppendBytes); op.size != want && appends[oid] >= 0 {
					rep.ck.failf("append oid %d: size %d, want %d", oid, op.size, want)
				}
				size[oid] = op.size
			case clsQuery:
				q := qspec{shape: shapePageWalk, a: selTag(op.sel), limit: cfg.FindLimit}
				want := h.o.expect(q)
				got := make([]hfad.OID, len(op.oids))
				for i, x := range op.oids {
					got[i] = hfad.OID(x)
				}
				if !equalOIDs(got, want) {
					rep.ck.failf("find %s: %d results, oracle %d", selTag(op.sel), len(got), len(want))
				}
			}
		}
	}

	// Crash: stop serving, drop unsynced blocks, reopen and verify that
	// every acknowledged append survived.
	h.stopHTTP()
	extra := func(oid hfad.OID) ([]byte, bool) {
		n := appends[oid]
		if n < 0 {
			return nil, false
		}
		var b []byte
		for k := 0; k < n; k++ {
			b = append(b, e.appendChunk(oid, k)...)
		}
		return b, true
	}
	if err := e.finish(rep, h.v, h.o, extra, func() { h.srv.Shutdown(context.Background()) }); err != nil {
		return nil, err
	}
	return rep, nil
}

// handlerLayers sets the server's per-layer metrics from the traced
// client and handler spans.
func handlerLayers(rep *report, tr *tracer) {
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	client := map[uint64]span{}
	for _, s := range spans {
		if strings.HasPrefix(s.name, "client.") {
			client[s.id] = s
		}
	}
	var handler [numClasses][]time.Duration
	var overhead []time.Duration
	for _, s := range spans {
		if !strings.HasPrefix(s.name, "server.") {
			continue
		}
		cls := clsQuery
		for c, n := range classNames {
			if s.name == "server."+n+"_handler" {
				cls = c
			}
		}
		handler[cls] = append(handler[cls], time.Duration(s.end-s.start))
		if p, ok := client[s.parent]; ok {
			overhead = append(overhead, time.Duration((p.end-p.start)-(s.end-s.start)))
		}
	}
	for c, ds := range handler {
		d := durDist(ds)
		rep.layers["server."+classNames[c]+"_handler_p50_ms"] = ms(d.q(0.5))
		rep.layers["server."+classNames[c]+"_handler_p99_ms"] = ms(d.q(0.99))
	}
	rep.layers["server.client_overhead_p50_ms"] = ms(durDist(overhead).q(0.5))
}
