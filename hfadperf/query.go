package main

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/hfad"
	"repro/internal/blockdev"
	"repro/internal/workload"
)

// queryRun is one executed query and its answer, checked after the window.
type queryRun struct {
	q   qspec
	got []hfad.OID
}

// queryGen draws queries of the four shapes from a seed. page_walk
// continues each group's walk from the last OID the previous page
// returned.
type queryGen struct {
	rng   workload.Rng
	c     *corpus
	cfg   querySpec
	terms []string            // mid-frequency fulltext tokens
	walk  map[string]hfad.OID // group tag -> last OID of its walk
}

// midTerms returns the tokens found in 1% to 10% of the corpus documents,
// sorted: selective enough to drive a conjunction, common enough to match.
func midTerms(c *corpus) []string {
	df := map[string]int{}
	for _, ts := range c.terms {
		for _, t := range ts {
			df[t]++
		}
	}
	var out []string
	for t, n := range df {
		if n*100 >= len(c.docs) && n*10 <= len(c.docs) {
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}

func newQueryGen(seed uint64, c *corpus, cfg querySpec, terms []string) *queryGen {
	return &queryGen{rng: workload.NewRng(seed), c: c, cfg: cfg, terms: terms, walk: map[string]hfad.OID{}}
}

func (g *queryGen) next() qspec {
	grp := g.rng.IntN(numGroups)
	switch qshape(g.rng.IntN(int(numShapes))) {
	case shapeAnd:
		return qspec{shape: shapeAnd, a: selTag(g.rng.IntN(g.c.sels)), b: groupTag(grp), limit: g.cfg.Limit}
	case shapeRange:
		d := g.rng.IntN(numDays - g.cfg.RangeDays)
		return qspec{shape: shapeRange, lo: dayTag(d), hi: dayTag(d + g.cfg.RangeDays), limit: g.cfg.RangeLimit}
	case shapeFulltext:
		return qspec{shape: shapeFulltext, a: g.terms[g.rng.IntN(len(g.terms))], b: groupTag(grp), limit: g.cfg.Limit}
	default:
		return qspec{shape: shapePageWalk, a: groupTag(grp), after: g.walk[groupTag(grp)], limit: g.cfg.PageLimit}
	}
}

// advance moves a page walk past the page it just got, restarting at the
// beginning after the last page.
func (g *queryGen) advance(q qspec, got []hfad.OID) {
	if q.shape != shapePageWalk {
		return
	}
	if len(got) < q.limit {
		delete(g.walk, q.a)
	} else {
		g.walk[q.a] = got[len(got)-1]
	}
}

// runQuery is the read-only query workload: two closed-loop goroutines
// over a preloaded, full-text-indexed volume whose index pages fit the
// cache. With a tracer, a sample of the window's queries is re-run through
// Store.Profile after the window, so the iterators' seek and emit counts
// are reported without Profile's instrumentation weighing on the window.
func runQuery(e *env, tr *tracer) (*report, error) {
	cfg := e.spec.Query
	rep := newReport()

	var (
		v     *volume
		o     *oracle
		c     *corpus
		setup []time.Duration
	)
	for r := 0; r < e.spec.SetupRepeats; r++ {
		if v != nil {
			v.discard()
		}
		runtime.GC() // every timed set-up starts from the same collector state
		t0 := time.Now()
		c = newCorpus(e.seed, cfg.Docs, cfg.Sels)
		var err error
		if v, o, err = e.preload(c, cfg.Objects, cfg.PreloadBatch, true); err != nil {
			return nil, err
		}
		// Warm-up: one pass over every shape and group loads the index pages.
		warm := newQueryGen(e.seed^0xfeed, c, cfg, midTerms(c))
		for i := 0; i < 400; i++ {
			q := warm.next()
			got, err := v.st.QueryPage(q.query(), q.page())
			if err != nil {
				return nil, err
			}
			warm.advance(q, got)
		}
		setup = append(setup, time.Since(t0))
	}
	rep.set("setup_s", medianDur(setup).Seconds(), "s")
	v.dev.tr = tr
	terms := midTerms(c)

	var (
		mu      sync.Mutex
		runs    []queryRun
		lat     samples
		byShape [numShapes]samples
	)
	before := takeSnap(v)
	epoch := before.at
	deadline := epoch.Add(e.window)
	var wg sync.WaitGroup
	for w := 0; w < e.writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := newQueryGen(e.seed*31+uint64(w), c, cfg, terms)
			var local []queryRun
			for time.Now().Before(deadline) {
				q := g.next()
				t0 := time.Now()
				got, err := v.st.QueryPage(q.query(), q.page())
				t1 := time.Now()
				tr.add(0, 0, "store.Query."+shapeNames[q.shape], t0, t1)
				if err != nil {
					rep.fails.add("query", "error", 1, err)
					continue
				}
				s := sample{int64(t0.Sub(epoch)), int64(t1.Sub(epoch))}
				lat.add(s)
				byShape[q.shape].add(s)
				local = append(local, queryRun{q, got})
				g.advance(q, got)
			}
			mu.Lock()
			runs = append(runs, local...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	after := takeSnap(v)
	elapsed := after.at.Sub(epoch)
	n := int64(len(runs))
	rep.attempted = n + rep.fails.total()

	d := distOf(lat.list())
	rep.set("ops_s", float64(n)/elapsed.Seconds(), "ops/s")
	rep.set("query_p50_ms", ms(d.q(0.5)), "ms")
	rep.set("query_p99_ms", ms(d.q(0.99)), "ms")
	rep.set("p50_ms", ms(d.q(0.5)), "ms")
	rep.set("p90_ms", ms(d.q(0.9)), "ms")
	rep.set("p99_ms", ms(d.q(0.99)), "ms")
	rep.set("fail_frac", ratio(float64(rep.fails.total()), float64(rep.attempted)), "ratio")
	rep.notef("%d queries, %d beyond p99", len(d), len(d)-int(float64(len(d))*0.99))
	var userB int64
	for _, i := range o.index {
		userB += int64(len(c.body(i)))
	}
	used := float64(after.st.Alloc.UsedBlocks) * blockdev.DefaultBlockSize
	rep.set("space_amp", ratio(used, float64(userB)), "ratio")

	for s := qshape(0); s < numShapes; s++ {
		sd := distOf(byShape[s].list())
		rep.layers["index."+shapeNames[s]+"_p50_ms"] = ms(sd.q(0.5))
		rep.notef("shape %-9s n=%d p50 %.3f ms", shapeNames[s], len(sd), ms(sd.q(0.5)))
	}
	var ops []devOp
	if tr != nil {
		ops = v.dev.takeOps()
	}
	layerCounts(rep, e, before, after, n, 0, 0)
	if tr != nil {
		traceLayers(rep, e, tr, ops, before, after, lat.list())
		profileQueries(rep, v.st, runs)
	}

	for _, r := range runs {
		if want := o.expect(r.q); !equalOIDs(r.got, want) {
			rep.ck.failf("query %s: got %d results, oracle %d", r.q, len(r.got), len(want))
		}
	}

	if err := e.finish(rep, v, o, nil, nil); err != nil {
		return nil, err
	}
	return rep, nil
}

// profileSample is how many of the window's queries the traced pass
// re-runs through Store.Profile.
const profileSample = 2000

// profileQueries re-runs an evenly spaced sample of runs through
// Store.Profile and reports the iterators' seeks and emitted IDs per
// query, and IDs examined per result. The volume is read-only, so each
// profiled query must return what it returned in the window.
func profileQueries(rep *report, st *hfad.Store, runs []queryRun) {
	var n, seeks, emitted, results int64
	for i := 0; i < len(runs); i += max(1, len(runs)/profileSample) {
		r := runs[i]
		rep.attempted++
		got, steps, err := st.Profile(r.q.query(), r.q.page())
		if err != nil {
			rep.fails.add("query", "profile", 1, err)
			continue
		}
		if !equalOIDs(got, r.got) {
			rep.ck.failf("profile %s: %d results, the query returned %d", r.q, len(got), len(r.got))
		}
		for _, s := range steps {
			seeks += s.Seeks
			emitted += s.Steps
		}
		n++
		results += int64(len(got))
	}
	rep.layers["index.seeks_per_query"] = ratio(float64(seeks), float64(n))
	rep.layers["index.emitted_per_query"] = ratio(float64(emitted), float64(n))
	rep.layers["index.examined_per_result"] = ratio(float64(emitted), float64(results))
}
