package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockdev"
)

// ingestRound is one fill of an empty volume.
type ingestRound struct {
	v             *volume
	o             *oracle
	before, after snap
	lat           []sample // batch commits, ns since before.at
	userBytes     int64
	ops           []devOp // device trace (traced pass)
}

func (r *ingestRound) rate() float64 {
	return float64(len(r.o.index)) / r.after.at.Sub(r.before.at).Seconds()
}

// fill commits the corpus's first n objects into v through two
// closed-loop writers, each committing Batch objects per Store.Batch.
func (e *env) fill(v *volume, c *corpus, n int, tr *tracer, rep *report) *ingestRound {
	cfg := e.spec.Ingest
	r := &ingestRound{v: v, o: newOracle(c)}
	rep.attempted += int64(n)
	var (
		mu   sync.Mutex
		next atomic.Int64
		lat  samples
		wg   sync.WaitGroup
	)
	r.before = takeSnap(v)
	epoch := r.before.at
	for w := 0; w < e.writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(cfg.Batch))) - cfg.Batch
				if lo >= n {
					return
				}
				hi := min(lo+cfg.Batch, n)
				t0 := time.Now()
				oids, err := ingestBatch(v.st, c, lo, hi, true, tr)
				t1 := time.Now()
				if err != nil {
					rep.fails.add("batch", "error", int64(hi-lo), err)
					continue
				}
				lat.add(sample{int64(t0.Sub(epoch)), int64(t1.Sub(epoch))})
				mu.Lock()
				for k, oid := range oids {
					r.o.ack(lo+k, oid, true)
					r.userBytes += int64(len(c.body(lo + k)))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	r.after = takeSnap(v)
	r.lat = lat.list()
	if tr != nil {
		r.ops = v.dev.takeOps()
	}
	return r
}

// runIngest is the tag-on-ingest workload: two closed-loop writers commit
// Store.Batch units of new objects, every object with a text body, 2-3
// tags and full-text indexing, into a volume that starts empty and grows
// far beyond the cache. Rounds of MaxObjects objects, each into a fresh
// volume, repeat until the window is used. The last round's volume gets
// the per-layer counters, the trace and the crash check.
func runIngest(e *env, tr *tracer) (*report, error) {
	cfg := e.spec.Ingest
	rep := newReport()

	// Set-up generates the corpus, formats a volume and warms it with a
	// short fill: that faults the device's memory in and grows the heap,
	// which would otherwise slow only the first measured round.
	var (
		c     *corpus
		setup []time.Duration
	)
	for r := 0; r < e.spec.SetupRepeats; r++ {
		runtime.GC() // every timed set-up starts from the same collector state
		t0 := time.Now()
		c = newCorpus(e.seed, cfg.Docs, cfg.Sels)
		v, err := e.format()
		if err != nil {
			return nil, err
		}
		e.fill(v, c, cfg.WarmupObjects, nil, rep)
		setup = append(setup, time.Since(t0))
		v.discard()
	}
	rep.set("setup_s", medianDur(setup).Seconds(), "s")

	var (
		last  *ingestRound // only the last round's volume and oracle are kept
		lat   []sample
		rates []float64
		spent time.Duration
	)
	for spent < e.window {
		if last != nil {
			last.v.discard()
		}
		v, err := e.format()
		if err != nil {
			return nil, err
		}
		v.dev.tr = tr
		tr.reset()
		r := e.fill(v, c, cfg.MaxObjects, tr, rep)
		last = r
		lat = append(lat, r.lat...)
		rates = append(rates, r.rate())
		spent += r.after.at.Sub(r.before.at)
	}
	sort.Float64s(rates)

	d := distOf(lat)
	rep.set("ops_s", rates[len(rates)/2], "ops/s")
	rep.set("write_p50_ms", ms(d.q(0.5)), "ms")
	rep.set("write_p99_ms", ms(d.q(0.99)), "ms")
	rep.set("p50_ms", ms(d.q(0.5)), "ms")
	rep.set("p90_ms", ms(d.q(0.9)), "ms")
	rep.set("p99_ms", ms(d.q(0.99)), "ms")
	rep.notef("%d rounds of %d objects at %.0f objects/s; ops_s is the median", len(rates), cfg.MaxObjects, rates)
	rep.notef("write latency is one Batch commit of %d objects; %d batches, %d beyond p99",
		cfg.Batch, len(d), len(d)-int(float64(len(d))*0.99))
	used := float64(last.after.st.Alloc.UsedBlocks) * blockdev.DefaultBlockSize
	rep.set("space_amp", ratio(used, float64(last.userBytes)), "ratio")
	rep.set("fail_frac", ratio(float64(rep.fails.total()), float64(rep.attempted)), "ratio")

	objects := int64(len(last.o.index))
	layerCounts(rep, e, last.before, last.after, objects, int64(len(last.lat)), last.userBytes)
	if tr != nil {
		traceLayers(rep, e, tr, last.ops, last.before, last.after, last.lat)
	}
	if err := e.finish(rep, last.v, last.o, nil, nil); err != nil {
		return nil, err
	}
	return rep, nil
}
