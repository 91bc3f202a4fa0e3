package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/hfad"
	"repro/internal/blockdev"
	"repro/internal/fulltext"
)

// volume is one store on its benchmark device.
type volume struct {
	dev *benchDevice
	st  *hfad.Store
}

func (e *env) storeOptions() hfad.Options {
	return hfad.Options{
		Transactional: true,
		WALBlocks:     e.spec.Store.WALBlocks,
		CachePages:    e.spec.Store.CachePages,
	}
}

// device returns a fresh wrapper of the run's MemDevice, allocating it on
// first use.
func (e *env) device() *benchDevice {
	if e.mem == nil {
		e.mem = blockdev.NewMem(e.spec.Device.Blocks, blockdev.DefaultBlockSize)
		e.touched = make([]uint64, (e.spec.Device.Blocks+63)/64)
	}
	return newBenchDevice(e.mem, e.touched, e.syncDelay())
}

// format creates an empty volume on the run's device, wiping whatever an
// earlier volume left there.
func (e *env) format() (*volume, error) {
	if e.mem != nil {
		if err := wipe(e.mem, e.touched); err != nil {
			return nil, err
		}
	}
	dev := e.device()
	st, err := hfad.Create(dev, e.storeOptions())
	if err != nil {
		return nil, fmt.Errorf("create volume: %w", err)
	}
	if err := dev.loadLayout(); err != nil {
		st.Close()
		return nil, err
	}
	return &volume{dev: dev, st: st}, nil
}

func (e *env) syncDelay() time.Duration {
	return time.Duration(e.spec.Device.SyncDelayUS) * time.Microsecond
}

// discard closes a set-up volume that will not be measured.
func (v *volume) discard() { v.st.Close() }

// ingestBatch commits objects [lo, hi) of c in one Store.Batch and
// returns their OIDs. With tr set, each call into the store is a span
// under the batch's span.
func ingestBatch(st *hfad.Store, c *corpus, lo, hi int, index bool, tr *tracer) ([]hfad.OID, error) {
	oids := make([]hfad.OID, 0, hi-lo)
	root := tr.newID()
	t0 := time.Now()
	timed := func(name string, fn func() error) error {
		if tr == nil {
			return fn()
		}
		s := time.Now()
		err := fn()
		tr.add(0, root, name, s, time.Now())
		return err
	}
	err := st.Batch(func(b *hfad.Batch) error {
		for i := lo; i < hi; i++ {
			var obj *hfad.Object
			if err := timed("batch.CreateObject", func() (err error) {
				obj, err = b.CreateObject("hfadperf")
				return err
			}); err != nil {
				return err
			}
			oid := obj.OID()
			err := timed("batch.Append", func() error { return b.Append(obj, c.body(i)) })
			obj.Close()
			if err != nil {
				return err
			}
			for _, t := range c.tags(i) {
				if err := timed("batch.Tag", func() error { return b.Tag(oid, hfad.TagUDef, t) }); err != nil {
					return err
				}
			}
			if index {
				if err := timed("batch.IndexContent", func() error { return b.IndexContent(oid) }); err != nil {
					return err
				}
			}
			oids = append(oids, oid)
		}
		return nil
	})
	tr.add(root, 0, "store.Batch", t0, time.Now())
	return oids, err
}

// preload fills a fresh volume with n objects through two batch writers
// and checkpoints it, so the measured window starts from an empty log.
func (e *env) preload(c *corpus, n, batch int, index bool) (*volume, *oracle, error) {
	v, err := e.format()
	if err != nil {
		return nil, nil, err
	}
	o := newOracle(c)
	var (
		mu    sync.Mutex
		next  atomic.Int64
		first error
		wg    sync.WaitGroup
	)
	for w := 0; w < e.writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(batch))) - batch
				if lo >= n {
					return
				}
				hi := min(lo+batch, n)
				oids, err := ingestBatch(v.st, c, lo, hi, index, nil)
				mu.Lock()
				if err != nil && first == nil {
					first = fmt.Errorf("preload batch at %d: %w", lo, err)
				}
				for k, oid := range oids {
					o.ack(lo+k, oid, index)
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	if first == nil {
		first = v.st.Sync()
	}
	if first != nil {
		v.st.Close()
		return nil, nil, first
	}
	o.sort()
	return v, o, nil
}

// snap is every public counter the per-layer metrics difference.
type snap struct {
	st        hfad.StoreStats
	ft        fulltext.Stats
	fallbacks int64
	dev       devCounts
	at        time.Time
}

func takeSnap(v *volume) snap {
	return snap{
		st:        v.st.Stats(),
		ft:        v.st.Volume().Fulltext().Inner().Stats(),
		fallbacks: v.st.Volume().CheckpointFallbacks(),
		dev:       v.dev.counts(),
		at:        time.Now(),
	}
}

// checks collects output-check failures.
type checks struct {
	n     int
	first []string
}

func (c *checks) failf(format string, args ...any) {
	c.n++
	if len(c.first) < 10 {
		c.first = append(c.first, fmt.Sprintf(format, args...))
	}
}

// failures counts failed operations by class and kind, keeping the first
// error text of each.
type failures struct {
	mu    sync.Mutex
	kinds map[string]*failKind
}

type failKind struct {
	n     int64
	first string
}

func (f *failures) add(class, kind string, n int64, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.kinds == nil {
		f.kinds = map[string]*failKind{}
	}
	k := class
	if kind != "" {
		k += "/" + kind
	}
	fk := f.kinds[k]
	if fk == nil {
		fk = &failKind{first: err.Error()}
		f.kinds[k] = fk
	}
	fk.n += n
}

func (f *failures) total() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var n int64
	for _, k := range f.kinds {
		n += k.n
	}
	return n
}
