package bench

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/hfad"
	"repro/internal/stats"
)

// RunE16 measures write-ahead-log amplification on the *data path*:
// bytes logged per small append and per small in-place overwrite on a
// large (multi-level extent tree) object, at 16 concurrent writers each
// mutating their own object. Physiological extent records log the
// logical mutation: a cell rewrite, the count deltas, and two short
// header ranges. The page-image pipeline they replaced paid a full 4 KiB
// record per touched tree level (leaf, internals, header) plus the
// shadow-metadata page — exactly the block-oriented log amplification
// the paper's "stuck in the past" critique targets; its last measured
// rows are cited in the notes.
func RunE16(s Scale) (*Result, error) {
	ops := pick(s, 320, 3200)
	const writers = 16
	const editBytes = 64

	tbl := stats.NewTable("E16 — extent-tree log bytes per small data op (16 writers)",
		"mode", "workload", "ops", "bytes/op", "records/op", "ops/sec")

	run := func() error {
		st, err := NewSyncCostStore(devBlocks(s, 1<<15, 1<<16), hfad.Options{
			Transactional:  true,
			WALBlocks:      8192,
			MaxExtentBytes: 4096, // many extents => a real multi-node tree
		})
		if err != nil {
			return err
		}
		defer st.Close()

		// Each writer owns one large object: ~300 extents, so the tree
		// has split past a single leaf and small edits touch several
		// levels. Built before the measured window.
		objs := make([]*hfad.Object, writers)
		chunk := make([]byte, 4096)
		for i := range objs {
			obj, err := st.CreateObject("w")
			if err != nil {
				return err
			}
			for j := 0; j < 300; j++ {
				chunk[0] = byte(j)
				if err := obj.Append(chunk); err != nil {
					return err
				}
			}
			objs[i] = obj
		}
		defer func() {
			for _, o := range objs {
				o.Close()
			}
		}()

		for _, workload := range []string{"append-64B", "overwrite-64B"} {
			ws0 := st.Volume().WAL().Stats()
			var next atomic.Int64
			var wg sync.WaitGroup
			var firstErr atomic.Value
			edit := make([]byte, editBytes)
			t0 := time.Now()
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					obj := objs[w]
					buf := append([]byte(nil), edit...)
					for {
						i := next.Add(1)
						if i > int64(ops) {
							return
						}
						buf[0] = byte(i)
						var err error
						if workload == "append-64B" {
							err = obj.Append(buf)
						} else {
							off := (uint64(i) * 8191) % (obj.Size() - editBytes)
							err = obj.WriteAt(buf, off)
						}
						if err != nil {
							firstErr.Store(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			wall := time.Since(t0)
			if err, ok := firstErr.Load().(error); ok {
				return err
			}
			ws := st.Volume().WAL().Stats()
			bytesPerOp := float64(ws.BytesLogged-ws0.BytesLogged) / float64(ops)
			tbl.AddRow("physiological", workload, ops, bytesPerOp,
				float64(ws.PagesLogged-ws0.PagesLogged)/float64(ops),
				float64(ops)/wall.Seconds())
		}
		return nil
	}
	if err := run(); err != nil {
		return nil, err
	}

	notes := []string{
		"each op edits 64 bytes of a ~1.2 MB object whose extent tree spans multiple nodes (MaxExtentBytes=4096)",
		"physiological mode logs the cell rewrite, count deltas, and two header ranges",
		"appends mostly extend the tail extent in place (one leaf-cell rewrite); every 64th crosses a block boundary and inserts a fresh cell",
		"the page-image pipeline this replaced logged a 4 KiB record per touched extent page per op (leaf, internal, header) plus the meta pages; it last measured 20678 (append-64B) and 12420 (overwrite-64B) bytes/op (smoke scale, BENCH_pr8.json), 51.7× the physiological 400 on appends",
	}
	return &Result{
		ID:     "E16",
		Claim:  "physiological extent records retire per-object image logging: a small data edit logs the logical mutation, not a 4 KiB page per tree level, cutting data-path log bandwidth by well over an order of magnitude.",
		Tables: []*stats.Table{tbl},
		Notes:  notes,
	}, nil
}
