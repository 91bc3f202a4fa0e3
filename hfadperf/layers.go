package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/blockdev"
)

// layerCounts sets the per-layer metrics that come from public counters:
// deltas of Store.Stats, the fulltext index, the checkpoint fallback
// counter and the benchmark device over the measured window. ops is the
// workload's unit of work, writes its commit units, userBytes the bytes
// the workload asked to store.
func layerCounts(rep *report, e *env, b, a snap, ops, writes, userBytes int64) {
	L := rep.layers
	per := func(x int64, d int64) float64 { return ratio(float64(x), float64(d)) }

	hits, misses := a.st.Cache.Hits-b.st.Cache.Hits, a.st.Cache.Misses-b.st.Cache.Misses
	L["pager.hit_ratio"] = per(hits, hits+misses)
	L["pager.acquires_per_op"] = per(hits+misses, ops)
	L["pager.misses_per_op"] = per(misses, ops)
	L["pager.evictions_per_op"] = per(a.st.Cache.Evictions-b.st.Cache.Evictions, ops)
	L["pager.steals_per_op"] = per(a.st.Cache.Steals-b.st.Cache.Steals, ops)
	L["pager.writebacks_per_op"] = per(a.st.Cache.Writebacks-b.st.Cache.Writebacks, ops)

	if a.st.WAL != nil && b.st.WAL != nil {
		wa, wb := *a.st.WAL, *b.st.WAL
		L["wal.bytes_per_op"] = per(wa.BytesLogged-wb.BytesLogged, ops)
		L["wal.records_per_op"] = per(wa.PagesLogged-wb.PagesLogged, ops)
		L["wal.commits_per_group"] = per(wa.Commits-wb.Commits, wa.Groups-wb.Groups)
		L["wal.syncs_per_write"] = per(wa.Syncs-wb.Syncs, writes)
		L["wal.chunks_per_op"] = per(wa.Chunks-wb.Chunks, ops)
		L["wal.checkpoints"] = float64(wa.Checkpoints - wb.Checkpoints)
	}

	d := a.dev.sub(b.dev)
	bs := int64(blockdev.DefaultBlockSize)
	L["dev.sync_count"] = float64(d.Syncs)
	L["dev.sync_busy_ms"] = ms(d.SyncBusy)
	L["dev.sync_cost_us"] = ratio(float64(d.SyncBusy.Microseconds()), float64(d.Syncs))
	for r := 0; r < numRegions; r++ {
		L["dev.write_blocks."+regionNames[r]] = float64(d.Writes[r])
	}
	L["dev.read_blocks.data"] = float64(d.Reads[regData])
	L["dev.write_amp"] = per(d.writeBlocks()*bs, userBytes)

	created := int64(a.st.Objects.Creates - b.st.Objects.Creates)
	L["buddy.blocks_per_object"] = per(int64(a.st.Alloc.UsedBlocks)-int64(b.st.Alloc.UsedBlocks), created)
	L["buddy.frag"] = a.st.Alloc.Fragmentation()
	o := func(s snap) int64 {
		x := s.st.Objects
		return x.Creates + x.Deletes + x.Reads + x.Writes + x.Inserts + x.DeleteRanges
	}
	L["osd.ops"] = float64(o(a) - o(b))

	L["fulltext.flushes"] = float64(a.ft.Flushes - b.ft.Flushes)
	L["fulltext.segments"] = float64(a.ft.Segments)
	L["fulltext.compactions"] = float64(a.ft.Compactions - b.ft.Compactions)
	L["core.ckpt_fallbacks"] = float64(a.fallbacks - b.fallbacks)
}

// traceLayers sets the metrics the traced pass derives from spans: the
// checkpoints rebuilt from the device trace (checked against the WAL's
// checkpoint counter), the tail of foreground operations that overlap a
// checkpoint against those that do not, and each span's self time. It
// writes the trace out.
func traceLayers(rep *report, e *env, tr *tracer, ops []devOp, b, a snap, fg []sample) {
	L := rep.layers
	lo, hi := tr.since(b.at), tr.since(a.at)
	var cks []ckptSpan
	for _, c := range checkpointSpans(ops) {
		if c.end > lo && c.end <= hi {
			cks = append(cks, c)
		}
	}
	var durs []time.Duration
	var blocks int64
	for _, c := range cks {
		durs = append(durs, time.Duration(c.end-c.start))
		blocks += c.blocks
	}
	dd := durDist(durs)
	L["trace.ckpt_spans"] = float64(len(cks))
	L["core.ckpt_count"] = float64(len(cks))
	L["core.ckpt_p50_ms"] = ms(dd.q(0.5))
	if len(dd) > 0 {
		L["core.ckpt_max_ms"] = ms(dd[len(dd)-1])
	}
	L["core.ckpt_bytes"] = float64(blocks * blockdev.DefaultBlockSize)
	if want := L["wal.checkpoints"]; float64(len(cks)) != want {
		rep.ck.failf("trace: %d checkpoint spans rebuilt from the device trace, WAL counted %d checkpoints", len(cks), int64(want))
	}

	// Foreground samples are in the run epoch (b.at); shift to the tracer's.
	var stall, calm []time.Duration
	for _, s := range fg {
		if overlaps(cks, s.start+lo, s.end+lo) {
			stall = append(stall, s.dur())
		} else {
			calm = append(calm, s.dur())
		}
	}
	L["core.ckpt_stall_p99_ms"] = ms(durDist(stall).q(0.99))
	L["core.calm_p99_ms"] = ms(durDist(calm).q(0.99))
	rep.notef("foreground ops: %d overlap a checkpoint, %d do not", len(stall), len(calm))

	tr.mu.Lock()
	spans := tr.spans
	tr.mu.Unlock()
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rep.notef("self time %-24s %10.1f ms", n, ms(self[n]))
	}
	path := fmt.Sprintf("%s/%s-seed%d.tsv", e.traceDir, e.workload, e.seed)
	if err := writeTrace(path, spans, ops); err != nil {
		rep.notef("trace not written: %v", err)
	} else {
		rep.notef("trace: %d spans and %d device calls in %s", len(spans), len(ops), path)
	}
}
