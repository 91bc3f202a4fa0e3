package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public function. Parent is 0 for a root span.
type span struct {
	id, parent uint64
	name       string
	start, end int64 // ns since the tracer's epoch
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, so untraced runs pay one nil check.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  uint64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64               { return int64(time.Since(t.epoch)) }
func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// reset drops the spans recorded so far.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// newID reserves a span id before the span ends, so children recorded
// first can name it as their parent.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a finished span. id 0 allocates a fresh one.
func (t *tracer) add(id, parent uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		t.next++
		id = t.next
	}
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, start: t.since(start), end: t.since(end)})
}

// selfTimes returns, per span name, the summed duration minus the part of
// each span's interval that its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[uint64][][2]int64)
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.name] += time.Duration(s.end - s.start - covered(s.start, s.end, kids[s.id]))
	}
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// ckptSpan is one checkpoint rebuilt from the device trace.
type ckptSpan struct {
	start, end int64
	blocks     int64 // home and sidecar blocks written
}

// checkpointSpans rebuilds checkpoints from a device trace. A checkpoint
// is a run of data-region (home page) writes, then checksum-sidecar
// writes, then a sync, ending at the write of the WAL header block that
// resets the log. Reads interleave freely (readers do not take the
// checkpoint fence); any other write or sync ends the backward scan.
func checkpointSpans(ops []devOp) []ckptSpan {
	sort.Slice(ops, func(i, j int) bool { return ops[i].start < ops[j].start })
	var out []ckptSpan
	for i, op := range ops {
		if op.kind != 'h' {
			continue
		}
		j := i - 1
		for j >= 0 && ops[j].kind == 'r' {
			j--
		}
		if j < 0 || ops[j].kind != 's' {
			continue
		}
		start := ops[j].start
		var blocks int64
		for k := j - 1; k >= 0; k-- {
			o := ops[k]
			if o.kind == 'r' {
				continue
			}
			if o.kind != 'w' || (o.region != regData && o.region != regCsum) {
				break
			}
			blocks++
			start = o.start
		}
		out = append(out, ckptSpan{start: start, end: op.end, blocks: blocks})
	}
	return out
}

// overlaps reports whether [lo, hi) intersects any checkpoint span. The
// spans are sorted by start and do not overlap each other.
func overlaps(cks []ckptSpan, lo, hi int64) bool {
	i := sort.Search(len(cks), func(i int) bool { return cks[i].end > lo })
	return i < len(cks) && cks[i].start < hi
}

// writeTrace writes spans and device ops as tab-separated lines.
func writeTrace(path string, spans []span, ops []devOp) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "# span\tid\tparent\tname\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "span\t%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.name, s.start, s.end)
	}
	fmt.Fprintln(w, "# dev\tkind\tregion\tblock\tstart_ns\tend_ns")
	for _, o := range ops {
		fmt.Fprintf(w, "dev\t%c\t%s\t%d\t%d\t%d\n", o.kind, regionNames[o.region], o.block, o.start, o.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
