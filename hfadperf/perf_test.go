package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/hfad"
	"repro/internal/blockdev"
	"repro/internal/core"
)

// testEnv is a one-writer environment on a small device.
func testEnv(t *testing.T) *env {
	t.Helper()
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	sp.SetupRepeats = 1
	sp.Device.Blocks = 1 << 15
	sp.Ingest.MaxObjects = 1500
	return &env{spec: sp, workload: "test", seed: 7, window: time.Second, writers: 1, traceDir: t.TempDir()}
}

// TestIngestCountsRepeat runs a tiny one-writer ingest twice with one seed.
// The counts compared exactly repeat. Allocated blocks do not quite: in
// about one run pair in fifteen they differ by one block of ~4,700, with
// no checkpoint in either run, so the store's allocation order is not
// fully deterministic; they are held to within one block. Counts that
// depend on when the background checkpointer runs are not compared:
// device block writes and reads, pager hits, misses, evictions and
// writebacks, and the WAL's group sizes.
func TestIngestCountsRepeat(t *testing.T) {
	type counts struct {
		usedBlocks                  uint64
		creates                     int64
		walCommits, walSyncs, steal int64
		ftFlushes                   int64
		ftSegments                  int
		ckpts                       int64
	}
	run := func() counts {
		e := testEnv(t)
		c := newCorpus(e.seed, 512, 100)
		v, err := e.format()
		if err != nil {
			t.Fatal(err)
		}
		defer v.st.Close()
		rep := newReport()
		r := e.fill(v, c, e.spec.Ingest.MaxObjects, nil, rep)
		if n := rep.fails.total(); n != 0 {
			t.Fatalf("%d failed objects", n)
		}
		if len(r.o.index) != e.spec.Ingest.MaxObjects {
			t.Fatalf("%d objects acknowledged, want %d", len(r.o.index), e.spec.Ingest.MaxObjects)
		}
		b, a := r.before.st, r.after.st
		return counts{
			usedBlocks: a.Alloc.UsedBlocks - b.Alloc.UsedBlocks,
			creates:    a.Objects.Creates - b.Objects.Creates,
			walCommits: a.WAL.Commits - b.WAL.Commits,
			walSyncs:   a.WAL.Syncs - b.WAL.Syncs,
			steal:      a.Cache.Steals - b.Cache.Steals,
			ftFlushes:  r.after.ft.Flushes - r.before.ft.Flushes,
			ftSegments: r.after.ft.Segments,
			ckpts:      a.WAL.Checkpoints - b.WAL.Checkpoints,
		}
	}
	first, second := run(), run()
	blocks := [2]uint64{first.usedBlocks, second.usedBlocks}
	first.usedBlocks, second.usedBlocks = 0, 0
	if first != second || max(blocks[0], blocks[1])-min(blocks[0], blocks[1]) > 1 {
		t.Fatalf("counts differ between two runs of one seed:\n%+v %d\n%+v %d", first, blocks[0], second, blocks[1])
	}
	if first.creates != 1500 || blocks[0] == 0 || first.walSyncs == 0 {
		t.Fatalf("implausible counts %+v", first)
	}
}

// TestOracleRejectsWrongResult checks that the oracle agrees with the store
// on every query shape, and that it rejects an answer with an OID missing
// or added, and an object whose bytes changed.
func TestOracleRejectsWrongResult(t *testing.T) {
	e := testEnv(t)
	c := newCorpus(e.seed, 256, 20)
	v, o, err := e.preload(c, 400, 50, true)
	if err != nil {
		t.Fatal(err)
	}
	defer v.st.Close()
	g := newQueryGen(99, c, e.spec.Query, midTerms(c))
	g.cfg.RangeDays = 200
	seen := map[qshape]bool{}
	for i := 0; i < 200; i++ {
		q := g.next()
		got, err := v.st.QueryPage(q.query(), q.page())
		if err != nil {
			t.Fatal(err)
		}
		want := o.expect(q)
		if !equalOIDs(got, want) {
			t.Fatalf("%s: store %v, oracle %v", q, got, want)
		}
		g.advance(q, got)
		if len(want) == 0 {
			continue
		}
		seen[q.shape] = true
		if equalOIDs(want[:len(want)-1], want) {
			t.Fatalf("%s: a missing OID is not rejected", q)
		}
		if equalOIDs(append(append([]hfad.OID(nil), want...), want[len(want)-1]+1), want) {
			t.Fatalf("%s: an extra OID is not rejected", q)
		}
	}
	if len(seen) != int(numShapes) {
		t.Fatalf("only %d of %d shapes returned results", len(seen), numShapes)
	}

	var bad []error
	verifyObjects(v.st, o, nil, func(err error) { bad = append(bad, err) })
	if len(bad) != 0 {
		t.Fatalf("fresh volume fails verification: %v", bad)
	}
	var victim hfad.OID
	for oid := range o.index {
		victim = oid
		break
	}
	obj, err := v.st.OpenObject(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	obj.Close()
	verifyObjects(v.st, o, nil, func(err error) { bad = append(bad, err) })
	if len(bad) != 1 {
		t.Fatalf("a changed object gave %d failures, want 1: %v", len(bad), bad)
	}
}

// TestWorkloadsReportContractMetrics runs each workload at a tiny size and
// checks that it passes its output checks and reports every end-to-end
// metric of BENCHMARK.json in the unit declared there.
func TestWorkloadsReportContractMetrics(t *testing.T) {
	for name, run := range workloads {
		t.Run(name, func(t *testing.T) {
			e := testEnv(t)
			e.window = 5 * time.Second
			e.spec.Ingest.MaxObjects = 300
			e.spec.Ingest.WarmupObjects = 100
			e.spec.Serve.Objects = 300
			e.spec.Serve.Ladder = []int{200, 400, 800}
			e.spec.Serve.Reference = 200
			e.spec.Query.Objects = 300
			rep, err := run(e, nil)
			if err != nil {
				t.Fatal(err)
			}
			if rep.ck.n != 0 {
				t.Fatalf("%d output checks failed: %v", rep.ck.n, rep.ck.first)
			}
			for _, c := range contractMetrics {
				m, ok := rep.e2e[c.name]
				if !ok || m.Unit != c.unit || m.Value <= 0 {
					t.Errorf("%s reported as %+v, want a positive value in %s", c.name, m, c.unit)
				}
			}
		})
	}
}

// TestCrashCheckFailsSilentDamage checks that the crash check fails the run
// when a recovered object holds other bytes than it should, and that it
// counts, rather than fails on, a corruption the store detects.
func TestCrashCheckFailsSilentDamage(t *testing.T) {
	e := testEnv(t)
	c := newCorpus(e.seed, 256, 20)
	v, o, err := e.preload(c, 200, 50, true)
	if err != nil {
		t.Fatal(err)
	}
	var victim hfad.OID
	for oid := range o.index {
		victim = oid
		break
	}
	obj, err := v.st.OpenObject(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.WriteAt([]byte("?"), 0); err != nil {
		t.Fatal(err)
	}
	obj.Close()
	if err := v.st.Sync(); err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	if err := e.finish(rep, v, o, nil, nil); err != nil {
		t.Fatal(err)
	}
	if rep.ck.n != 1 || !strings.Contains(rep.ck.first[0], fmt.Sprintf("object %d:", victim)) {
		t.Fatalf("crash check failed %d times (%v), want once, on object %d", rep.ck.n, rep.ck.first, victim)
	}
	if n := rep.fails.total(); n != 0 {
		t.Fatalf("crash check counted %d failed operations; what it finds is not an operation of the window", n)
	}
	if !detected(fmt.Errorf("object 1: read: %w", &core.ErrCorruptPage{Page: 9})) ||
		detected(errors.New("object 1: 3 bytes, want 4 (content differs)")) {
		t.Fatal("detected misclassifies errors")
	}
}

// TestCrashDropsUnsynced checks the device's crash model: synced writes
// survive, later ones are dropped, and the crashed wrapper refuses I/O.
func TestCrashDropsUnsynced(t *testing.T) {
	mem := blockdev.NewMem(16, blockdev.DefaultBlockSize)
	d := newBenchDevice(mem, make([]uint64, 1), 0)
	block := func(b byte) []byte {
		p := make([]byte, blockdev.DefaultBlockSize)
		p[0] = b
		return p
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(d.WriteBlock(5, block('A')))
	must(d.Sync())
	must(d.WriteBlock(5, block('B')))
	must(d.WriteBlock(6, block('C')))
	dropped, err := d.simulateCrash()
	must(err)
	if dropped != 2 {
		t.Fatalf("dropped %d blocks, want 2", dropped)
	}
	p := make([]byte, blockdev.DefaultBlockSize)
	must(mem.ReadBlock(5, p))
	if p[0] != 'A' {
		t.Fatalf("block 5 holds %q after the crash, want the synced 'A'", p[0])
	}
	must(mem.ReadBlock(6, p))
	if p[0] != 0 {
		t.Fatalf("block 6 holds %q after the crash, want zero", p[0])
	}
	if err := d.WriteBlock(7, block('D')); err != errDead {
		t.Fatalf("write after crash: %v, want errDead", err)
	}
	must(wipe(mem, d.touched))
	must(mem.ReadBlock(5, p))
	if p[0] != 0 {
		t.Fatal("wipe left block 5 written")
	}
}

func TestCheckpointSpans(t *testing.T) {
	op := func(at int64, kind byte, region int) devOp {
		return devOp{start: at, end: at + 1, kind: kind, region: uint8(region)}
	}
	ops := []devOp{
		op(0, 'w', regWAL), op(1, 's', regMeta), op(2, 'w', regWAL), // a commit, then a record append to the log's first block
		op(10, 'w', regData), op(11, 'r', regData), op(12, 'w', regData), op(13, 'w', regCsum),
		op(14, 's', regMeta), op(15, 'h', regWAL), op(16, 's', regMeta), // one checkpoint
		op(20, 'w', regWAL), op(21, 's', regMeta),
	}
	got := checkpointSpans(ops)
	if len(got) != 1 || got[0].start != 10 || got[0].end != 16 || got[0].blocks != 3 {
		t.Fatalf("checkpoint spans %+v, want one [10,16) of 3 blocks", got)
	}
	if !overlaps(got, 15, 30) || overlaps(got, 16, 30) || overlaps(got, 0, 10) {
		t.Fatal("overlaps is wrong at the span's edges")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{id: 1, name: "batch", start: 0, end: 100},
		{id: 2, parent: 1, name: "tag", start: 10, end: 30},
		{id: 3, parent: 1, name: "tag", start: 20, end: 40},
		{id: 4, parent: 1, name: "append", start: 90, end: 120},
	}
	got := selfTimes(spans)
	if got["batch"] != 60 || got["tag"] != 40 || got["append"] != 30 {
		t.Fatalf("self times %v, want batch 60, tag 40, append 30", got)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the workloads
// and metrics this program reports, with the units it reports them in.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !equalStrings(names, want) {
		t.Errorf("workloads %v, program runs %v", names, want)
	}
	if len(b.EndToEnd) != len(contractMetrics) {
		t.Errorf("end_to_end has %d metrics, the program reports %d", len(b.EndToEnd), len(contractMetrics))
	}
	for i, m := range b.EndToEnd {
		if i < len(contractMetrics) && (m.Name != contractMetrics[i].name || m.Unit != contractMetrics[i].unit) {
			t.Errorf("end_to_end %s (%s), the program reports %s (%s)", m.Name, m.Unit, contractMetrics[i].name, contractMetrics[i].unit)
		}
	}
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.PerLayer) != len(sp.PerLayer) {
		t.Errorf("per_layer has %d metrics, spec.json %d", len(b.PerLayer), len(sp.PerLayer))
	}
	for _, m := range b.PerLayer {
		if l, ok := sp.PerLayer[m.Name]; !ok || l.Unit != m.Unit {
			t.Errorf("per_layer %s (%s) is not in spec.json with that unit", m.Name, m.Unit)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
