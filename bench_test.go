// Package repro's root benchmarks regenerate every exhibit of the
// reproduction at micro-benchmark granularity: one Benchmark per table or
// figure (T1, F1) and per claim-derived experiment (E1–E10). The
// full-scale table-producing runs live in cmd/hfadbench; these testing.B
// variants measure the same operations per-op so `go test -bench=.`
// exercises the whole comparison surface.
package repro

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/hfad"
	"repro/internal/bench"
	"repro/internal/blockdev"
	"repro/internal/buddy"
	"repro/internal/dsearch"
	"repro/internal/extent"
	"repro/internal/hierfs"
	"repro/internal/index"
	"repro/internal/pager"
	"repro/internal/server"
	"repro/internal/workload"
)

// newStore builds a populated hFAD volume for benchmarks.
func newStore(b *testing.B, opts hfad.Options) *hfad.Store {
	b.Helper()
	st, err := hfad.Create(hfad.NewMemDevice(1<<15), opts)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

func newHier(b *testing.B) *hierfs.FS {
	b.Helper()
	fs, err := hierfs.Mkfs(blockdev.NewMem(1<<15, blockdev.DefaultBlockSize), hierfs.Config{})
	if err != nil {
		b.Fatal(err)
	}
	return fs
}

// BenchmarkT1_Table1 measures one naming resolution per Table 1 row.
func BenchmarkT1_Table1(b *testing.B) {
	st := newStore(b, hfad.Options{})
	defer st.Close()
	pfs, err := st.POSIX()
	if err != nil {
		b.Fatal(err)
	}
	if err := pfs.MkdirAll("/home/margo", 0o755); err != nil {
		b.Fatal(err)
	}
	if err := pfs.WriteFile("/home/margo/paper.tex", []byte("hierarchical file systems are dead"), 0o644); err != nil {
		b.Fatal(err)
	}
	m, err := pfs.Stat("/home/margo/paper.tex")
	if err != nil {
		b.Fatal(err)
	}
	if err := st.IndexContent(m.OID); err != nil {
		b.Fatal(err)
	}
	_ = st.Tag(m.OID, hfad.TagUser, "margo")
	_ = st.Tag(m.OID, hfad.TagUDef, "annotation:draft")
	_ = st.Tag(m.OID, hfad.TagApp, "latex")

	rows := []struct {
		name  string
		pairs []hfad.TagValue
	}{
		{"POSIX", []hfad.TagValue{hfad.TV(hfad.TagPOSIX, "/home/margo/paper.tex")}},
		{"Search_FULLTEXT", []hfad.TagValue{hfad.TV(hfad.TagFulltext, "hierarchical")}},
		{"Manual_USER", []hfad.TagValue{hfad.TV(hfad.TagUser, "margo")}},
		{"Manual_UDEF", []hfad.TagValue{hfad.TV(hfad.TagUDef, "annotation:draft")}},
		{"Applications_APP_USER", []hfad.TagValue{hfad.TV(hfad.TagApp, "latex"), hfad.TV(hfad.TagUser, "margo")}},
		{"FastPath_ID", []hfad.TagValue{hfad.TV(hfad.TagID, fmt.Sprintf("%d", m.OID))}},
	}
	for _, row := range rows {
		b.Run(row.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ids, err := st.Find(row.pairs...)
				if err != nil || len(ids) != 1 {
					b.Fatalf("find = %v, %v", ids, err)
				}
			}
		})
	}
}

// BenchmarkF1_ArchitectureWalk pushes one request through every layer of
// Figure 1 per iteration.
func BenchmarkF1_ArchitectureWalk(b *testing.B) {
	st := newStore(b, hfad.Options{})
	defer st.Close()
	pfs, err := st.POSIX()
	if err != nil {
		b.Fatal(err)
	}
	if err := pfs.MkdirAll("/walk", 0o755); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := fmt.Sprintf("/walk/f%d", i)
		if err := pfs.WriteFile(p, []byte("layer cake contents"), 0o644); err != nil {
			b.Fatal(err)
		}
		m, err := pfs.Stat(p)
		if err != nil {
			b.Fatal(err)
		}
		if err := st.Tag(m.OID, hfad.TagUDef, "walked"); err != nil {
			b.Fatal(err)
		}
		obj, err := st.OpenObject(m.OID)
		if err != nil {
			b.Fatal(err)
		}
		if err := obj.InsertAt(5, []byte(" deep")); err != nil {
			b.Fatal(err)
		}
		if _, err := obj.ReadAt(buf[:10], 0); err != nil && !errors.Is(err, io.EOF) {
			b.Fatal(err)
		}
		obj.Close()
		if err := st.Untag(m.OID, hfad.TagUDef, "walked"); err != nil {
			b.Fatal(err)
		}
		// Remove the file so the volume stays in steady state; reclaim is
		// part of the architecture walk too.
		if err := pfs.Remove(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1_SearchToData compares search-term→data-block per query.
func BenchmarkE1_SearchToData(b *testing.B) {
	const files = 64
	docs := workload.DocCorpus(99, workload.DocCorpusConfig{Docs: files, RareEvery: 1})

	b.Run("hierfs+dsearch", func(b *testing.B) {
		fs := newHier(b)
		if err := fs.MkdirAll("/a/b/c/d", 0o755); err != nil {
			b.Fatal(err)
		}
		for _, d := range docs {
			if err := fs.WriteFile("/a/b/c/d/"+d.Name, []byte(d.Text), 0o644); err != nil {
				b.Fatal(err)
			}
		}
		eng, err := dsearch.New(fs, "/index.db", 4096)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Crawl("/"); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := eng.SearchToData(fmt.Sprintf("marker%d", i%files)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hFAD", func(b *testing.B) {
		st := newStore(b, hfad.Options{})
		defer st.Close()
		for _, d := range docs {
			obj, err := st.CreateObject("u")
			if err != nil {
				b.Fatal(err)
			}
			if err := obj.Append([]byte(d.Text)); err != nil {
				b.Fatal(err)
			}
			if err := st.IndexContent(obj.OID()); err != nil {
				b.Fatal(err)
			}
			obj.Close()
		}
		buf := make([]byte, 4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ids, err := st.Find(hfad.TV(hfad.TagFulltext, fmt.Sprintf("marker%d", i%files)))
			if err != nil || len(ids) == 0 {
				b.Fatalf("find: %v %v", ids, err)
			}
			obj, err := st.OpenObject(ids[0])
			if err != nil {
				b.Fatal(err)
			}
			if _, err := obj.ReadAt(buf, 0); err != nil && !errors.Is(err, io.EOF) {
				b.Fatal(err)
			}
			obj.Close()
		}
	})
}

// BenchmarkE2_SharedAncestor measures parallel name resolution.
func BenchmarkE2_SharedAncestor(b *testing.B) {
	const users = 64
	b.Run("hierfs", func(b *testing.B) {
		fs := newHier(b)
		if err := fs.MkdirAll("/home", 0o755); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < users; i++ {
			d := fmt.Sprintf("/home/u%02d", i)
			if err := fs.Mkdir(d, 0o755); err != nil {
				b.Fatal(err)
			}
			if err := fs.WriteFile(d+"/f", []byte("x"), 0o644); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, err := fs.Lookup(fmt.Sprintf("/home/u%02d/f", i%users)); err != nil {
					b.Error(err)
					return
				}
				i++
			}
		})
	})
	b.Run("hFAD", func(b *testing.B) {
		st := newStore(b, hfad.Options{IndexShards: 8})
		defer st.Close()
		for i := 0; i < users; i++ {
			obj, err := st.CreateObject("u")
			if err != nil {
				b.Fatal(err)
			}
			if err := st.Tag(obj.OID(), hfad.TagUser, fmt.Sprintf("u%02d", i)); err != nil {
				b.Fatal(err)
			}
			obj.Close()
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, err := st.Find(hfad.TV(hfad.TagUser, fmt.Sprintf("u%02d", i%users))); err != nil {
					b.Error(err)
					return
				}
				i++
			}
		})
	})
}

// BenchmarkE3_MiddleInsert inserts 24 bytes at the middle of a 1 MiB
// object.
func BenchmarkE3_MiddleInsert(b *testing.B) {
	const size = 1 << 20
	content := workload.NewRng(3).Bytes(size)
	ins := []byte("spliced into the middle!")

	// Inserts land at a fixed offset; every resetEvery iterations the
	// accumulated bytes are deleted (outside the timer) so the object —
	// and the device — stay in steady state at any b.N.
	const resetEvery = 2048
	b.Run("hierfs", func(b *testing.B) {
		fs := newHier(b)
		if err := fs.WriteFile("/victim", content, 0o644); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i > 0 && i%resetEvery == 0 {
				b.StopTimer()
				if err := fs.DeleteRangeAt("/victim", size/2, resetEvery*uint64(len(ins))); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			if err := fs.InsertAt("/victim", size/2, ins); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hFAD", func(b *testing.B) {
		st := newStore(b, hfad.Options{})
		defer st.Close()
		obj, err := st.CreateObject("u")
		if err != nil {
			b.Fatal(err)
		}
		if err := obj.Append(content); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i > 0 && i%resetEvery == 0 {
				b.StopTimer()
				if err := obj.TruncateRange(size/2, resetEvery*uint64(len(ins))); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			if err := obj.InsertAt(size/2, ins); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE4_MultiNaming compares adding one more categorization.
func BenchmarkE4_MultiNaming(b *testing.B) {
	content := workload.NewRng(4).Bytes(16 << 10)
	b.Run("hierfs-copy", func(b *testing.B) {
		fs := newHier(b)
		if err := fs.MkdirAll("/c", 0o755); err != nil {
			b.Fatal(err)
		}
		if err := fs.WriteFile("/c/item", content, 0o644); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i > 0 && i%256 == 0 {
				b.StopTimer()
				for j := i - 256; j < i; j++ {
					if err := fs.Remove(fmt.Sprintf("/c/copy%d", j)); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
			}
			data, err := fs.ReadFile("/c/item")
			if err != nil {
				b.Fatal(err)
			}
			if err := fs.WriteFile(fmt.Sprintf("/c/copy%d", i), data, 0o644); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hFAD-tag", func(b *testing.B) {
		st := newStore(b, hfad.Options{})
		defer st.Close()
		obj, err := st.CreateObject("u")
		if err != nil {
			b.Fatal(err)
		}
		if err := obj.Append(content); err != nil {
			b.Fatal(err)
		}
		oid := obj.OID()
		obj.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Cycle the value space: re-tagging an existing name is an
			// idempotent index put, so state stays bounded at any b.N.
			if err := st.Tag(oid, hfad.TagUDef, fmt.Sprintf("collection:%d", i%4096)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE5_AttributeSearch runs the person∧place conjunction against
// a 1000-photo library.
func BenchmarkE5_AttributeSearch(b *testing.B) {
	lib := workload.MediaLibrary(2025, workload.MediaLibraryConfig{Photos: 1000, MinSize: 1 << 10, MaxSize: 4 << 10})
	person, place := "person:"+lib[0].Person, "place:"+lib[0].Place

	b.Run("hFAD-conjunction", func(b *testing.B) {
		st := newStore(b, hfad.Options{})
		defer st.Close()
		for _, p := range lib {
			obj, err := st.CreateObject("u")
			if err != nil {
				b.Fatal(err)
			}
			oid := obj.OID()
			obj.Close()
			_ = st.Tag(oid, hfad.TagUDef, "person:"+p.Person)
			_ = st.Tag(oid, hfad.TagUDef, "place:"+p.Place)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.Find(hfad.TV(hfad.TagUDef, person), hfad.TV(hfad.TagUDef, place)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hierfs-walk", func(b *testing.B) {
		fs := newHier(b)
		made := map[string]bool{}
		for _, p := range lib {
			if !made[p.Dir] {
				if err := fs.MkdirAll(p.Dir, 0o755); err != nil {
					b.Fatal(err)
				}
				made[p.Dir] = true
			}
			meta := fmt.Sprintf("person=%s place=%s\n", p.Person, p.Place)
			if err := fs.WriteFile(p.Path(), []byte(meta), 0o644); err != nil {
				b.Fatal(err)
			}
		}
		buf := make([]byte, 128)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			found := 0
			err := fs.Walk("/photos", func(pp string, info hierfs.FileInfo) error {
				if info.IsDir() {
					return nil
				}
				if _, err := fs.ReadAt(pp, buf, 0); err != nil && !errors.Is(err, io.EOF) {
					return err
				}
				found++
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE6_ClusteringIllusory reads one photo set per iteration under
// the two access patterns.
func BenchmarkE6_ClusteringIllusory(b *testing.B) {
	lib := workload.MediaLibrary(7, workload.MediaLibraryConfig{Photos: 300, MinSize: 4 << 10, MaxSize: 8 << 10, Years: 2})
	fs := newHier(b)
	made := map[string]bool{}
	for _, p := range lib {
		if !made[p.Dir] {
			if err := fs.MkdirAll(p.Dir, 0o755); err != nil {
				b.Fatal(err)
			}
			made[p.Dir] = true
		}
		if err := fs.WriteFile(p.Path(), workload.NewRng(1).Bytes(p.Size), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	byDir := map[string][]workload.Photo{}
	byPerson := map[string][]workload.Photo{}
	for _, p := range lib {
		byDir[p.Dir] = append(byDir[p.Dir], p)
		byPerson[p.Person] = append(byPerson[p.Person], p)
	}
	var dirKey, personKey string
	for k := range byDir {
		if len(byDir[k]) > len(byDir[dirKey]) {
			dirKey = k
		}
	}
	for k := range byPerson {
		if len(byPerson[k]) > len(byPerson[personKey]) {
			personKey = k
		}
	}
	read := func(b *testing.B, set []workload.Photo) {
		for i := 0; i < b.N; i++ {
			for _, p := range set {
				buf := make([]byte, p.Size)
				if _, err := fs.ReadAt(p.Path(), buf, 0); err != nil && !errors.Is(err, io.EOF) {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("one-directory", func(b *testing.B) { read(b, byDir[dirKey]) })
	b.Run("one-person", func(b *testing.B) { read(b, byPerson[personKey]) })
}

// BenchmarkE7_ExtentMapAblation inserts mid-object with both extent maps.
func BenchmarkE7_ExtentMapAblation(b *testing.B) {
	const extents = 2000
	const extentSize = 4096
	content := workload.NewRng(1).Bytes(extentSize)

	b.Run("counted-tree", func(b *testing.B) {
		dev := blockdev.NewMem(1<<16, blockdev.DefaultBlockSize)
		pg := pager.New(dev, 2048, true)
		ba := buddy.New(1, 1<<16-1)
		ct, err := extent.Create(pg, ba, extent.Config{MaxExtentBytes: extentSize})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < extents; i++ {
			if err := ct.WriteAt(content, ct.Size()); err != nil {
				b.Fatal(err)
			}
		}
		mid := ct.Size() / 2
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i > 0 && i%2048 == 0 {
				b.StopTimer()
				if err := ct.DeleteRange(mid, 2048*100); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			if err := ct.InsertAt(mid, content[:100]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("offset-keyed", func(b *testing.B) {
		dev := blockdev.NewMem(1<<16, blockdev.DefaultBlockSize)
		pg := pager.New(dev, 2048, true)
		ba := buddy.New(1, 1<<16-1)
		km, err := extent.NewKeyedMap(pg, ba, extent.Config{MaxExtentBytes: extentSize})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < extents; i++ {
			if err := km.Append(content); err != nil {
				b.Fatal(err)
			}
		}
		mid := km.Size() / 2
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i > 0 && i%512 == 0 {
				b.StopTimer()
				if err := km.DeleteRange(mid, 512*100); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			if err := km.InsertAt(mid, content[:100]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE8_IndexSharding measures parallel tag lookups by shard count.
func BenchmarkE8_IndexSharding(b *testing.B) {
	const users = 64
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			st := newStore(b, hfad.Options{IndexShards: shards})
			defer st.Close()
			for i := 0; i < users; i++ {
				obj, err := st.CreateObject("u")
				if err != nil {
					b.Fatal(err)
				}
				if err := st.Tag(obj.OID(), hfad.TagUser, fmt.Sprintf("u%02d", i)); err != nil {
					b.Fatal(err)
				}
				obj.Close()
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if _, err := st.Find(hfad.TV(hfad.TagUser, fmt.Sprintf("u%02d", i%users))); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
		})
	}
}

// BenchmarkE9_LazyIndexing measures per-document ingest cost with
// synchronous vs background indexing.
func BenchmarkE9_LazyIndexing(b *testing.B) {
	text := workload.DocCorpus(1, workload.DocCorpusConfig{Docs: 1, WordsPer: 150})[0].Text
	// Ingest accumulates objects and postings; recreate the store every
	// resetEvery iterations (outside the timer) for steady state.
	const resetEvery = 2048
	b.Run("synchronous", func(b *testing.B) {
		st := newStore(b, hfad.Options{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i > 0 && i%resetEvery == 0 {
				b.StopTimer()
				st.Close()
				st = newStore(b, hfad.Options{})
				b.StartTimer()
			}
			obj, err := st.CreateObject("u")
			if err != nil {
				b.Fatal(err)
			}
			if err := obj.Append([]byte(text)); err != nil {
				b.Fatal(err)
			}
			if err := st.IndexContent(obj.OID()); err != nil {
				b.Fatal(err)
			}
			obj.Close()
		}
		b.StopTimer()
		st.Close()
	})
	b.Run("lazy", func(b *testing.B) {
		st := newStore(b, hfad.Options{})
		st.StartLazyIndexing(1 << 16)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i > 0 && i%resetEvery == 0 {
				b.StopTimer()
				st.WaitIndexIdle()
				st.Close()
				st = newStore(b, hfad.Options{})
				st.StartLazyIndexing(1 << 16)
				b.StartTimer()
			}
			obj, err := st.CreateObject("u")
			if err != nil {
				b.Fatal(err)
			}
			if err := obj.Append([]byte(text)); err != nil {
				b.Fatal(err)
			}
			if err := st.IndexContentLazy(obj.OID()); err != nil {
				b.Fatal(err)
			}
			obj.Close()
		}
		b.StopTimer()
		st.WaitIndexIdle()
		st.Close()
	})
}

// BenchmarkE10_TransactionalOSD measures the create+write+tag mix with
// the WAL off and on.
func BenchmarkE10_TransactionalOSD(b *testing.B) {
	payload := workload.NewRng(5).Bytes(8 << 10)
	for _, transactional := range []bool{false, true} {
		name := "wal-off"
		if transactional {
			name = "wal-on"
		}
		b.Run(name, func(b *testing.B) {
			opts := hfad.Options{Transactional: transactional}
			st := newStore(b, opts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%2048 == 0 {
					b.StopTimer()
					st.Close()
					st = newStore(b, opts)
					b.StartTimer()
				}
				obj, err := st.CreateObject("u")
				if err != nil {
					b.Fatal(err)
				}
				if err := obj.Append(payload); err != nil {
					b.Fatal(err)
				}
				if err := st.Tag(obj.OID(), hfad.TagUDef, fmt.Sprintf("b:%d", i%10)); err != nil {
					b.Fatal(err)
				}
				obj.Close()
			}
			b.StopTimer()
			st.Close()
		})
	}
}

// newSyncCostStore builds a transactional store (16 MiB log) over
// bench.SyncCostDevice — a device with a flush cost per sync, the same
// model the E13/E14 hfadbench runners measure against.
func newSyncCostStore(b *testing.B, opts hfad.Options) *hfad.Store {
	b.Helper()
	st, err := bench.NewSyncCostStore(1<<15, opts)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkE13_GroupCommit is the group-commit exhibit: N concurrent
// writers ingest (create + append + tag) against a wal-on volume. The
// group path shares one log append + one sync per batch of concurrent
// commits. syncs/op is the amortization receipt: ≪1 under concurrency.
func BenchmarkE13_GroupCommit(b *testing.B) {
	payload := workload.NewRng(13).Bytes(512)
	run := func(b *testing.B, writers int) {
		opts := hfad.Options{Transactional: true}
		st := newSyncCostStore(b, opts)
		syncs0 := st.Volume().WAL().Stats().Syncs
		var syncs int64
		b.ResetTimer()
		// Work in rounds so the device stays in steady state at any b.N.
		const roundSize = 2048
		remaining := b.N
		for remaining > 0 {
			n := remaining
			if n > roundSize {
				n = roundSize
			}
			remaining -= n
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for {
						i := next.Add(1)
						if i > int64(n) {
							return
						}
						obj, err := st.CreateObject("w")
						if err != nil {
							b.Error(err)
							return
						}
						if err := obj.Append(payload); err != nil {
							b.Error(err)
							return
						}
						if err := st.Tag(obj.OID(), hfad.TagUDef, fmt.Sprintf("g:%d", i%10)); err != nil {
							b.Error(err)
							return
						}
						obj.Close()
					}
				}(w)
			}
			wg.Wait()
			if remaining > 0 {
				b.StopTimer()
				syncs += st.Volume().WAL().Stats().Syncs - syncs0
				st.Close()
				st = newSyncCostStore(b, opts)
				syncs0 = st.Volume().WAL().Stats().Syncs
				b.StartTimer()
			}
		}
		b.StopTimer()
		syncs += st.Volume().WAL().Stats().Syncs - syncs0
		st.Close()
		b.ReportMetric(float64(syncs)/float64(b.N), "syncs/op")
	}
	for _, writers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("writers-%d", writers), func(b *testing.B) {
			run(b, writers)
		})
	}
}

// BenchmarkE14_BatchedIngest measures per-object ingest cost when the
// Batch API composes create + append + tag + index-content into one
// commit unit (one write set, one group enqueue, batched index
// multi-puts) versus issuing the same four operations individually (four
// transactions per object).
func BenchmarkE14_BatchedIngest(b *testing.B) {
	text := []byte(workload.DocCorpus(14, workload.DocCorpusConfig{Docs: 1, WordsPer: 40})[0].Text)
	opts := hfad.Options{Transactional: true}
	const roundSize = 2048
	ingestOne := func(st *hfad.Store, i int) error {
		obj, err := st.CreateObject("u")
		if err != nil {
			return err
		}
		defer obj.Close()
		if err := obj.Append(text); err != nil {
			return err
		}
		if err := st.Tag(obj.OID(), hfad.TagUDef, fmt.Sprintf("lot:%d", i%50)); err != nil {
			return err
		}
		return st.IndexContent(obj.OID())
	}
	b.Run("unbatched", func(b *testing.B) {
		st := newSyncCostStore(b, opts)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i > 0 && i%roundSize == 0 {
				b.StopTimer()
				st.Close()
				st = newSyncCostStore(b, opts)
				b.StartTimer()
			}
			if err := ingestOne(st, i); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		st.Close()
	})
	b.Run("batched-64", func(b *testing.B) {
		st := newSyncCostStore(b, opts)
		b.ResetTimer()
		done := 0
		for done < b.N {
			if done > 0 && done%roundSize == 0 {
				b.StopTimer()
				st.Close()
				st = newSyncCostStore(b, opts)
				b.StartTimer()
			}
			n := b.N - done
			if n > 64 {
				n = 64
			}
			err := st.Batch(func(bb *hfad.Batch) error {
				for i := 0; i < n; i++ {
					obj, err := bb.CreateObject("u")
					if err != nil {
						return err
					}
					if err := bb.Append(obj, text); err != nil {
						obj.Close()
						return err
					}
					if err := bb.Tag(obj.OID(), hfad.TagUDef, fmt.Sprintf("lot:%d", (done+i)%50)); err != nil {
						obj.Close()
						return err
					}
					if err := bb.IndexContent(obj.OID()); err != nil {
						obj.Close()
						return err
					}
					obj.Close()
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			done += n
		}
		b.StopTimer()
		st.Close()
	})
}

// BenchmarkE18_BigBatch is the steal-pager exhibit per-op: one Batch
// whose dirty page set is a multiple of the cache (each created object
// dirties its own extent-header page). Uncommitted dirty pages evict
// behind chunk-flushed log records; the batch commits without the
// retired flush-the-cache fallback. steals/op is the receipt.
func BenchmarkE18_BigBatch(b *testing.B) {
	const cachePages = 128
	const objects = 2 * cachePages // dirty set 2× the cache per batch
	opts := hfad.Options{Transactional: true, WALBlocks: 8192, CachePages: cachePages}
	payload := []byte("steal pager exhibit: uncommitted dirty pages evict behind the log")
	st := newSyncCostStore(b, opts)
	steals0 := st.Volume().Pager().Stats().Steals
	var steals int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%16 == 0 {
			b.StopTimer()
			steals += st.Volume().Pager().Stats().Steals - steals0
			st.Close()
			st = newSyncCostStore(b, opts)
			steals0 = st.Volume().Pager().Stats().Steals
			b.StartTimer()
		}
		err := st.Batch(func(bb *hfad.Batch) error {
			for j := 0; j < objects; j++ {
				obj, err := bb.CreateObject("u")
				if err != nil {
					return err
				}
				if err := bb.Append(obj, payload); err != nil {
					obj.Close()
					return err
				}
				obj.Close()
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	steals += st.Volume().Pager().Stats().Steals - steals0
	if fb := st.Volume().CheckpointFallbacks(); fb != 0 {
		b.Fatalf("%d checkpoint fallbacks — steal should have carried every batch", fb)
	}
	st.Close()
	b.ReportMetric(float64(steals)/float64(b.N), "steals/op")
}

// BenchmarkE11_SelectiveAnd is the streaming-engine exhibit: a
// conjunction of a broad tag (many objects) with a selective one (a
// handful). The slice baseline reproduces the old evaluator — materialize
// both posting lists, intersect — while the iterator engine seeks the
// broad index once per candidate. The oids-materialized/op metric counts
// how many OIDs each strategy pulled out of the indexes.
func BenchmarkE11_SelectiveAnd(b *testing.B) {
	const broad = 20000
	const rareEvery = 2000                                           // 10 selective hits
	st, err := hfad.Create(hfad.NewMemDevice(1<<17), hfad.Options{}) // 512 MiB
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < broad; i++ {
		obj, err := st.CreateObject("u")
		if err != nil {
			b.Fatal(err)
		}
		oid := obj.OID()
		obj.Close()
		if err := st.Tag(oid, hfad.TagUDef, "common"); err != nil {
			b.Fatal(err)
		}
		if i%rareEvery == 0 {
			if err := st.Tag(oid, hfad.TagUDef, "rare"); err != nil {
				b.Fatal(err)
			}
		}
	}
	q := hfad.And{Kids: []hfad.Query{
		hfad.Term{Tag: hfad.TagUDef, Value: []byte("common")},
		hfad.Term{Tag: hfad.TagUDef, Value: []byte("rare")},
	}}

	b.Run("slices", func(b *testing.B) {
		udef, err := st.Volume().Registry().Get(hfad.TagUDef)
		if err != nil {
			b.Fatal(err)
		}
		var materialized int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// The pre-iterator evaluator: full Lookup per term, then
			// slice intersection.
			common, err := udef.Lookup([]byte("common"))
			if err != nil {
				b.Fatal(err)
			}
			rare, err := udef.Lookup([]byte("rare"))
			if err != nil {
				b.Fatal(err)
			}
			ids := index.IntersectOIDs(rare, common)
			if len(ids) != broad/rareEvery {
				b.Fatalf("got %d ids", len(ids))
			}
			materialized += int64(len(common) + len(rare))
		}
		b.ReportMetric(float64(materialized)/float64(b.N), "oids-materialized/op")
	})
	b.Run("iterators", func(b *testing.B) {
		var materialized int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ids, steps, err := st.Profile(q, hfad.Page{})
			if err != nil {
				b.Fatal(err)
			}
			if len(ids) != broad/rareEvery {
				b.Fatalf("got %d ids", len(ids))
			}
			for _, s := range steps {
				materialized += s.Steps
			}
		}
		b.ReportMetric(float64(materialized)/float64(b.N), "oids-materialized/op")
	})
	b.Run("iterators-limit1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ids, err := st.QueryPage(q, hfad.Page{Limit: 1})
			if err != nil || len(ids) != 1 {
				b.Fatalf("page = %v, %v", ids, err)
			}
		}
	})
}

// BenchmarkE12_PaginatedQuery pages through a broad tag with Limit/After
// versus materializing the full result each time — the "directory too big
// to list" workload a search-based namespace must serve.
func BenchmarkE12_PaginatedQuery(b *testing.B) {
	const n = 10000
	const pageSize = 20
	st := newStore(b, hfad.Options{})
	defer st.Close()
	for i := 0; i < n; i++ {
		obj, err := st.CreateObject("u")
		if err != nil {
			b.Fatal(err)
		}
		oid := obj.OID()
		obj.Close()
		if err := st.Tag(oid, hfad.TagUDef, "bulk"); err != nil {
			b.Fatal(err)
		}
	}
	term := hfad.Term{Tag: hfad.TagUDef, Value: []byte("bulk")}
	b.Run("full-materialize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ids, err := st.Query(term)
			if err != nil || len(ids) != n {
				b.Fatalf("query = %d, %v", len(ids), err)
			}
		}
	})
	b.Run("first-page", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ids, err := st.QueryPage(term, hfad.Page{Limit: pageSize})
			if err != nil || len(ids) != pageSize {
				b.Fatalf("page = %d, %v", len(ids), err)
			}
		}
	})
}

// BenchmarkAblation_MaxExtentBytes measures the DESIGN.md decision that
// bounds extents (and therefore the copy a mid-extent split performs):
// smaller caps mean cheaper splits but more extents to manage.
func BenchmarkAblation_MaxExtentBytes(b *testing.B) {
	const objectSize = 4 << 20
	for _, maxExtent := range []uint32{64 << 10, 256 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("cap-%dK", maxExtent>>10), func(b *testing.B) {
			st := newStore(b, hfad.Options{MaxExtentBytes: maxExtent})
			defer st.Close()
			obj, err := st.CreateObject("u")
			if err != nil {
				b.Fatal(err)
			}
			if err := obj.Append(workload.NewRng(9).Bytes(objectSize)); err != nil {
				b.Fatal(err)
			}
			rng := workload.NewRng(11)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%2048 == 0 {
					b.StopTimer()
					if err := obj.Truncate(0); err != nil {
						b.Fatal(err)
					}
					if err := obj.Append(workload.NewRng(9).Bytes(objectSize)); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				// Insert at a random unaligned offset so splits happen.
				off := uint64(rng.IntN(objectSize-1)) | 1
				if err := obj.InsertAt(off, []byte("x")); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_RenameSubtree measures the DESIGN.md decision to key
// the POSIX index by full path: renaming a directory rewrites every
// descendant's names, where the inode-based hierarchy edits two directory
// entries. The flip side of that trade is hFAD's O(1) path lookup.
func BenchmarkAblation_RenameSubtree(b *testing.B) {
	const files = 64
	b.Run("hFAD-posix", func(b *testing.B) {
		st := newStore(b, hfad.Options{})
		defer st.Close()
		pfs, err := st.POSIX()
		if err != nil {
			b.Fatal(err)
		}
		if err := pfs.MkdirAll("/tree0/sub", 0o755); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < files; i++ {
			if err := pfs.WriteFile(fmt.Sprintf("/tree0/sub/f%02d", i), []byte("x"), 0o644); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := pfs.Rename(fmt.Sprintf("/tree%d", i), fmt.Sprintf("/tree%d", i+1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hierfs", func(b *testing.B) {
		fs := newHier(b)
		if err := fs.MkdirAll("/tree0/sub", 0o755); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < files; i++ {
			if err := fs.WriteFile(fmt.Sprintf("/tree0/sub/f%02d", i), []byte("x"), 0o644); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := fs.Rename(fmt.Sprintf("/tree%d", i), fmt.Sprintf("/tree%d", i+1)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE15_LogAmplification measures WAL bytes per small naming edit
// at 1 and 16 concurrent writers: physiological redo records log the
// typed edit itself. One UDEF shard so the writers genuinely contend on
// shared leaves. log-bytes/op is the exhibit.
func BenchmarkE15_LogAmplification(b *testing.B) {
	run := func(b *testing.B, writers int) {
		opts := hfad.Options{Transactional: true, IndexShards: 1}
		st := newSyncCostStore(b, opts)
		oids := make([]hfad.OID, 16)
		for i := range oids {
			obj, err := st.CreateObject("w")
			if err != nil {
				b.Fatal(err)
			}
			oids[i] = obj.OID()
			obj.Close()
		}
		bytes0 := st.Volume().WAL().Stats().BytesLogged
		var logged int64
		b.ResetTimer()
		const roundSize = 4096
		remaining := b.N
		for remaining > 0 {
			n := remaining
			if n > roundSize {
				n = roundSize
			}
			remaining -= n
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for {
						i := next.Add(1)
						if i > int64(n) {
							return
						}
						if err := st.Tag(oids[w%len(oids)], hfad.TagUDef, fmt.Sprintf("v:%d:%d", w, i)); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if remaining > 0 {
				b.StopTimer()
				logged += st.Volume().WAL().Stats().BytesLogged - bytes0
				st.Close()
				st = newSyncCostStore(b, opts)
				for i := range oids {
					obj, err := st.CreateObject("w")
					if err != nil {
						b.Fatal(err)
					}
					oids[i] = obj.OID()
					obj.Close()
				}
				bytes0 = st.Volume().WAL().Stats().BytesLogged
				b.StartTimer()
			}
		}
		b.StopTimer()
		logged += st.Volume().WAL().Stats().BytesLogged - bytes0
		st.Close()
		b.ReportMetric(float64(logged)/float64(b.N), "log-bytes/op")
	}
	for _, writers := range []int{1, 16} {
		b.Run(fmt.Sprintf("physiological-writers-%d", writers), func(b *testing.B) {
			run(b, writers)
		})
	}
}

// BenchmarkE16_ExtentLogAmplification measures WAL bytes per small
// *data-path* edit at 16 concurrent writers, each appending 64 bytes to
// its own large multi-node extent tree: physiological extent records log
// the cell rewrite, count deltas, and two short header ranges.
// log-bytes/op is the exhibit.
func BenchmarkE16_ExtentLogAmplification(b *testing.B) {
	const writers = 16
	b.Run("physiological", func(b *testing.B) {
		st := newSyncCostStore(b, hfad.Options{
			Transactional:  true,
			WALBlocks:      8192,
			MaxExtentBytes: 4096,
		})
		defer st.Close()
		objs := make([]*hfad.Object, writers)
		chunk := make([]byte, 4096)
		for i := range objs {
			obj, err := st.CreateObject("w")
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < 300; j++ { // ~300 extents: a multi-node tree
				if err := obj.Append(chunk); err != nil {
					b.Fatal(err)
				}
			}
			objs[i] = obj
		}
		defer func() {
			for _, o := range objs {
				o.Close()
			}
		}()
		bytes0 := st.Volume().WAL().Stats().BytesLogged
		var next atomic.Int64
		b.ResetTimer()
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				buf := make([]byte, 64)
				for {
					i := next.Add(1)
					if i > int64(b.N) {
						return
					}
					buf[0] = byte(i)
					if err := objs[w].Append(buf); err != nil {
						b.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		b.StopTimer()
		logged := st.Volume().WAL().Stats().BytesLogged - bytes0
		b.ReportMetric(float64(logged)/float64(b.N), "log-bytes/op")
	})
}

// BenchmarkE17_ServerFanIn measures the hfadd ingest path per-op: 16
// concurrent client connections creating objects over loopback HTTP,
// coalesced server-side into shared transactions (E17's claim at
// micro-benchmark granularity). Reported syncs/op should sit well
// below 1.
func BenchmarkE17_ServerFanIn(b *testing.B) {
	st, err := bench.NewSyncCostStore(1<<15, hfad.Options{
		Transactional: true,
		WALBlocks:     4096,
	})
	if err != nil {
		b.Fatal(err)
	}
	srv := server.New(st, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-serveDone
	}()

	const conns = 16
	clients := make([]*server.Client, conns)
	for i := range clients {
		clients[i] = server.NewClient(ln.Addr().String())
	}
	payload := workload.NewRng(17).Bytes(96)
	syncs0 := st.Volume().WAL().Stats().Syncs

	var next atomic.Int64
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := clients[w]
			for {
				i := next.Add(1)
				if i > int64(b.N) {
					return
				}
				_, err := c.Create(&server.CreateReq{
					Data: payload,
					Tags: []server.TagPair{{Tag: hfad.TagUDef, Value: fmt.Sprintf("g:%d", i%10)}},
				})
				if err != nil {
					b.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	syncs := st.Volume().WAL().Stats().Syncs - syncs0
	b.ReportMetric(float64(syncs)/float64(b.N), "syncs/op")
}
