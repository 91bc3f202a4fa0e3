package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"repro/hfad"
	"repro/internal/core"
	"repro/internal/osd"
)

// finish ends a workload with the crash check on v, which must be
// quiescent: every block written since the last Sync is dropped, the
// volume is reopened (recovery_s is the median of RecoveryRepeats reopens
// of the same crashed image, after an untimed one), every acknowledged
// object is verified and Store.Check runs on the recovered volume. A
// corruption the store detects (a page failing its checksum, corrupt
// object metadata) is the known durability defect an unclean reopen
// exposes: it is counted in rep.crash, with its first error text, and
// reported on every run (crash.detected_corruptions) rather than hidden.
// It is not a failed operation: every operation of the window succeeded,
// and what the corruption hits depends on when the background
// checkpointer last ran, so the count differs between runs of one seed.
// Anything else the check finds (bytes that differ, a missing name, a
// find answer the oracle disagrees with, a Check problem of another kind)
// is silent damage and fails the run. extra gives the bytes appended to
// an object after its corpus body (nil: none); closeOld shuts down what
// still holds the crashed store (nil: the store itself).
func (e *env) finish(rep *report, v *volume, o *oracle, extra func(hfad.OID) ([]byte, bool), closeOld func()) error {

	dropped, err := v.dev.simulateCrash()
	if err != nil {
		return err
	}
	if closeOld == nil {
		closeOld = func() { _ = v.st.Close() }
	}
	closeOld() // it can only fail now; closing stops the background checkpointer

	// Recover from the crashed image several times, reverting each
	// recovery's writes but the last's, and report the median time. The
	// first recovery is a warm-up and is not timed.
	var (
		recs []time.Duration
		dev  *benchDevice
		st   *hfad.Store
	)
	reopens := e.spec.RecoveryRepeats + 1
	for i := 0; i < reopens; i++ {
		dev = e.device()
		dev.journal = i < reopens-1
		runtime.GC() // every timed reopen starts from the same collector state
		t0 := time.Now()
		st, err = hfad.Open(dev, e.storeOptions())
		if i > 0 {
			recs = append(recs, time.Since(t0))
		}
		if err != nil {
			return fmt.Errorf("reopen after crash: %w", err)
		}
		if dev.journal {
			_ = st.Close() // its writes are reverted next
			if _, err := dev.simulateCrash(); err != nil {
				return err
			}
		}
	}
	rep.set("recovery_s", medianDur(recs).Seconds(), "s")
	rep.notef("recovery_s is the median of %d reopens after a warm-up one: %v", len(recs), roundDurs(recs))
	defer st.Close()
	if err := dev.loadLayout(); err != nil {
		return err
	}
	if ws := st.Stats().WAL; ws != nil {
		rep.layers["wal.replayed_records"] = float64(ws.PagesReplayed)
	}
	t1 := time.Now()
	checks := rep.ck.n
	lost := func(kind string) func(error) {
		return func(err error) {
			if detected(err) {
				rep.crash.add("crash", kind, 1, err)
			} else {
				rep.ck.failf("crash check: %v", err)
			}
		}
	}
	verified := verifyObjects(st, o, extra, lost("object"))
	tv := time.Since(t1)
	fsck(st, lost("fsck"))
	rep.layers["crash.detected_corruptions"] = float64(rep.crash.total())
	rep.notef("crash check: %d unsynced blocks dropped, %d objects and finds verified, %d detected corruptions, %d silent errors",
		dropped, verified, rep.crash.total(), rep.ck.n-checks)
	rep.notef("crash check took %s after recovery (verify %s)", time.Since(t1).Round(time.Millisecond), tv.Round(time.Millisecond))
	return nil
}

// readAll returns an object's bytes.
func readAll(st *hfad.Store, oid hfad.OID) ([]byte, error) {
	obj, err := st.OpenObject(oid)
	if err != nil {
		return nil, err
	}
	defer obj.Close()
	buf := make([]byte, obj.Size())
	n, err := obj.ReadAt(buf, 0)
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, err
	}
	return buf[:n], nil
}

// verifyObjects checks every acknowledged object of o, calls bad once per
// object that fails and returns the number of objects checked. An object
// must hold its corpus body followed by the bytes extra returns (ok false:
// unknown, so only the prefix is checked) and carry every tag the corpus
// gave it. Every group's and a sample of selective tags' answers must
// equal the oracle's.
func verifyObjects(st *hfad.Store, o *oracle, extra func(hfad.OID) ([]byte, bool), bad func(error)) int {
	for oid, i := range o.index {
		want, exact := o.c.body(i), true
		if extra != nil {
			b, ok := extra(oid)
			want, exact = append(want, b...), ok
		}
		got, err := readAll(st, oid)
		if err != nil {
			bad(fmt.Errorf("object %d: read: %w", oid, err))
			continue
		}
		if exact && !bytes.Equal(got, want) || !bytes.HasPrefix(got, want) {
			bad(fmt.Errorf("object %d: %d bytes, want %d (content differs)", oid, len(got), len(want)))
			continue
		}
		names, err := st.Names(oid)
		if err != nil {
			bad(fmt.Errorf("object %d: names: %w", oid, err))
			continue
		}
		have := map[string]bool{}
		for _, n := range names {
			if n.Tag == hfad.TagUDef {
				have[string(n.Value)] = true
			}
		}
		for _, t := range o.c.tags(i) {
			if !have[t] {
				bad(fmt.Errorf("object %d: missing name UDEF %s", oid, t))
				break
			}
		}
	}
	var qs []qspec
	for g := 0; g < numGroups; g++ {
		qs = append(qs, qspec{shape: shapePageWalk, a: groupTag(g)})
	}
	for s := 0; s < o.c.sels; s += max(1, o.c.sels/64) {
		qs = append(qs, qspec{shape: shapePageWalk, a: selTag(s)})
	}
	for _, q := range qs {
		got, err := st.QueryPage(q.query(), q.page())
		if err != nil {
			bad(fmt.Errorf("find %s: %w", q, err))
		} else if want := o.expect(q); !equalOIDs(got, want) {
			bad(fmt.Errorf("find %s: %d results, oracle has %d", q, len(got), len(want)))
		}
	}
	return len(o.index) + len(qs)
}

// fsck runs Store.Check and reports each problem to bad. Check reports
// problems as text, so a problem that quotes a detected corruption is
// reported wrapping that corruption's sentinel error.
func fsck(st *hfad.Store, bad func(error)) {
	r, err := st.Check()
	if err != nil {
		bad(fmt.Errorf("check: %w", err))
		return
	}
	for _, p := range r.Problems {
		err := fmt.Errorf("check: %s", p)
		for _, s := range corruptions {
			if strings.Contains(p, s.Error()) {
				err = fmt.Errorf("check: %s (%w)", p, s)
			}
		}
		bad(err)
	}
}

// corruptions are the errors with which the store reports corruption it
// detected: a page failing its checksum, or corrupt object metadata.
var corruptions = []error{core.ErrCorrupt, osd.ErrCorrupt}

// detected reports whether err is a corruption the store detected.
func detected(err error) bool {
	for _, s := range corruptions {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}

// roundDurs rounds each duration to a tenth of a millisecond, for notes.
func roundDurs(ds []time.Duration) []time.Duration {
	out := make([]time.Duration, len(ds))
	for i, d := range ds {
		out[i] = d.Round(100 * time.Microsecond)
	}
	return out
}
