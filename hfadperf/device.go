package main

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockdev"
)

// Device regions, classified from the superblock layout documented in
// internal/core (block 0: [16:24] WAL start, [24:32] WAL blocks, [32:40]
// snapshot start, [40:48] snapshot blocks, [48:56] data start, [56:64]
// data blocks, [80:88] checksum sidecar start, [88:96] sidecar blocks).
const (
	regMeta = iota // superblock and allocator snapshot
	regWAL
	regCsum
	regData
	numRegions
)

var regionNames = [numRegions]string{"meta", "wal", "csum", "data"}

// errDead is returned for every call after Close or simulateCrash.
var errDead = errors.New("hfadperf: device closed or crashed")

type regionBounds struct {
	walLo, walHi, csumLo, csumHi, dataLo, dataHi uint64
}

func (b regionBounds) classify(n uint64) int {
	switch {
	case n >= b.walLo && n < b.walHi:
		return regWAL
	case n >= b.csumLo && n < b.csumHi:
		return regCsum
	case n >= b.dataLo && n < b.dataHi:
		return regData
	default:
		return regMeta
	}
}

// devCounts is a snapshot of benchDevice's counters.
type devCounts struct {
	Reads, Writes [numRegions]int64 // blocks
	Syncs         int64
	SyncBusy      time.Duration // wall time spent inside Sync, delay included
}

func (c devCounts) sub(o devCounts) devCounts {
	for r := 0; r < numRegions; r++ {
		c.Reads[r] -= o.Reads[r]
		c.Writes[r] -= o.Writes[r]
	}
	c.Syncs -= o.Syncs
	c.SyncBusy -= o.SyncBusy
	return c
}

func (c devCounts) writeBlocks() int64 {
	var n int64
	for _, w := range c.Writes {
		n += w
	}
	return n
}

// devOp is one traced device call. Device spans carry no parent: their
// cause lies inside the store.
type devOp struct {
	start, end int64 // ns since the tracer's epoch
	block      uint64
	kind       uint8 // 'r' read, 'w' write, 'h' log header reset, 's' sync
	region     uint8
}

// benchDevice wraps a MemDevice for the benchmark. It charges a fixed
// delay per Sync (the flush policy: no real fsync, so shared-disk noise
// stays out of the numbers), counts blocks per region, optionally traces
// every call, and keeps the pre-image of every block written since the
// last Sync so a crash can be simulated by dropping unsynced writes.
// Closing it leaves the MemDevice open, so the next set-up can wipe and
// reuse it instead of allocating another.
type benchDevice struct {
	inner     *blockdev.MemDevice
	touched   []uint64 // bitmap of blocks ever written, shared by every wrapper of inner
	syncDelay time.Duration
	tr        *tracer // nil when untraced

	bounds atomic.Pointer[regionBounds]
	reads  [numRegions]atomic.Int64
	writes [numRegions]atomic.Int64
	syncs  atomic.Int64
	busyNS atomic.Int64

	mu   sync.Mutex
	undo map[uint64][]byte // block -> content at the last Sync
	dead bool
	// journal keeps undo across syncs, so simulateCrash reverts every
	// write since the wrapper was made: a recovery can then be repeated
	// from the same crashed image. It keeps only the blocks recovery
	// writes; MemDevice.Snapshot would copy the whole device and about
	// double an ingest run's peak memory.
	journal bool
	ops     []devOp
}

func newBenchDevice(inner *blockdev.MemDevice, touched []uint64, syncDelay time.Duration) *benchDevice {
	return &benchDevice{inner: inner, touched: touched, syncDelay: syncDelay, undo: make(map[uint64][]byte)}
}

// loadLayout reads the region bounds from the superblock. Until it is
// called every block counts as meta.
func (d *benchDevice) loadLayout() error {
	sb := make([]byte, d.inner.BlockSize())
	if err := d.inner.ReadBlock(0, sb); err != nil {
		return err
	}
	u := func(off int) uint64 { return binary.LittleEndian.Uint64(sb[off:]) }
	b := regionBounds{
		walLo: u(16), walHi: u(16) + u(24),
		dataLo: u(48), dataHi: u(48) + u(56),
		csumLo: u(80), csumHi: u(80) + u(88),
	}
	d.bounds.Store(&b)
	return nil
}

func (d *benchDevice) region(n uint64) int {
	if b := d.bounds.Load(); b != nil {
		return b.classify(n)
	}
	return regMeta
}

func (d *benchDevice) record(kind uint8, n uint64, region int, t0 time.Time) {
	if d.tr == nil {
		return
	}
	op := devOp{start: d.tr.since(t0), end: d.tr.now(), block: n, kind: kind, region: uint8(region)}
	d.mu.Lock()
	d.ops = append(d.ops, op)
	d.mu.Unlock()
}

// ReadBlock implements blockdev.Device.
func (d *benchDevice) ReadBlock(n uint64, p []byte) error {
	t0 := time.Now()
	d.mu.Lock()
	dead := d.dead
	d.mu.Unlock()
	if dead {
		return errDead
	}
	if err := d.inner.ReadBlock(n, p); err != nil {
		return err
	}
	r := d.region(n)
	d.reads[r].Add(1)
	d.record('r', n, r, t0)
	return nil
}

// WriteBlock implements blockdev.Device.
func (d *benchDevice) WriteBlock(n uint64, p []byte) error {
	t0 := time.Now()
	d.mu.Lock()
	if d.dead {
		d.mu.Unlock()
		return errDead
	}
	if _, ok := d.undo[n]; !ok {
		pre := make([]byte, len(p))
		if err := d.inner.ReadBlock(n, pre); err != nil {
			d.mu.Unlock()
			return err
		}
		d.undo[n] = pre
	}
	if n < d.inner.NumBlocks() {
		d.touched[n/64] |= 1 << (n % 64)
	}
	err := d.inner.WriteBlock(n, p)
	d.mu.Unlock()
	if err != nil {
		return err
	}
	r := d.region(n)
	d.writes[r].Add(1)
	if d.tr != nil {
		kind := uint8('w')
		if b := d.bounds.Load(); b != nil && n == b.walLo && logReset(p) {
			kind = 'h'
		}
		d.record(kind, n, r, t0)
	}
	return nil
}

// logReset reports whether p, written to the log's first block, is a bare
// log header: the write with which a checkpoint resets the log. A record
// append to that block carries records after the 24-byte header.
func logReset(p []byte) bool {
	for _, b := range p[24:] {
		if b != 0 {
			return false
		}
	}
	return true
}

// Sync implements blockdev.Device: every write that completed before the
// call becomes durable, then the fixed delay is charged. The delay is a
// busy-wait: a sub-millisecond time.Sleep oversleeps by up to a timer
// tick, and that jitter would dominate the latencies measured.
func (d *benchDevice) Sync() error {
	t0 := time.Now()
	d.mu.Lock()
	if d.dead {
		d.mu.Unlock()
		return errDead
	}
	if len(d.undo) > 0 && !d.journal {
		d.undo = make(map[uint64][]byte)
	}
	d.mu.Unlock()
	for time.Since(t0) < d.syncDelay {
	}
	d.syncs.Add(1)
	d.busyNS.Add(int64(time.Since(t0)))
	d.record('s', 0, regMeta, t0)
	return nil
}

// BlockSize implements blockdev.Device.
func (d *benchDevice) BlockSize() int { return d.inner.BlockSize() }

// NumBlocks implements blockdev.Device.
func (d *benchDevice) NumBlocks() uint64 { return d.inner.NumBlocks() }

// Close implements blockdev.Device; the inner device stays open.
func (d *benchDevice) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dead {
		return errDead
	}
	d.dead = true
	return nil
}

// wipe zeroes every block any wrapper of the inner device has written, so
// the next volume is formatted on a device as clean as a new one.
func wipe(inner *blockdev.MemDevice, touched []uint64) error {
	zero := make([]byte, inner.BlockSize())
	for w, bits := range touched {
		for b := 0; bits != 0; b++ {
			if bits&1 != 0 {
				if err := inner.WriteBlock(uint64(w*64+b), zero); err != nil {
					return err
				}
			}
			bits >>= 1
		}
		touched[w] = 0
	}
	return nil
}

// simulateCrash restores every block written since the last Sync to its
// synced content and fails every later call, so the inner device holds
// exactly what a power cut would have left. It returns the number of
// blocks dropped.
func (d *benchDevice) simulateCrash() (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dead = true
	for n, pre := range d.undo {
		if err := d.inner.WriteBlock(n, pre); err != nil {
			return 0, err
		}
	}
	dropped := len(d.undo)
	d.undo = nil
	return dropped, nil
}

func (d *benchDevice) counts() devCounts {
	var c devCounts
	for r := 0; r < numRegions; r++ {
		c.Reads[r] = d.reads[r].Load()
		c.Writes[r] = d.writes[r].Load()
	}
	c.Syncs = d.syncs.Load()
	c.SyncBusy = time.Duration(d.busyNS.Load())
	return c
}

// takeOps returns the device trace recorded so far and clears it.
func (d *benchDevice) takeOps() []devOp {
	d.mu.Lock()
	defer d.mu.Unlock()
	ops := d.ops
	d.ops = nil
	return ops
}
