// Command hfadperf is the hFAD benchmark. It drives the store through its
// two real entry points, the hfad.Store API in-process and an hfadd
// server over loopback HTTP, on one of three workloads:
//
//	ingest  tag-on-ingest: 2 closed-loop writers commit Store.Batch units
//	serve   hfadd at a ladder of open-loop offered rates (read/append/find),
//	        with a closed-loop probe of the unloaded latency between rungs
//	query   read-only queries of four shapes over a full-text-indexed volume
//
// Every run checks its outputs against an oracle built from the workload
// generator and prints one JSON object as its last line. Run it through
// run.sh, which builds it from the checkout:
//
//	bash hfadperf/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1
// the run is repeated with spans on and the JSON carries the per-layer
// metrics, including the tracing overhead against the untraced pass.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"repro/internal/blockdev"
	"sort"
	"time"
)

//go:embed spec.json
var specJSON []byte

// spec is the benchmark's fixed configuration (spec.json).
type spec struct {
	Store struct {
		CachePages int    `json:"cache_pages"`
		WALBlocks  uint64 `json:"wal_blocks"`
	} `json:"store"`
	Device struct {
		Blocks      uint64 `json:"blocks"`
		SyncDelayUS int    `json:"sync_delay_us"`
	} `json:"device"`
	Load struct {
		Goroutines int `json:"goroutines"`
	} `json:"load"`
	SetupRepeats    int `json:"setup_repeats"`
	RecoveryRepeats int `json:"recovery_repeats"`
	Ingest          struct {
		Batch         int `json:"batch"`
		MaxObjects    int `json:"max_objects"`
		WarmupObjects int `json:"warmup_objects"`
		Docs          int `json:"docs"`
		Sels          int `json:"sels"`
	} `json:"ingest"`
	Serve    serveSpec            `json:"serve"`
	Query    querySpec            `json:"query"`
	PerLayer map[string]layerSpec `json:"per_layer"`
}

type serveSpec struct {
	Objects      int     `json:"objects"`
	PreloadBatch int     `json:"preload_batch"`
	Docs         int     `json:"docs"`
	Sels         int     `json:"sels"`
	ReadBytes    int     `json:"read_bytes"`
	AppendBytes  int     `json:"append_bytes"`
	FindLimit    int     `json:"find_limit"`
	Mix          mixSpec `json:"mix"`
	Ladder       []int   `json:"ladder_ops_s"`
	Reference    int     `json:"reference_ops_s"`
	ProbeShare   float64 `json:"probe_share"`
	RefShare     float64 `json:"reference_share"`
	TopShare     float64 `json:"top_share"`
	LimitP99MS   float64 `json:"limit_p99_ms"`
	MaxBacklog   float64 `json:"max_backlog_share"`
}

type querySpec struct {
	Objects      int `json:"objects"`
	PreloadBatch int `json:"preload_batch"`
	Docs         int `json:"docs"`
	Sels         int `json:"sels"`
	Limit        int `json:"limit"`
	RangeDays    int `json:"range_days"`
	RangeLimit   int `json:"range_limit"`
	PageLimit    int `json:"page_limit"`
}

// layerSpec documents a per-layer metric.
type layerSpec struct {
	Unit   string   `json:"unit"`
	Module string   `json:"module"`
	Moves  []string `json:"moves"`
	On     []string `json:"on"`
}

type mixSpec struct {
	Reads   int `json:"reads"`
	Appends int `json:"appends"`
	Finds   int `json:"finds"`
}

// contractMetrics are the end-to-end metrics the JSON line carries on
// every workload, with their units (BENCHMARK.json's end_to_end list). A
// workload that reports one in another unit, or not at all, fails the run.
var contractMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_s", "ops/s"},
	{"p50_ms", "ms"},
	{"space_amp", "ratio"},
	{"recovery_s", "s"},
}

// env is one run's settings.
type env struct {
	spec     spec
	workload string
	seed     uint64
	window   time.Duration
	writers  int
	traceDir string

	mem     *blockdev.MemDevice // reused by every volume of the run
	touched []uint64            // blocks of mem written so far
}

// report is one workload pass's outcome.
type report struct {
	attempted int64
	fails     failures // operations of the window that failed
	crash     failures // corruption the store detected after the crash
	ck        checks
	e2e       map[string]metric // every end-to-end metric, by name
	notes     []string          // sample counts and other context
	layers    map[string]float64
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layers: map[string]float64{}}
}

func (r *report) set(name string, v float64, unit string) { r.e2e[name] = metric{v, unit} }
func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func loadSpec() (spec, error) {
	var s spec
	err := json.Unmarshal(specJSON, &s)
	return s, err
}

func main() {
	var (
		wl      = flag.String("workload", "", "ingest, serve or query")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "length of the measured window")
		trace   = flag.Int("trace", 0, "1: add a traced pass and report per-layer metrics")
		out     = flag.String("trace-dir", ".bench_build/traces", "where the traced pass writes its spans")
	)
	flag.Parse()
	sp, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	e := &env{spec: sp, workload: *wl, seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		writers: sp.Load.Goroutines, traceDir: *out}
	run, ok := workloads[*wl]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (want ingest, serve or query)", *wl))
	}
	rep, err := run(e, nil)
	if err != nil {
		fatal(err)
	}
	final := rep
	if *trace == 1 {
		tr := newTracer()
		traced, err := run(e, tr)
		if err != nil {
			fatal(err)
		}
		traced.layers["trace.overhead"] = ratio(rep.e2e["ops_s"].Value, traced.e2e["ops_s"].Value) - 1
		traced.layers["dev.sleep_cost_us"] = sleepCost(e.syncDelay())
		// Per-shape query times come from the untraced pass, as the
		// end-to-end metrics do.
		for _, s := range shapeNames {
			if k := "index." + s + "_p50_ms"; rep.layers[k] != 0 {
				traced.layers[k] = rep.layers[k]
			}
		}
		final = mergeChecks(rep, traced)
	}
	for _, c := range contractMetrics {
		if m, ok := rep.e2e[c.name]; !ok || m.Unit != c.unit {
			final.ck.failf("metric %s reported as %v, BENCHMARK.json declares it in %s", c.name, m, c.unit)
		}
	}
	printHuman(os.Stdout, e, rep, final, *trace == 1)
	metrics := map[string]metric{}
	if *trace == 1 {
		for name := range sp.PerLayer {
			metrics[name] = metric{final.layers[name], sp.PerLayer[name].Unit}
		}
	} else {
		for _, c := range contractMetrics {
			metrics[c.name] = rep.e2e[c.name]
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{final.ck.n == 0, final.attempted, final.fails.total(), metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if final.ck.n != 0 {
		os.Exit(1)
	}
}

// mergeChecks returns the traced report carrying both passes' check
// failures, failed operations, detected corruptions and op counts.
func mergeChecks(untraced, traced *report) *report {
	traced.ck.n += untraced.ck.n
	traced.ck.first = append(untraced.ck.first, traced.ck.first...)
	traced.attempted += untraced.attempted
	for k, fk := range untraced.fails.kinds {
		traced.fails.add("untraced "+k, "", fk.n, errors.New(fk.first))
	}
	for k, fk := range untraced.crash.kinds {
		traced.crash.add("untraced "+k, "", fk.n, errors.New(fk.first))
	}
	return traced
}

func printHuman(w *os.File, e *env, rep, final *report, traced bool) {
	fmt.Fprintf(w, "hfadperf workload=%s seed=%d window=%s\n", e.workload, e.seed, e.window)
	names := make([]string, 0, len(rep.e2e))
	for n := range rep.e2e {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-24s %14.6g %s\n", n, rep.e2e[n].Value, rep.e2e[n].Unit)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	if traced {
		fmt.Fprintf(w, "per-layer (traced pass):\n")
		names = names[:0]
		for n := range final.layers {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, final.layers[n], e.spec.PerLayer[n].Unit)
		}
		for _, n := range final.notes {
			fmt.Fprintf(w, "  # %s\n", n)
		}
	}
	final.fails.mu.Lock()
	for k, fk := range final.fails.kinds {
		fmt.Fprintf(w, "  failed %-20s %d (first: %s)\n", k, fk.n, fk.first)
	}
	final.fails.mu.Unlock()
	final.crash.mu.Lock()
	for k, fk := range final.crash.kinds {
		fmt.Fprintf(w, "  detected corruption %-15s %d (known durability defect; first: %s)\n", k, fk.n, fk.first)
	}
	final.crash.mu.Unlock()
	for _, c := range final.ck.first {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", c)
	}
	if final.ck.n > len(final.ck.first) {
		fmt.Fprintf(w, "  ... %d check failures in all\n", final.ck.n)
	}
}

// sleepCost returns the median wall time of a time.Sleep(d), in µs: what
// charging the sync delay as a sleep would cost.
func sleepCost(d time.Duration) float64 {
	var ds []time.Duration
	for i := 0; i < 51; i++ {
		t0 := time.Now()
		time.Sleep(d)
		ds = append(ds, time.Since(t0))
	}
	return float64(medianDur(ds)) / 1e3
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hfadperf:", err)
	os.Exit(2)
}

// workloads maps a workload name to its runner. A nil tracer runs it
// untraced.
var workloads = map[string]func(*env, *tracer) (*report, error){
	"ingest": runIngest,
	"serve":  runServe,
	"query":  runQuery,
}
