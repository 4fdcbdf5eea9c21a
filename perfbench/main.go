// Command perfbench is the repository benchmark. One process generates all
// load for one of two workloads, checks every answer against recorded
// golden answers, and prints its metrics as the last line of standard
// output:
//
//	perfbench --workload mixed-zipf|fleet-1000 --seed N --seconds S --trace 0|1
//
// With --trace 0 the line carries the end-to-end metrics; with --trace 1
// the run measures the workload twice (untraced, then traced), replays
// child-layer calls standalone, and reports the per-layer metrics, the
// tracing overhead, and writes its spans. See README.md for the metric →
// layer → workload table; run.sh builds and runs it from the source tree.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runCtx is what one workload phase needs.
type runCtx struct {
	seed    int64
	seconds float64
	tr      *tracer // nil: untraced
	gold    *goldens
}

// deadlines returns when a phase that started at t0 stops issuing work,
// and the hard stop it may extend to while it still lacks its minimum
// sample count.
func (rc *runCtx) deadlines(t0 time.Time) (soft, hard time.Time) {
	d := time.Duration(rc.seconds * float64(time.Second))
	ext := d
	if ext > 30*time.Second {
		ext = 30 * time.Second
	}
	return t0.Add(d), t0.Add(d + ext)
}

// phase is one measured pass of a workload: its operation counts, set-up
// and latency samples, and the raw observations the per-layer metrics are
// computed from.
type phase struct {
	attempted, failed int
	failures          []string
	setupS            []float64
	latMs             []float64 // the workload's timed operation, in completion order
	tailQ             float64   // tail percentile; 1 = slowest of the first tailN operations
	tailN             int
	detail            map[string]any
	layers            map[string]float64 // per-layer observations made during the phase
	replay            any                // workload-specific inputs for its replays
}

func (p *phase) fail(format string, args ...any) {
	p.failed++
	if len(p.failures) < 10 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd is the --trace 0 metric set, shared by every workload.
func (p *phase) endToEnd() map[string]metric {
	m := map[string]metric{}
	if len(p.setupS) > 0 {
		m["setup_s"] = metric{median(p.setupS), "s"}
	}
	if len(p.latMs) > 0 {
		m["p50_ms"] = metric{median(p.latMs), "ms"}
	}
	if p.tailQ >= 1 {
		// A fixed sample count: the maximum of more samples is larger,
		// so a faster program that fits more operations into the phase
		// would otherwise read a worse tail.
		if len(p.latMs) >= p.tailN {
			m["tail_ms"] = metric{maxOf(p.latMs[:p.tailN]), "ms"}
		}
	} else if v, ok := percentile(p.latMs, p.tailQ); ok {
		m["tail_ms"] = metric{v, "ms"}
	}
	return m
}

type workloadDef struct {
	run    func(rc *runCtx) (*phase, error)
	layers func(rc *runCtx, p *phase) error // traced run only: replays into p.layers
}

var workloads = map[string]workloadDef{
	"mixed-zipf": {runMixed, mixedLayers},
	"fleet-1000": {runFleet, fleetLayers},
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "mixed-zipf | fleet-1000")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds per phase")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span and host records")
	rec := fs.String("record", "", "recompute one golden file (steady-coarse|transient|fleet) into -golden")
	goldenDir := fs.String("golden", "golden", "golden directory written by -record")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *rec != "" {
		if err := record(*rec, *goldenDir); err != nil {
			fmt.Fprintln(stderr, "perfbench: record:", err)
			return 1
		}
		return 0
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload mixed-zipf|fleet-1000, --seconds > 0, --trace 0|1\n")
		return 2
	}
	gold, err := loadGoldens()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: golden answers:", err)
		return 1
	}
	rc := &runCtx{seed: *seed, seconds: *seconds, gold: gold}
	host := hostRecord(*seed)

	p, err := wl.run(rc)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res := result{Attempted: p.attempted, Failed: p.failed, Metrics: p.endToEnd()}
	info := map[string]any{"workload": *name, "host": host, "samples": len(p.latMs), "detail": p.detail}
	if *trace == 1 {
		tr := newTracer()
		rc.tr = tr
		tp, err := wl.run(rc)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: traced phase:", err)
			return 1
		}
		if err := wl.layers(rc, tp); err != nil {
			fmt.Fprintln(stderr, "perfbench: replays:", err)
			return 1
		}
		stream := measureStream()
		lm, labels, noise := layerMetrics(p, tp, stream, tr)
		res = result{Attempted: p.attempted + tp.attempted, Failed: p.failed + tp.failed, Metrics: lm}
		p.failures = append(p.failures, tp.failures...)
		info["traced_detail"] = tp.detail
		info["stream"] = stream
		info["labels"] = labels
		info["trace_noise"] = noise
		info["self_ms"] = tr.selfTimes()
		path, err := tr.write(*outDir, *name, *seed, host)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
		info["spans_file"] = path
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	info["failures"] = p.failures
	for _, f := range p.failures {
		fmt.Fprintln(stderr, "perfbench: FAILED:", f)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(info); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}
