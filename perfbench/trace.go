package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Req    int64   `json:"req"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // since the tracer started
	End    float64 `json:"end_ms"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, so untraced phases pay one nil check per call.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span.
type spanRef struct {
	id, parent, req int64
	name            string
	start           time.Time
}

func (t *tracer) start(name string, parent, req int64) *spanRef {
	if t == nil {
		return nil
	}
	return &spanRef{id: t.ids.Add(1), parent: parent, req: req, name: name, start: time.Now()}
}

// end closes s.
func (t *tracer) end(s *spanRef) {
	if t == nil || s == nil {
		return
	}
	sp := span{ID: s.id, Parent: s.parent, Req: s.req, Name: s.name,
		Start: ms(s.start.Sub(t.t0)), End: ms(time.Since(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// ID is the span's id, or 0 (no parent) when untraced.
func (s *spanRef) ID() int64 {
	if s == nil {
		return 0
	}
	return s.id
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// selfTimes sums each span name's self time: its duration minus the part
// of it its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := map[int64]float64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.Name] += s.End - s.Start - child[s.ID]
	}
	return out
}

// write stores the spans and the host record as one JSON file under dir.
func (t *tracer) write(dir, workload string, seed int64, host map[string]any) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	t.mu.Lock()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	b, err := json.Marshal(map[string]any{"host": host, "spans": t.spans})
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// hostRecord is what every result records about where it ran.
func hostRecord(seed int64) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"host_cpus":     runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"cpu_model":     cpuModel(),
		"go_version":    runtime.Version(),
		"commit":        commit,
		"source_sha256": sourceDigest(),
		"seed":          seed,
		"llc_bytes":     llcBytes(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// llcBytes is the largest cache the kernel reports for CPU 0, or 32 MiB
// when it reports none.
func llcBytes() int64 {
	best := int64(0)
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*/size")
	for _, d := range dirs {
		b, err := os.ReadFile(d)
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(b))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil && n*mult > best {
			best = n * mult
		}
	}
	if best == 0 {
		best = 32 << 20
	}
	return best
}

// sourceDigest identifies the program source the benchmark was built from
// (go.mod and every .go file under internal/), for checkouts that are not
// git repositories. The benchmark runs from the repository root.
func sourceDigest() string {
	h := sha256.New()
	var files []string
	filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range append([]string{"go.mod"}, files...) {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
