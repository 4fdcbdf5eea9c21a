package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/serve"
)

// runLine runs the benchmark in-process and returns its parsed last line.
func runLine(t *testing.T, args ...string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("perfbench %v exited %d\nstdout: %s\nstderr: %s", args, code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("result %+v", res)
	}
	return res
}

// TestSmoke runs every workload for a moment, untraced and traced.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs solves")
	}
	for _, tc := range []struct {
		workload, seconds string
	}{
		{"mixed-zipf", "2"},
		{"fleet-1000", "0.2"},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			res := runLine(t, "--workload", tc.workload, "--seed", "3", "--seconds", tc.seconds, "--trace", "0")
			for _, m := range []string{"setup_s", "p50_ms"} {
				if res.Metrics[m].Value <= 0 {
					t.Errorf("metric %s = %+v", m, res.Metrics[m])
				}
			}
			res = runLine(t, "--workload", tc.workload, "--seed", "3", "--seconds", tc.seconds, "--trace", "1",
				"--out", t.TempDir())
			if len(res.Metrics) != len(layerUnits) {
				t.Errorf("traced run reports %d metrics, want %d", len(res.Metrics), len(layerUnits))
			}
			if res.Metrics["trace.spans"].Value < 1 || res.Metrics["linalg.stream_gbs"].Value <= 0 {
				t.Errorf("traced run: spans %v, stream %v", res.Metrics["trace.spans"], res.Metrics["linalg.stream_gbs"])
			}
		})
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "mixed-zipf", "--seconds", "0"},
		{"--workload", "mixed-zipf", "--trace", "2"},
	} {
		if code := run(args, &bytes.Buffer{}, &bytes.Buffer{}); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
	}
}

// TestSeedDeterminesInputs: a seed fixes every generated input, and
// another seed changes them.
func TestSeedDeterminesInputs(t *testing.T) {
	e1, b1 := mixedSchedule(7, 5)
	e2, b2 := mixedSchedule(7, 5)
	if !reflect.DeepEqual(e1, e2) || !reflect.DeepEqual(b1, b2) {
		t.Error("mixed-zipf schedule differs for one seed")
	}
	if e3, _ := mixedSchedule(8, 5); reflect.DeepEqual(e1, e3) {
		t.Error("mixed-zipf schedule identical for two seeds")
	}
	// Pool members are fixed by their index, not by the seed.
	a, _ := json.Marshal(coarseProposal(11))
	b, _ := json.Marshal(coarseProposal(11))
	if !bytes.Equal(a, b) {
		t.Error("pool member 11 is not a pure function of its index")
	}
}

// playSequential issues a mixed-zipf schedule in order, one request at a
// time, on a fresh server, and returns every response body.
func playSequential(t *testing.T, events []event, blades []int) [][]byte {
	t.Helper()
	regs := make([]serve.TransientRegisterRequest, len(blades))
	for i, typ := range blades {
		regs[i] = bladeRegistration(typ)
	}
	tg, _, err := boot(regs)
	if err != nil {
		t.Fatal(err)
	}
	defer tg.close()
	var bodies [][]byte
	for _, ev := range events {
		path := "/v1/steady"
		var v any = coarseProposal(ev.pool)
		if ev.kind == evChunk {
			path = "/v1/transient/" + bladeName(blades[ev.blade]) + "/step"
			v = bladeChunk(blades[ev.blade], ev.chunk)
		}
		body, _ := json.Marshal(v)
		rep, err := tg.do(http.MethodPost, path, body)
		if err != nil || rep.status != http.StatusOK {
			t.Fatalf("%s: status %d: %v %s", path, rep.status, err, rep.body)
		}
		bodies = append(bodies, rep.body)
	}
	return bodies
}

// TestSameSeedSameBodies: two fresh servers given one seed's schedule
// answer byte-identically.
func TestSameSeedSameBodies(t *testing.T) {
	if testing.Short() {
		t.Skip("runs solves")
	}
	events, blades := mixedSchedule(5, 1)
	if len(events) > 30 {
		events = events[:30]
	}
	first := playSequential(t, events, blades)
	second := playSequential(t, events, blades)
	for i := range first {
		if !bytes.Equal(first[i], second[i]) {
			t.Fatalf("event %d: bodies differ:\n%s\n%s", i, first[i], second[i])
		}
	}
}

func TestQuantileGate(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if v, ok := percentile(xs, 0.9); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v", v, ok)
	}
	if _, ok := percentile(xs, 0.99); ok {
		t.Error("p99 of 100 samples reported with fewer than 10 beyond it")
	}
	if !near(50, 50.0009) || near(50, 50.2) || !near(1e4, 1e4+5) {
		t.Error("tolerance check")
	}
}

func TestFixedCountTail(t *testing.T) {
	p := &phase{tailQ: 1, tailN: 3, latMs: []float64{5, 7, 6, 100, 4}}
	if got := p.endToEnd()["tail_ms"].Value; got != 7 {
		t.Errorf("tail over the first 3 of %v = %v, want 7", p.latMs, got)
	}
	p.latMs = p.latMs[:2]
	if _, ok := p.endToEnd()["tail_ms"]; ok {
		t.Error("tail reported with fewer samples than its fixed count")
	}
}

func TestHalvesDrift(t *testing.T) {
	p := &phase{latMs: []float64{10, 10, 10, 12, 12, 12}}
	if d, ok := p.halvesDrift(0.5); !ok || d != 0.2 {
		t.Errorf("drift of the median between halves = %v, %v; want 0.2", d, ok)
	}
	p.latMs = p.latMs[:1]
	if _, ok := p.halvesDrift(0.5); ok {
		t.Error("drift reported from a single sample")
	}
}
