package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestChaosHarness is the service-layer chaos drill: with every injector
// armed (latency, handler panics, solver sabotage, hard solve failures)
// a storm of concurrent proposals must uphold the service invariants —
// successful bodies stay byte-deterministic per proposal, refusals stay
// structured (only known status codes, panics recovered and counted), a
// blade streamed through the storm lands at the exact simulated time, and
// the drain + checkpoint + restore cycle completes without leaking a
// goroutine.
func TestChaosHarness(t *testing.T) {
	old := debugLogWriter
	debugLogWriter = io.Discard
	defer func() { debugLogWriter = old }()
	before := runtime.NumGoroutine()

	ckpt := filepath.Join(t.TempDir(), "ckpt.json")
	s, err := New(Config{Workers: 2, CheckpointPath: ckpt, BreakerThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	s.SetChaos(&ChaosConfig{
		Seed:         42,
		LatencyRate:  0.2,
		MaxLatency:   2 * time.Millisecond,
		PanicRate:    0.1,
		SabotageRate: 0.15,
		FailRate:     0.1,
	})

	client := NewClient(7)
	client.MaxRetries = 2
	client.BaseDelay = time.Millisecond
	client.MaxDelay = 5 * time.Millisecond

	// Four distinct proposals, hammered concurrently under the storm.
	proposals := make([]string, 4)
	for i := range proposals {
		proposals[i] = fmt.Sprintf(`{"benchmark":"x264","water_c":%d,"water_flow_kgh":7}`, 25+i)
	}
	const perKey = 10
	var (
		mu       sync.Mutex
		statuses = map[int]int{}
		bodies   = make([]map[string]bool, len(proposals))
		wg       sync.WaitGroup
	)
	for i := range bodies {
		bodies[i] = map[string]bool{}
	}
	for k, p := range proposals {
		for j := 0; j < perKey; j++ {
			wg.Add(1)
			go func(k int, body string) {
				defer wg.Done()
				resp, err := client.PostJSON(context.Background(), ts.URL+"/v1/steady", []byte(body))
				if err != nil {
					t.Errorf("transport error under chaos: %v", err)
					return
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				mu.Lock()
				statuses[resp.StatusCode]++
				if resp.StatusCode == http.StatusOK {
					bodies[k][string(b)] = true
				}
				mu.Unlock()
			}(k, p)
		}
	}
	wg.Wait()

	// Bounded failure modes: every outcome is a known status, successes
	// dominate (retries absorb backpressure; only panics and injected
	// failures surface), and each proposal's successes are one byte string.
	total := 0
	for code, n := range statuses {
		total += n
		switch code {
		case http.StatusOK, http.StatusTooManyRequests,
			http.StatusInternalServerError, http.StatusServiceUnavailable:
		default:
			t.Fatalf("unexpected status %d under chaos (%d times)", code, n)
		}
	}
	if total != len(proposals)*perKey {
		t.Fatalf("accounted %d outcomes, want %d", total, len(proposals)*perKey)
	}
	if ok := statuses[http.StatusOK]; ok < total/3 {
		t.Fatalf("only %d/%d succeeded under chaos: %v", ok, total, statuses)
	}
	for k, set := range bodies {
		if len(set) > 1 {
			t.Fatalf("proposal %d produced %d distinct success bodies under chaos", k, len(set))
		}
	}
	st := s.Snapshot()
	if st.PanicsRecovered == 0 {
		t.Fatalf("panic injector armed but none recovered: %+v", st)
	}

	// Stream a blade through the storm with exactly-once seq numbers:
	// chaos may panic or refuse any attempt, but a blind retry of the same
	// seq can never double-advance the sim.
	register := func() {
		for attempt := 0; attempt < 100; attempt++ {
			resp, err := client.PostJSON(context.Background(), ts.URL+"/v1/transient",
				[]byte(`{"blade":"b0","benchmark":"x264"}`))
			if err != nil {
				t.Fatal(err)
			}
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusCreated {
				return
			}
		}
		t.Fatal("blade never registered under chaos")
	}
	register()
	for seq := 1; seq <= 3; seq++ {
		chunk := fmt.Sprintf(`{"seq":%d,"dt_s":0.25,"steps":[{},{}]}`, seq)
		okCount := 0
		for attempt := 0; attempt < 100 && okCount == 0; attempt++ {
			resp, err := client.PostJSON(context.Background(), ts.URL+"/v1/transient/b0/step", []byte(chunk))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode == http.StatusOK {
				okCount++
			}
			resp.Body.Close()
		}
		if okCount == 0 {
			t.Fatalf("seq %d never applied under chaos", seq)
		}
	}
	statusOf := func(h http.Handler) float64 {
		w := get(t, h, "/v1/transient/b0")
		if w.Code != http.StatusOK {
			t.Fatalf("blade status: %d %s", w.Code, w.Body)
		}
		var out struct {
			TimeS float64 `json:"time_s"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return out.TimeS
	}
	s.SetChaos(nil)
	if got := statusOf(s.Handler()); got != 1.5 {
		t.Fatalf("blade time after 3 exactly-once chunks = %v, want 1.5 (retries double-stepped?)", got)
	}

	// Drain: the final checkpoint preserves the blade, Close completes,
	// and a restored server resumes at the same time.
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatalf("Close under post-chaos drain: %v", err)
	}
	s2, err := New(Config{CheckpointPath: ckpt, RestoreOnStart: true})
	if err != nil {
		t.Fatalf("restore after chaos run: %v", err)
	}
	if got := statusOf(s2.Handler()); got != 1.5 {
		t.Fatalf("restored blade time = %v, want 1.5", got)
	}
	s2.Close()

	// No goroutine leaks once the drains settle.
	if c := client.HTTP; c != nil {
		c.CloseIdleConnections()
	}
	leakDeadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(leakDeadline) {
			t.Fatalf("goroutine leak: %d before, %d after chaos drill", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosDeterministicDraws: the injector's decision sequence is fixed
// by the seed — two injectors with the same config draw identically.
func TestChaosDeterministicDraws(t *testing.T) {
	mk := func() *chaos {
		s := &Server{}
		s.SetChaos(&ChaosConfig{Seed: 9, FailRate: 0.3, PanicRate: 0.2, LatencyRate: 0.5, MaxLatency: time.Millisecond})
		return s.loadChaos()
	}
	a, b := mk(), mk()
	var seqA, seqB bytes.Buffer
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&seqA, "%v%v%v;", a.roll(a.cfg.FailRate), a.roll(a.cfg.PanicRate), a.latency())
		fmt.Fprintf(&seqB, "%v%v%v;", b.roll(b.cfg.FailRate), b.roll(b.cfg.PanicRate), b.latency())
	}
	if seqA.String() != seqB.String() {
		t.Fatal("same seed drew different chaos sequences")
	}
}
