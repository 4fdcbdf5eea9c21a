package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// BenchmarkServeSteady measures the two /v1/steady service tiers at
// medium resolution: a memo hit (the warm-cache product) and a cold miss
// (memo cleared: system build plus coupled solve). The hit/cold ratio is
// the ≥50× bar TestWarmHitSpeedup gates.
func BenchmarkServeSteady(b *testing.B) {
	body := `{"benchmark":"x264"}`
	mk := func(b *testing.B) (*Server, http.Handler) {
		s, err := New(Config{Resolution: experiments.Medium, Threads: 1, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { s.Close() })
		return s, s.Handler()
	}
	do := func(b *testing.B, h http.Handler, wantCache string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/steady", strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
		if wantCache != "" && w.Header().Get("X-Cache") != wantCache {
			b.Fatalf("X-Cache %q, want %q", w.Header().Get("X-Cache"), wantCache)
		}
	}

	b.Run("memo-hit", func(b *testing.B) {
		s, h := mk(b)
		_ = s
		do(b, h, "miss") // prime
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			do(b, h, "hit")
		}
	})
	b.Run("cold-miss", func(b *testing.B) {
		s, h := mk(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s.ResetCaches()
			b.StartTimer()
			do(b, h, "miss")
		}
	})
}

// BenchmarkServeLoad drives the deterministic open-loop client against a
// live server over a real socket and reports service-level percentiles,
// sustained throughput, and warm-cache hit rate — uniform vs Zipf-skewed
// key popularity. These rows are the BENCH_8.json load table.
func BenchmarkServeLoad(b *testing.B) {
	for _, tc := range []struct {
		name string
		skew float64
	}{
		{"skew=uniform", 0},
		{"skew=zipf1.2", 1.2},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s, err := New(Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			var last *LoadReport
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := RunLoad(context.Background(), LoadConfig{
					BaseURL:     ts.URL,
					Requests:    300,
					Concurrency: 8,
					Keys:        16,
					Skew:        tc.skew,
					Seed:        42,
				})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Errors > 0 {
					b.Fatalf("load errors: %+v", rep)
				}
				last = rep
			}
			b.StopTimer()
			if last != nil {
				b.ReportMetric(last.P50Ms, "p50_ms")
				b.ReportMetric(last.P99Ms, "p99_ms")
				b.ReportMetric(last.QPS, "qps")
				b.ReportMetric(last.HitRate, "hit_rate")
				b.ReportMetric(float64(last.Completed), "completed")
			}
		})
	}
}

// BenchmarkServeTransientStep measures one transient step through the
// service path (validation + admission + step + sample), coarse grid.
func BenchmarkServeTransientStep(b *testing.B) {
	s, err := New(Config{MaxSteps: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/transient",
		strings.NewReader(`{"blade":"b0","benchmark":"x264"}`)))
	if w.Code != http.StatusCreated {
		b.Fatalf("register: %d %s", w.Code, w.Body)
	}
	body := `{"dt_s":0.05,"steps":[{}]}`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/transient/b0/step", strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("step: %d %s", w.Code, w.Body)
		}
	}
}
