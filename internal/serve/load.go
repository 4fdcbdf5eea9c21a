package serve

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/workload"
)

// LoadConfig parameterizes a deterministic open-loop load run against a
// thermservd instance. The key sequence is driven by a seeded PRNG, so two
// runs with the same config issue the same proposals in the same order —
// the load test is as replayable as the solver it exercises.
type LoadConfig struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Requests is the total number of proposals to issue.
	Requests int
	// QPS is the open-loop arrival rate (0 = as fast as Concurrency
	// allows).
	QPS float64
	// Concurrency caps in-flight requests; an arrival finding no free slot
	// is dropped and counted (open-loop clients do not queue).
	Concurrency int
	// Keys is the number of distinct proposals in the pool.
	Keys int
	// Skew selects the popularity distribution over the pool: values > 1
	// draw keys Zipf-distributed with that exponent (a hot head, a long
	// tail); values <= 1 draw uniformly.
	Skew float64
	// Seed fixes the PRNG.
	Seed int64
	// MaxRetries caps per-request retries of 429/503 refusals through the
	// shared retrying Client (0 = no retries — a refusal counts
	// immediately, pure open-loop behavior).
	MaxRetries int
	// Resolution/Solver are passed through on each proposal ("" = server
	// default).
	Resolution string
	Solver     string
}

// LoadReport is the outcome of a load run.
type LoadReport struct {
	Requests  int     `json:"requests"`
	Completed int     `json:"completed"`
	Errors    int     `json:"errors"`
	Rejected  int     `json:"rejected"` // 429/503 backpressure refusals
	Dropped   int     `json:"dropped"`  // arrivals with no free client slot
	Hits      int     `json:"hits"`
	Misses    int     `json:"misses"`
	HitRate   float64 `json:"hit_rate"`
	P50Ms     float64 `json:"p50_ms"`
	P95Ms     float64 `json:"p95_ms"`
	P99Ms     float64 `json:"p99_ms"`
	MaxMs     float64 `json:"max_ms"`
	WallS     float64 `json:"wall_s"`
	QPS       float64 `json:"qps"`
	// StatusCounts is the final HTTP status breakdown ("200", "429",
	// "500", "503", …) after retries; Retries is the total retry attempts
	// the client spent across the run.
	StatusCounts map[string]int `json:"status_counts"`
	Retries      int64          `json:"retries"`
}

// loadKey builds the i-th proposal of the pool: the benchmark cycles
// through the PARSEC catalog and the coolant temperature steps per key, so
// distinct keys are distinct solves (different memo line).
func loadKey(i int, cfg LoadConfig) SteadyRequest {
	names := workload.All()
	return SteadyRequest{
		Benchmark:    names[i%len(names)].Name,
		WaterC:       25 + 0.1*float64(i),
		WaterFlowKgH: 7,
		Resolution:   cfg.Resolution,
		Solver:       cfg.Solver,
	}
}

// RunLoad executes the configured load run. Request issue order, key
// choice, and payloads are deterministic in cfg; only latencies and the
// drop pattern depend on the machine.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadReport, error) {
	if cfg.Requests <= 0 {
		return nil, fmt.Errorf("load: requests must be positive")
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 4
	}
	if cfg.Keys <= 0 {
		cfg.Keys = 16
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var zipf *rand.Zipf
	if cfg.Skew > 1 {
		zipf = rand.NewZipf(rng, cfg.Skew, 1, uint64(cfg.Keys-1))
	}
	// Pre-draw the whole key sequence so the proposal stream is fixed
	// before any racing begins.
	keys := make([]int, cfg.Requests)
	for i := range keys {
		if zipf != nil {
			keys[i] = int(zipf.Uint64())
		} else {
			keys[i] = rng.Intn(cfg.Keys)
		}
	}
	bodies := make(map[int][]byte, cfg.Keys)
	for _, k := range keys {
		if _, ok := bodies[k]; !ok {
			b, err := canonicalJSON(loadKey(k, cfg))
			if err != nil {
				return nil, err
			}
			bodies[k] = b
		}
	}

	// The retrying client shares the PRNG seed, so the backoff schedule —
	// like the key sequence — replays exactly across runs.
	client := NewClient(cfg.Seed)
	client.MaxRetries = cfg.MaxRetries
	url := cfg.BaseURL + "/v1/steady"
	var (
		mu        sync.Mutex
		latencies []float64
		rep       LoadReport
		wg        sync.WaitGroup
	)
	rep.Requests = cfg.Requests
	rep.StatusCounts = make(map[string]int)
	slots := make(chan struct{}, cfg.Concurrency)
	var interval time.Duration
	if cfg.QPS > 0 {
		interval = time.Duration(float64(time.Second) / cfg.QPS)
	}
	start := time.Now()
	for i := 0; i < cfg.Requests; i++ {
		if err := ctx.Err(); err != nil {
			break
		}
		if interval > 0 {
			// Open-loop pacing: sleep to the scheduled arrival time; late
			// arrivals fire immediately (no coordinated omission).
			next := start.Add(time.Duration(i) * interval)
			if d := time.Until(next); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
				}
			}
		}
		if interval > 0 {
			// Paced (open-loop): an arrival with no free client slot is
			// dropped, not queued — overload surfaces as drops and 429s.
			select {
			case slots <- struct{}{}:
			default:
				mu.Lock()
				rep.Dropped++
				mu.Unlock()
				continue
			}
		} else {
			// Unpaced (closed-loop): issue as fast as Concurrency allows.
			select {
			case slots <- struct{}{}:
			case <-ctx.Done():
				continue
			}
		}
		wg.Add(1)
		go func(body []byte) {
			defer wg.Done()
			defer func() { <-slots }()
			t0 := time.Now()
			resp, err := client.PostJSON(ctx, url, body)
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				ms := float64(time.Since(t0)) / float64(time.Millisecond)
				mu.Lock()
				rep.StatusCounts[strconv.Itoa(resp.StatusCode)]++
				switch {
				case resp.StatusCode == http.StatusOK:
					rep.Completed++
					latencies = append(latencies, ms)
					switch resp.Header.Get("X-Cache") {
					case "hit":
						rep.Hits++
					case "miss":
						rep.Misses++
					}
				case resp.StatusCode == http.StatusTooManyRequests ||
					resp.StatusCode == http.StatusServiceUnavailable:
					rep.Rejected++
				default:
					rep.Errors++
				}
				mu.Unlock()
				return
			}
			mu.Lock()
			rep.Errors++
			mu.Unlock()
		}(bodies[keys[i]])
	}
	wg.Wait()
	rep.Retries = client.Retries()
	rep.WallS = time.Since(start).Seconds()
	if rep.WallS > 0 {
		rep.QPS = float64(rep.Completed) / rep.WallS
	}
	if rep.Completed > 0 {
		rep.HitRate = float64(rep.Hits) / float64(rep.Completed)
	}
	sort.Float64s(latencies)
	rep.P50Ms = percentile(latencies, 0.50)
	rep.P95Ms = percentile(latencies, 0.95)
	rep.P99Ms = percentile(latencies, 0.99)
	if n := len(latencies); n > 0 {
		rep.MaxMs = latencies[n-1]
	}
	return &rep, nil
}

// percentile reads the p-quantile from sorted data (nearest-rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
