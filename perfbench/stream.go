package main

import (
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// streamResult is the benchmark's own memory-bandwidth ceiling: a STREAM
// triad a[i] = b[i] + s·c[i], counted as 24 bytes per element.
type streamResult struct {
	LLCBytes        int64   `json:"llc_bytes"`
	ArrayBytes      int64   `json:"array_bytes"`       // each of the three arrays
	WorkingSetBytes int64   `json:"working_set_bytes"` // all three: at least 4× the LLC
	Threads         int     `json:"threads"`
	Passes          int     `json:"passes"`
	GBs             float64 `json:"gbs"`        // best pass, all threads
	SerialGBs       float64 `json:"serial_gbs"` // best pass, one thread
}

const streamPasses = 5

// measureStream sizes the arrays so the triad's working set is at least
// four times the last-level cache, touches them once in an untimed warm-up
// pass, and reports the best of streamPasses timed passes.
func measureStream() streamResult {
	llc := llcBytes()
	n := int(4*llc/(3*8)) + 1
	r := streamResult{LLCBytes: llc, ArrayBytes: int64(n) * 8, WorkingSetBytes: 3 * int64(n) * 8,
		Threads: runtime.GOMAXPROCS(0), Passes: streamPasses}
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	triad(a, b, c, r.Threads) // warm-up
	best := func(threads int) float64 {
		var top float64
		for k := 0; k < streamPasses; k++ {
			t0 := time.Now()
			triad(a, b, c, threads)
			if gbs := 24 * float64(n) / time.Since(t0).Seconds() / 1e9; gbs > top {
				top = gbs
			}
		}
		return top
	}
	r.GBs = best(r.Threads)
	r.SerialGBs = best(1)
	a, b, c = nil, nil, nil
	runtime.GC()
	debug.FreeOSMemory()
	return r
}

func triad(a, b, c []float64, threads int) {
	const s = 3.0
	var wg sync.WaitGroup
	chunk := (len(a) + threads - 1) / threads
	for lo := 0; lo < len(a); lo += chunk {
		hi := min(lo+chunk, len(a))
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				a[i] = b[i] + s*c[i]
			}
		}(lo, hi)
	}
	wg.Wait()
}
