package main

import (
	"runtime"
	"time"

	"repro/internal/serve"
)

// setupReps is how many set-ups a workload measures: servers booted (the
// last one carries the measured load), or fleet solvers built.
const setupReps = 101

// bootMeasured boots the first half of a phase's setupReps servers,
// recording each set-up time, and keeps the last one for the measured
// load; bootRest boots (and closes) the rest after the load, so the
// set-up median spans the phase rather than one moment of it. Each boot
// starts from a collected heap, so it does not pay for the garbage of the
// work before it.
func bootMeasured(p *phase, regs []serve.TransientRegisterRequest) (*target, error) {
	var t *target
	for i := 0; i < setupReps/2+1; i++ {
		if t != nil {
			t.close()
		}
		var (
			d   time.Duration
			err error
		)
		runtime.GC()
		t, d, err = boot(regs)
		if err != nil {
			return nil, err
		}
		p.setupS = append(p.setupS, d.Seconds())
	}
	return t, nil
}

func bootRest(p *phase, regs []serve.TransientRegisterRequest) error {
	for len(p.setupS) < setupReps {
		runtime.GC()
		t, d, err := boot(regs)
		if err != nil {
			return err
		}
		t.close()
		p.setupS = append(p.setupS, d.Seconds())
	}
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// putServeCounters copies the server's cumulative counters into the
// per-layer observations.
func putServeCounters(m map[string]float64, st serve.Stats) {
	if n := st.MemoHits + st.MemoMisses; n > 0 {
		m["serve.memo_hit_ratio"] = float64(st.MemoHits) / float64(n)
	}
	m["serve.session_builds"] = float64(st.SessionBuilds)
	m["serve.session_reuses"] = float64(st.SessionReuses)
	m["serve.evictions"] = float64(st.Evictions)
	m["serve.rejected"] = float64(st.Rejected)
}
