package cosim

// Coupled-solve benchmarks comparing the fresh per-call path against a
// reusable session:
//
//	go test ./internal/cosim -bench=Session -benchmem
//
// "fresh" is the pre-session behavior (workspace rebuilt per solve);
// "session-cold" reuses buffers but seeds every solve like a cold one
// (the pooled-sweep configuration); "session-warm" additionally carries
// the previous converged field and flux — the governor/bisection steady
// state, where the coupled fixed point collapses to a refinement pass.

import (
	"testing"

	"repro/internal/thermosyphon"
)

func benchSystem(b *testing.B) (*System, map[string]float64, thermosyphon.Operating) {
	b.Helper()
	sys, err := NewSystem(coarseConfig())
	if err != nil {
		b.Fatal(err)
	}
	return sys, sys.Power.BlockPowers(fullLoadState(2.2)), thermosyphon.DefaultOperating()
}

// BenchmarkCosimSession reports exact work counters next to the wall
// time: outer/op is the coupling passes per solve and lin-iters/op the
// linear-solver iterations per solve (the fresh path builds a throwaway
// session per call, so it reports passes only; its iterations equal
// session-cold's, which it matches bit for bit).
func BenchmarkCosimSession(b *testing.B) {
	b.Run("fresh", func(b *testing.B) {
		sys, bp, op := benchSystem(b)
		b.ReportAllocs()
		b.ResetTimer()
		var outer int
		for i := 0; i < b.N; i++ {
			res, err := sys.SolveSteadyPower(bp, op)
			if err != nil {
				b.Fatal(err)
			}
			outer += res.Iterations
		}
		b.ReportMetric(float64(outer)/float64(b.N), "outer/op")
	})
	for _, tc := range []struct {
		name  string
		carry bool
	}{{"session-cold", false}, {"session-warm", true}} {
		b.Run(tc.name, func(b *testing.B) {
			sys, bp, op := benchSystem(b)
			ses := sys.NewSession(CarryWarmStart(tc.carry))
			if _, err := ses.SolveSteadyPower(nil, bp, op); err != nil {
				b.Fatal(err)
			}
			iters0 := ses.SolverStats().Iterations
			b.ReportAllocs()
			b.ResetTimer()
			var outer int
			for i := 0; i < b.N; i++ {
				res, err := ses.SolveSteadyPower(nil, bp, op)
				if err != nil {
					b.Fatal(err)
				}
				outer += res.Iterations
			}
			b.ReportMetric(float64(outer)/float64(b.N), "outer/op")
			b.ReportMetric(float64(ses.SolverStats().Iterations-iters0)/float64(b.N), "lin-iters/op")
		})
	}
}

// BenchmarkCosimSessionTransient compares a transient step before and
// after warm-up (the first step sizes the buffers; the rest are free of
// heap traffic).
func BenchmarkCosimSessionTransient(b *testing.B) {
	sys, bp, op := benchSystem(b)
	sim, err := NewTransient(sys, op, 30)
	if err != nil {
		b.Fatal(err)
	}
	if err := sim.Step(0.25, bp); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.Step(0.25, bp); err != nil {
			b.Fatal(err)
		}
	}
}
