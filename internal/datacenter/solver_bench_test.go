package datacenter

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cosim"
	"repro/internal/power"
)

// BenchmarkDatacenterSolve times the full nested fleet solve from cold
// loop temperatures at increasing fleet sizes. The PARSEC-like mix of 13
// distinct blade states bounds the class count, so the cost scales with
// classes × outer iterations, not blades — the property that makes the
// 1000-blade point affordable. Next to the outer iterations and the
// coupled blade solves it reports lin-iters/op, the linear-solver
// iterations summed over every class session.
func BenchmarkDatacenterSolve(b *testing.B) {
	cfg := cosim.DefaultConfig()
	cfg.Stack.NX, cfg.Stack.NY = 19, 15
	sys, err := cosim.NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	states := make([]power.PackageState, 13)
	for i := range states {
		states[i] = testState(2.0+0.25*float64(i), 4+i%5)
	}
	for _, bl := range []struct{ racks, perRack, loops int }{
		{2, 16, 1}, {8, 32, 2}, {25, 40, 4},
	} {
		blades := bl.racks * bl.perRack
		b.Run(fmt.Sprintf("blades=%d", blades), func(b *testing.B) {
			topo, err := Uniform(bl.racks, bl.perRack, bl.loops, testLoop(), states)
			if err != nil {
				b.Fatal(err)
			}
			var outer, solves, linIters int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := New(sys, topo, Options{Leakage: power.DefaultLeakage()})
				if err != nil {
					b.Fatal(err)
				}
				rep, err := s.Solve(context.Background())
				for _, c := range s.classes {
					linIters += c.ses.SolverStats().Iterations
				}
				s.Close()
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Converged {
					b.Fatal("fleet solve did not converge")
				}
				outer += rep.OuterIterations
				solves += rep.BladeSolves
			}
			b.ReportMetric(float64(outer)/float64(b.N), "outer/op")
			b.ReportMetric(float64(solves)/float64(b.N), "solves/op")
			b.ReportMetric(float64(linIters)/float64(b.N), "lin-iters/op")
		})
	}
}
