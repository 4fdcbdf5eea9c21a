package cosim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/thermal"
	"repro/internal/thermosyphon"
	"repro/internal/workload"
)

// parsecFullLoad returns the 13 PARSEC benchmarks' package states with all
// eight cores busy at maximum frequency — the roster of the datacenter
// study and the Fig. 6 full-load points.
func parsecFullLoad() []power.PackageState {
	m := core.Mapping{
		IdleState:   power.POLL,
		Config:      workload.Config{Cores: 8, Threads: 8, Freq: power.FMax},
		ActiveCores: []int{0, 1, 2, 3, 4, 5, 6, 7},
	}
	benches := workload.All()
	states := make([]power.PackageState, len(benches))
	for i, b := range benches {
		states[i] = core.PackageState(b, m)
	}
	return states
}

// dieMax solves st cold on ses and returns the die θmax and the number
// of coupling passes.
func dieMax(t *testing.T, ses *Session, st power.PackageState) (float64, int) {
	t.Helper()
	ses.Reset()
	res, err := ses.SolveSteady(nil, st, thermosyphon.DefaultOperating())
	if err != nil {
		t.Fatal(err)
	}
	die, err := ses.System().DieStats(res)
	if err != nil {
		t.Fatal(err)
	}
	return die.MaxC, res.Iterations
}

// TestCouplingAccuracy pins the answer the coupling loop's exit criteria
// buy: on every full-load PARSEC state, at coarse and medium resolution,
// the default solve lands within 2e-3 °C of die θmax of a tight reference
// — the same loop run to a 1e-8 flux change on 1e-12 linear solves. The
// growth guard must not fire on any of them.
func TestCouplingAccuracy(t *testing.T) {
	states := parsecFullLoad()
	for _, dims := range [][2]int{{19, 15}, {38, 30}} {
		t.Run(fmt.Sprintf("%dx%d", dims[0], dims[1]), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Stack.NX, cfg.Stack.NY = dims[0], dims[1]
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ses := sys.NewSession(CarryWarmStart(false))
			// Multigrid only speeds the reference up: at 1e-12 its answer is
			// the cg answer.
			tight := sys.NewSession(CarryWarmStart(false), WithSolver(thermal.SolverMGPCG))
			tight.linTol, tight.fluxTol = 1e-12, 1e-8
			var worst float64
			for i, st := range states {
				got, _ := dieMax(t, ses, st)
				if ses.guarded {
					t.Errorf("state %d: growth guard fired", i)
				}
				want, passes := dieMax(t, tight, st)
				if passes == 60 {
					t.Fatalf("state %d: tight reference did not converge in 60 passes", i)
				}
				worst = math.Max(worst, math.Abs(got-want))
				if d := math.Abs(got - want); d > 2e-3 {
					t.Errorf("state %d: die θmax %.6f °C, tight reference %.6f °C (Δ %.2e)", i, got, want, d)
				}
			}
			t.Logf("worst |Δθmax| = %.2e °C over %d states", worst, len(states))
		})
	}
}

// TestCouplingGrowthGuard drives the growth guard with high-gain loops.
// With twenty times the loop friction at 40 % fill, the flux change grows
// on an early undamped pass at 2.2 and 3 W per core; the guarded solve,
// blended from then on, must land within 1e-3 °C of die θmax of the
// unguarded one. At three hundred times the friction the undamped update
// falls into a cycle and never meets the exit; the guard must rescue it.
func TestCouplingGrowthGuard(t *testing.T) {
	highGain := func(t *testing.T, loopK, fill float64) (guarded, plain *Session) {
		cfg := coarseConfig()
		cfg.Design.LoopK *= loopK
		cfg.Design.FillingRatio = fill
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		guarded = sys.NewSession(CarryWarmStart(false))
		plain = sys.NewSession(CarryWarmStart(false))
		plain.noGuard = true
		return guarded, plain
	}
	t.Run("same-answer", func(t *testing.T) {
		guarded, plain := highGain(t, 20, 0.4)
		for _, dyn := range []float64{2.2, 3} {
			st := fullLoadState(dyn)
			got, passes := dieMax(t, guarded, st)
			if !guarded.guarded {
				t.Fatalf("dyn %.1f W: the flux change never grew; the guard did not fire", dyn)
			}
			want, plainPasses := dieMax(t, plain, st)
			if passes == 60 || plainPasses == 60 {
				t.Fatalf("dyn %.1f W: no convergence in 60 passes (guarded %d, unguarded %d)", dyn, passes, plainPasses)
			}
			if d := math.Abs(got - want); d > 1e-3 {
				t.Errorf("dyn %.1f W: guarded θmax %.6f °C, unguarded %.6f °C (Δ %.2e)", dyn, got, want, d)
			}
		}
	})
	t.Run("rescue", func(t *testing.T) {
		guarded, plain := highGain(t, 300, 0.55)
		st := fullLoadState(2.2)
		if _, passes := dieMax(t, plain, st); passes != 60 {
			t.Fatalf("unguarded update converged in %d passes; the design no longer cycles", passes)
		}
		if _, passes := dieMax(t, guarded, st); !guarded.guarded || passes == 60 {
			t.Fatalf("guarded solve: guard fired %v, %d passes", guarded.guarded, passes)
		}
	})
}
