package cosim

import (
	"testing"

	"repro/internal/power"
	"repro/internal/thermosyphon"
)

func TestTransientWarmsTowardSteady(t *testing.T) {
	sys, err := NewSystem(coarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := fullLoadState(2.2)
	op := thermosyphon.DefaultOperating()
	steady, err := sys.SolveSteady(st, op)
	if err != nil {
		t.Fatal(err)
	}
	steadyDie, _ := sys.DieStats(steady)

	sim, err := NewTransient(sys, op, 30)
	if err != nil {
		t.Fatal(err)
	}
	bp := sys.Power.BlockPowers(st)
	prev := 0.0
	for i := 0; i < 60; i++ {
		if err := sim.Step(0.25, bp); err != nil {
			t.Fatal(err)
		}
		cur, err := sim.DieMax()
		if err != nil {
			t.Fatal(err)
		}
		// The quasi-static boundary lags one step behind the field, so a
		// slight overshoot-and-settle is expected; forbid real regressions.
		if cur < prev-0.6 {
			t.Fatalf("warm-up regressed at step %d: %.2f < %.2f", i, cur, prev)
		}
		prev = cur
	}
	// After 15 simulated seconds the transient should be within a couple
	// of degrees of the steady solution.
	if diff := steadyDie.MaxC - prev; diff > 3 || diff < -3 {
		t.Fatalf("transient %.1f vs steady %.1f", prev, steadyDie.MaxC)
	}
	if sim.Time() < 14.9 || sim.Time() > 15.1 {
		t.Fatalf("time = %v", sim.Time())
	}
}

func TestTransientValveResponse(t *testing.T) {
	sys, _ := NewSystem(coarseConfig())
	st := fullLoadState(2.5)
	bp := sys.Power.BlockPowers(st)
	sim, err := NewTransient(sys, thermosyphon.DefaultOperating(), 45)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := sim.Step(0.25, bp); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := sim.DieMax()
	// Open the valve hard and keep running: the die must cool.
	if err := sim.SetOperating(thermosyphon.Operating{WaterInC: 30, WaterFlowKgH: 18}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := sim.Step(0.25, bp); err != nil {
			t.Fatal(err)
		}
	}
	after, _ := sim.DieMax()
	if after >= before {
		t.Fatalf("valve opening did not cool: %.2f → %.2f", before, after)
	}
}

func TestTransientValidation(t *testing.T) {
	sys, _ := NewSystem(coarseConfig())
	if _, err := NewTransient(sys, thermosyphon.Operating{}, 30); err == nil {
		t.Fatal("invalid operating point must error")
	}
	sim, err := NewTransient(sys, thermosyphon.DefaultOperating(), 30)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Step(-1, nil); err == nil {
		t.Fatal("negative step must error")
	}
	if err := sim.Step(0.25, map[string]float64{"bogus": 1}); err == nil {
		t.Fatal("unknown block must error")
	}
	if err := sim.SetOperating(thermosyphon.Operating{}); err == nil {
		t.Fatal("invalid operating change must error")
	}
}

func TestTransientIdleStaysNearWater(t *testing.T) {
	sys, _ := NewSystem(coarseConfig())
	sim, err := NewTransient(sys, thermosyphon.DefaultOperating(), 30)
	if err != nil {
		t.Fatal(err)
	}
	var st power.PackageState
	st.Freq = power.FMin
	st.UncoreFreq = power.UncoreFreqMin
	for i := range st.Cores {
		st.Cores[i] = power.CoreLoad{Idle: power.C6}
	}
	bp := sys.Power.BlockPowers(st)
	for i := 0; i < 40; i++ {
		if err := sim.Step(0.5, bp); err != nil {
			t.Fatal(err)
		}
	}
	max, _ := sim.DieMax()
	// A nearly idle package settles close to the water temperature.
	if max < 28 || max > 45 {
		t.Fatalf("idle die settled at %.1f °C", max)
	}
	if sim.Syphon() == nil || sim.Field() == nil {
		t.Fatal("accessors broken")
	}
	if sim.TCase() <= 0 {
		t.Fatal("TCase broken")
	}
}

func TestTransientLoopInertia(t *testing.T) {
	sys, _ := NewSystem(coarseConfig())
	st := fullLoadState(2.2)
	bp := sys.Power.BlockPowers(st)

	// With loop inertia the early die temperature runs hotter than the
	// quasi-static loop (less circulation → worse HTC), converging later.
	fast, err := NewTransient(sys, thermosyphon.DefaultOperating(), 30)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := NewTransient(sys, thermosyphon.DefaultOperating(), 30)
	if err != nil {
		t.Fatal(err)
	}
	slow.LoopTau = 5
	for i := 0; i < 8; i++ {
		if err := fast.Step(0.25, bp); err != nil {
			t.Fatal(err)
		}
		if err := slow.Step(0.25, bp); err != nil {
			t.Fatal(err)
		}
	}
	// Early on the lagged loop must circulate clearly less than the
	// quasi-static one.
	if slow.Syphon().Loop.MassFlowKgS >= 0.8*fast.Syphon().Loop.MassFlowKgS {
		t.Fatalf("loop inertia missing: %.4g vs %.4g kg/s",
			slow.Syphon().Loop.MassFlowKgS, fast.Syphon().Loop.MassFlowKgS)
	}
	// After the loop spins up, the two converge.
	for i := 0; i < 80; i++ {
		if err := fast.Step(0.25, bp); err != nil {
			t.Fatal(err)
		}
		if err := slow.Step(0.25, bp); err != nil {
			t.Fatal(err)
		}
	}
	fd, _ := fast.DieMax()
	sd, _ := slow.DieMax()
	if d := sd - fd; d > 1 || d < -1 {
		t.Fatalf("inertial and quasi-static runs did not converge: %.2f vs %.2f", sd, fd)
	}
}

func TestEvaporateAtValidation(t *testing.T) {
	sys, _ := NewSystem(coarseConfig())
	if _, err := sys.Design.EvaporateAt(sys.Thermal.Grid(), make([]float64, sys.Thermal.Cells()), thermosyphon.DefaultOperating(), 0); err == nil {
		t.Fatal("zero pinned flow must error")
	}
}

// TestTransientHonorsWithDesign: a transient sim on a session with a
// WithDesign override must evaporate with that design, step for step
// bit-identical to a sim on a System built with it, and must differ from
// the healthy loop — with and without loop inertia.
func TestTransientHonorsWithDesign(t *testing.T) {
	fouled := thermosyphon.DefaultDesign()
	fouled.CondenserUA *= 0.3
	healthySys, err := NewSystem(coarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	fouledCfg := coarseConfig()
	fouledCfg.Design = fouled
	fouledSys, err := NewSystem(fouledCfg)
	if err != nil {
		t.Fatal(err)
	}
	op := thermosyphon.DefaultOperating()
	bp := healthySys.Power.BlockPowers(fullLoadState(2.5))
	for _, tau := range []float64{0, 2} {
		start := func(ses *Session) *TransientSim {
			sim, err := ses.Transient(op, 30)
			if err != nil {
				t.Fatal(err)
			}
			sim.LoopTau = tau
			return sim
		}
		override := start(healthySys.NewSession(WithDesign(fouled)))
		built := start(fouledSys.NewSession())
		healthy := start(healthySys.NewSession())
		differs := false
		for i := 0; i < 20; i++ {
			for _, sim := range []*TransientSim{override, built, healthy} {
				if err := sim.Step(0.25, bp); err != nil {
					t.Fatal(err)
				}
			}
			for c, v := range override.Field().T {
				if v != built.Field().T[c] {
					t.Fatalf("tau=%g step %d cell %d: WithDesign sim %v, fouled-System sim %v", tau, i, c, v, built.Field().T[c])
				}
				if v != healthy.Field().T[c] {
					differs = true
				}
			}
		}
		if !differs {
			t.Fatalf("tau=%g: WithDesign(fouled) sim matches the healthy sim bit for bit", tau)
		}
	}
}
