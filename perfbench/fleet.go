package main

import (
	"context"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/datacenter"
	"repro/internal/experiments"
	"repro/internal/power"
	"repro/internal/rack"
	"repro/internal/thermosyphon"
	"repro/internal/workload"
)

// Fleet shape: 25 racks × 40 blades over 4 shared loops.
const (
	fleetRacks   = 25
	fleetPerRack = 40
	fleetLoops   = 4
	fleetMinRuns = 3
)

// fleetLoop is the shared-loop parameter set of the repository's fleet
// studies: the paper's water point per blade, a 27 °C chiller setpoint
// and a finite plant approach.
func fleetLoop() rack.SharedLoop {
	op := thermosyphon.DefaultOperating()
	return rack.SharedLoop{
		SetpointC:       op.WaterInC - 3,
		ApproachKPerKW:  0.3,
		PerBladeFlowKgH: op.WaterFlowKgH,
		AmbientC:        35,
	}
}

// fleetStates is the 13-state full-load PARSEC roster in benchmark order,
// as the repository's datacenter study lays it out: blade k runs state
// k mod 13. The roster is fixed, not drawn from the seed: the fleet solve
// is deterministic, and a rotation of the roster changes its cost by up to
// 40 %, which would read as seed-to-seed spread rather than as a change
// in the program.
func fleetStates() []power.PackageState {
	wcfg := workload.Config{Cores: 8, Threads: 8, Freq: power.FMax}
	m := experiments.FullLoadMapping(wcfg, power.POLL)
	benches := workload.All()
	states := make([]power.PackageState, len(benches))
	for i, b := range benches {
		states[i] = core.PackageState(b, m)
	}
	return states
}

// newFleet builds the system and a fresh solver with every
// datacenter.Options field at its default except the default leakage
// model. The returned duration is the set-up time.
func newFleet() (*datacenter.Solver, time.Duration, error) {
	t0 := time.Now()
	sys, err := experiments.NewSystem(thermosyphon.DefaultDesign(), experiments.Coarse)
	if err != nil {
		return nil, 0, err
	}
	topo, err := datacenter.Uniform(fleetRacks, fleetPerRack, fleetLoops, fleetLoop(), fleetStates())
	if err != nil {
		return nil, 0, err
	}
	s, err := datacenter.New(sys, topo, datacenter.Options{Leakage: power.DefaultLeakage()})
	if err != nil {
		return nil, 0, err
	}
	return s, time.Since(t0), nil
}

// fleetReplay is what the traced fleet replays need.
type fleetReplay struct {
	reports []*datacenter.Report
	solveS  []float64
}

// runFleet solves the cold fleet repeatedly, each time on a freshly built
// solver (a second Solve on one solver would be warm), until the phase
// ends and at least fleetMinRuns solves are in. One untimed solve comes
// first: the process's first solve also grows the heap from nothing,
// which no later solve pays.
func runFleet(rc *runCtx) (*phase, error) {
	p := &phase{tailQ: 1, tailN: fleetMinRuns, detail: map[string]any{}, layers: map[string]float64{}}
	want := rc.gold.fleet[0]
	var rp fleetReplay
	// solve runs one cold solve on a fresh solver and checks its answer.
	solve := func() (*datacenter.Report, time.Duration, error) {
		runtime.GC() // every cold solve starts from a collected heap
		s, setup, err := newFleet()
		if err != nil {
			return nil, 0, err
		}
		p.setupS = append(p.setupS, setup.Seconds())
		p.attempted++
		sp := rc.tr.start("datacenter.Solver.Solve", 0, int64(p.attempted))
		start := time.Now()
		rep, err := s.Solve(context.Background())
		d := time.Since(start)
		rc.tr.end(sp)
		s.Close()
		switch {
		case err != nil:
			p.fail("fleet solve: %v", err)
		case !rep.Converged:
			p.fail("fleet solve did not converge (residual %.4g °C)", rep.ResidualC)
		case !near(rep.MaxDieC, want.MaxDieC) || !near(rep.Plant.PUE, want.PUE) || rep.Converged != want.Converged:
			p.fail("fleet (max die %.6f °C, PUE %.6f) != golden (%.6f, %.6f)", rep.MaxDieC, rep.Plant.PUE, want.MaxDieC, want.PUE)
		default:
			return rep, d, nil
		}
		return nil, d, nil
	}
	if _, _, err := solve(); err != nil || p.failed > 0 {
		p.replay = rp
		return p, err
	}
	t0 := time.Now()
	soft, hard := rc.deadlines(t0)
	for {
		now := time.Now()
		if now.After(hard) || (now.After(soft) && len(rp.solveS) >= fleetMinRuns) {
			break
		}
		rep, d, err := solve()
		if err != nil {
			return nil, err
		}
		if rep == nil {
			break
		}
		p.latMs = append(p.latMs, float64(d.Nanoseconds())/1e6)
		rp.solveS = append(rp.solveS, d.Seconds())
		rp.reports = append(rp.reports, rep)
	}
	// More set-up samples than solves: set-up is cheap next to a solve.
	for len(p.setupS) < setupReps {
		runtime.GC()
		s, setup, err := newFleet()
		if err != nil {
			return nil, err
		}
		s.Close()
		p.setupS = append(p.setupS, setup.Seconds())
	}
	p.detail["solves"] = len(rp.solveS)
	if len(rp.reports) > 0 {
		r := rp.reports[0]
		p.detail["fleet_solve_s"] = median(rp.solveS)
		p.detail["solve_s"] = rp.solveS
		p.detail["outer_iterations"] = r.OuterIterations
		p.detail["blade_solves"] = r.BladeSolves
		p.detail["classes"] = r.Classes
		p.layers["datacenter.outer_iters"] = float64(r.OuterIterations)
		p.layers["datacenter.blade_solves"] = float64(r.BladeSolves)
		p.layers["datacenter.classes"] = float64(r.Classes)
		p.layers["datacenter.damping_halvings"] = float64(r.DampingHalvings)
		p.layers["thermal.escalations"] = float64(r.Escalations)
	}
	p.replay = rp
	return p, nil
}
