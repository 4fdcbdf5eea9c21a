// Command rackplan plans a two-phase-cooled fleet end to end: build an
// N-rack × M-blade topology over shared chiller water loops, load the
// blades with the PARSEC roster, run the nested datacenter fixed point
// (loop supply temperatures coupled to blade heat, leakage included), and
// cost the chiller plant including the facility PUE.
//
// Usage:
//
//	rackplan -racks 4 -blades 8 -loops 2 -water 27 -res coarse
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"

	"repro/internal/core"
	"repro/internal/datacenter"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/power"
	"repro/internal/rack"
	"repro/internal/render"
	"repro/internal/thermal"
	"repro/internal/thermosyphon"
	"repro/internal/workload"
)

func main() {
	racks := flag.Int("racks", 2, "number of racks in the fleet")
	blades := flag.Int("blades", 4, "number of CPU blades per rack")
	loops := flag.Int("loops", 1, "number of shared water loops (racks are assigned round-robin)")
	waterC := flag.Float64("water", 27, "chiller supply setpoint at zero load (°C)")
	resFlag := flag.String("res", "coarse", "thermal resolution: coarse|medium|full")
	solverFlag := flag.String("solver", "cg", "thermal linear solver: cg|mgpcg (mgpcg pays off on fine grids)")
	workers := flag.Int("workers", 0, "parallel blade-class solves (0 = GOMAXPROCS, 1 = serial)")
	threads := flag.Int("threads", 0, "intra-solve threads per blade solve (0 = GOMAXPROCS, 1 = serial)")
	faultFlag := flag.String("fault", "", "cooling-fault scenario, e.g. pump:0.5 or bladeloss:0.6:loop0:r0b0 (see internal/faults)")
	flag.Parse()
	if err := run(*racks, *blades, *loops, *resFlag, *waterC, *solverFlag, *workers, *threads, *faultFlag); err != nil {
		fmt.Fprintln(os.Stderr, "rackplan:", err)
		os.Exit(1)
	}
}

// bladeRows caps the per-blade table: fleets past this size collapse to
// one row per blade class (the rows would repeat anyway — identical
// blades produce identical operating points).
const bladeRows = 32

func run(racks, blades, loops int, resFlag string, waterC float64, solverFlag string, workers, threads int, faultFlag string) error {
	if racks < 1 {
		return fmt.Errorf("-racks must be at least 1, got %d", racks)
	}
	if blades < 1 {
		return fmt.Errorf("-blades must be at least 1, got %d", blades)
	}
	if waterC < 0 {
		return fmt.Errorf("-water must be non-negative, got %g °C", waterC)
	}
	res, err := experiments.ParseResolution(resFlag)
	if err != nil {
		return err
	}
	solver, err := thermal.ParseSolver(solverFlag)
	if err != nil {
		return err
	}
	scenario, err := faults.Parse(faultFlag)
	if err != nil {
		return fmt.Errorf("-fault: %w", err)
	}

	// The fleet runs the PARSEC roster round-robin: each blade fully
	// loaded with one benchmark at FMax, POLL idles.
	wcfg := workload.Config{Cores: 8, Threads: 8, Freq: power.FMax}
	m := experiments.FullLoadMapping(wcfg, power.POLL)
	benches := workload.All()
	states := make([]power.PackageState, len(benches))
	for i, b := range benches {
		states[i] = core.PackageState(b, m)
	}
	loop := rack.SharedLoop{
		SetpointC:       waterC,
		ApproachKPerKW:  0.3,
		PerBladeFlowKgH: 7,
		AmbientC:        35,
	}
	topo, err := datacenter.Uniform(racks, blades, loops, loop, states)
	if err != nil {
		return err
	}

	sys, err := experiments.NewSystem(thermosyphon.DefaultDesign(), res)
	if err != nil {
		return err
	}
	s, err := datacenter.New(sys, topo, datacenter.Options{
		Solver:   solver,
		Workers:  workers,
		Threads:  threads,
		Leakage:  power.DefaultLeakage(),
		Scenario: &scenario,
	})
	if err != nil {
		return err
	}
	defer s.Close()
	rep, err := s.Solve(context.Background())
	if err != nil {
		return err
	}

	fmt.Printf("%d blades in %d racks over %d loops (%d blade classes)\n",
		topo.NumBlades(), racks, loops, rep.Classes)
	fmt.Printf("outer fixed point: %d iterations, residual %.4f °C, converged %v\n",
		rep.OuterIterations, rep.ResidualC, rep.Converged)
	if !scenario.Empty() {
		fmt.Printf("fault scenario %q: damping %.2f after %d halving(s), %d solver escalation(s)\n",
			rep.Scenario, rep.FinalDamping, rep.DampingHalvings, rep.Escalations)
		if rep.ThrottledBlades > 0 {
			fmt.Printf("degraded mode: %d blade(s) throttled, deepest %d DVFS step(s)\n",
				rep.ThrottledBlades, rep.MaxThrottleSteps)
		}
		for _, b := range rep.Infeasible {
			fmt.Printf("INFEASIBLE %s (%s, rack %d slot %d): %s\n", b.Name, b.Loop, b.Rack, b.Slot, b.Reason)
		}
	}
	fmt.Println()

	// Per-blade operating points; big fleets collapse to per-class rows.
	if len(rep.Blades) <= bladeRows {
		var rows [][]string
		for i, b := range rep.Blades {
			rows = append(rows, []string{
				b.Name, benches[i%len(benches)].Name,
				fmt.Sprintf("%.1f", b.HeatW),
				fmt.Sprintf("%.1f", b.DieMaxC),
				fmt.Sprintf("%.1f", b.TCaseC),
			})
		}
		if err := render.Table(os.Stdout,
			[]string{"blade", "bench", "W", "die θmax", "TCASE"}, rows); err != nil {
			return err
		}
	} else {
		type cls struct {
			b     datacenter.BladeReport
			bench string
			count int
		}
		var (
			order []string
			byB   = map[string]*cls{}
		)
		for i, b := range rep.Blades {
			bench := benches[i%len(benches)].Name
			c, ok := byB[bench]
			if !ok {
				c = &cls{b: b, bench: bench}
				byB[bench] = c
				order = append(order, bench)
			}
			c.count++
		}
		var rows [][]string
		for _, bench := range order {
			c := byB[bench]
			rows = append(rows, []string{
				c.bench, strconv.Itoa(c.count),
				fmt.Sprintf("%.1f", c.b.HeatW),
				fmt.Sprintf("%.1f", c.b.DieMaxC),
				fmt.Sprintf("%.1f", c.b.TCaseC),
			})
		}
		if err := render.Table(os.Stdout,
			[]string{"bench", "blades", "W each", "die θmax", "TCASE"}, rows); err != nil {
			return err
		}
	}

	// Per-loop converged water states.
	fmt.Println()
	var loopRows [][]string
	for _, l := range rep.Loops {
		loopRows = append(loopRows, []string{
			l.Name, strconv.Itoa(l.Blades),
			fmt.Sprintf("%.0f", l.State.HeatW),
			fmt.Sprintf("%.2f", l.State.SupplyC),
			fmt.Sprintf("%.2f", l.State.ReturnC),
			fmt.Sprintf("%.0f", l.State.FlowKgH),
		})
	}
	if err := render.Table(os.Stdout,
		[]string{"loop", "blades", "heat W", "supply °C", "return °C", "flow kg/h"}, loopRows); err != nil {
		return err
	}

	fmt.Printf("\nplant: %.0f W IT, %.0f W chiller (mean COP %.0f), hottest die %.1f °C\n",
		rep.ITPowerW, rep.Plant.ChillerPowerW, rep.Plant.MeanCOP, rep.MaxDieC)
	fmt.Printf("facility PUE: %.3f (paper's prototype 1.05)\n", rep.Plant.PUE)
	return nil
}
