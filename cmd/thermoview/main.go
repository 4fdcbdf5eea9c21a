// Command thermoview runs one benchmark through a chosen policy stack and
// renders the resulting die thermal map with its statistics — the
// interactive companion to cmd/paperbench.
//
// Usage:
//
//	thermoview -bench x264 -qos 2 -policy proposed -res medium
//	thermoview -bench canneal -qos 3 -policy sabry -format csv > map.csv
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/cosim"
	"repro/internal/experiments"
	"repro/internal/render"
	"repro/internal/thermal"
	"repro/internal/thermosyphon"
	"repro/internal/workload"
)

func main() {
	benchName := flag.String("bench", "x264", "PARSEC benchmark name")
	qosFlag := flag.Float64("qos", 2, "QoS degradation limit (1, 2 or 3)")
	policy := flag.String("policy", "proposed", "policy stack: proposed|coskun|sabry")
	resFlag := flag.String("res", "medium", "thermal resolution: coarse|medium|full")
	format := flag.String("format", "ascii", "map output: ascii|csv|pgm|none")
	solverFlag := flag.String("solver", "cg", "thermal linear solver: cg|mgpcg (mgpcg pays off on fine grids)")
	threads := flag.Int("threads", 0, "intra-solve threads for the single solve (0 = GOMAXPROCS, 1 = serial)")
	// Accepted for CLI parity with the other tools so existing invocations
	// keep working; thermoview's single solve never fans out, so the value
	// is unused.
	_ = flag.Int("workers", 0, "accepted for compatibility; thermoview performs a single solve")
	flag.Parse()

	if err := run(*benchName, workload.QoS(*qosFlag), *policy, *resFlag, *format, *solverFlag, *threads); err != nil {
		fmt.Fprintln(os.Stderr, "thermoview:", err)
		os.Exit(1)
	}
}

func run(benchName string, qos workload.QoS, policy, resFlag, format, solverFlag string, threads int) error {
	bench, err := workload.ByName(benchName)
	if err != nil {
		return err
	}
	res, err := experiments.ParseResolution(resFlag)
	if err != nil {
		return err
	}
	solver, err := thermal.ParseSolver(solverFlag)
	if err != nil {
		return err
	}

	design := thermosyphon.DefaultDesign()
	var mapping core.Mapping
	switch policy {
	case "proposed":
		mapping, err = core.Plan(bench, qos)
	case "coskun":
		design = baselines.SeuretDesign()
		var cfg workload.Config
		cfg, err = baselines.PackAndCapConfig(bench, qos)
		if err == nil {
			mapping, err = baselines.CoskunMapping(bench, cfg)
		}
	case "sabry":
		design = baselines.SeuretDesign()
		var cfg workload.Config
		cfg, err = baselines.PackAndCapConfig(bench, qos)
		if err == nil {
			mapping, err = baselines.SabryMapping(bench, cfg, design.Orientation)
		}
	default:
		return fmt.Errorf("unknown policy %q", policy)
	}
	if err != nil {
		return err
	}

	sys, err := experiments.NewSystem(design, res)
	if err != nil {
		return err
	}
	// A session (rather than the fresh-solve path) is what lets the
	// solver and thread selection reach the thermal workspace. A single
	// solve has no sweep to fan out, so the whole machine goes to the
	// intra-solve team.
	ses := sys.NewSession(cosim.WithSolver(solver), cosim.WithThreads(threads), cosim.CarryWarmStart(false))
	defer ses.Close()
	die, pkg, result, err := experiments.SolveMappingSession(nil, ses, bench, mapping, thermosyphon.DefaultOperating())
	if err != nil {
		return err
	}

	fmt.Printf("%s @%s via %s: config %v, actives %v, idle %v\n",
		bench.Name, qos, policy, mapping.Config, mapping.ActiveCores, mapping.IdleState)
	fmt.Printf("die: θmax %.1f °C θavg %.1f °C ∇θmax %.2f °C/mm\n", die.MaxC, die.MeanC, die.MaxGradCPerMM)
	fmt.Printf("pkg: θmax %.1f °C θavg %.1f °C ∇θmax %.2f °C/mm\n", pkg.MaxC, pkg.MeanC, pkg.MaxGradCPerMM)
	fmt.Printf("power %.1f W, Tsat %.1f °C, water out %.1f °C, refrigerant %.2f g/s (exit quality %.2f)\n",
		result.TotalPowerW, result.Syphon.Condenser.TsatC, result.Syphon.Condenser.WaterOutC,
		result.Syphon.Loop.MassFlowKgS*1e3, result.Syphon.Loop.ExitQuality)

	dieMap := sys.DieTemps(result)
	grid := sys.Thermal.Grid()
	switch format {
	case "ascii":
		return render.ASCIIMap(os.Stdout, grid, dieMap)
	case "csv":
		return render.CSVMap(os.Stdout, grid, dieMap)
	case "pgm":
		return render.PGM(os.Stdout, grid, dieMap)
	case "none":
		return nil
	default:
		return fmt.Errorf("unknown format %q", format)
	}
}
