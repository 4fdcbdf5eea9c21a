package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/cosim"
	"repro/internal/datacenter"
	"repro/internal/experiments"
	"repro/internal/floorplan"
	"repro/internal/power"
	"repro/internal/serve"
	"repro/internal/thermal"
	"repro/internal/thermosyphon"
	"repro/internal/workload"
)

// layerUnits is the per-layer metric set of a traced run, in BENCHMARK.json
// order. Every traced run reports every metric; a layer the workload
// bypasses reports 0.
var layerUnits = []struct{ name, unit string }{
	{"serve.memo_hit_ratio", "ratio"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.session_builds", "count"},
	{"serve.session_reuses", "count"},
	{"serve.evictions", "count"},
	{"serve.rejected", "count"},
	{"serve.miss_overhead_ms", "ms"},
	{"serve.step_p50_ms", "ms"},
	{"serve.step_p90_ms", "ms"},
	{"gen.late_p99_ms", "ms"},
	{"cosim.solve_ms", "ms"},
	{"cosim.outer_iters", "count"},
	{"cosim.build_ms", "ms"},
	{"cosim.leakage_iters", "count"},
	{"cosim.step_ms", "ms"},
	{"thermosyphon.march_ms", "ms"},
	{"thermosyphon.share", "ratio"},
	{"thermal.solves", "count"},
	{"thermal.iters_per_solve", "count"},
	{"thermal.applies_per_solve", "count"},
	{"thermal.linsolve_ms", "ms"},
	{"thermal.share", "ratio"},
	{"thermal.escalations", "count"},
	{"linalg.stream_gbs", "GB/s"},
	{"linalg.achieved_gbs", "GB/s"},
	{"linalg.working_set_mb", "MB"},
	{"datacenter.outer_iters", "count"},
	{"datacenter.blade_solves", "count"},
	{"datacenter.classes", "count"},
	{"datacenter.damping_halvings", "count"},
	{"datacenter.class_solve_ms", "ms"},
	{"datacenter.pool_efficiency", "ratio"},
	{"trace.overhead_p50_frac", "ratio"},
	{"trace.overhead_tail_frac", "ratio"},
	{"trace.spans", "count"},
}

// layerLabels marks the per-layer metrics that are not direct
// observations of the measured load: "replayed" values come from calling
// the layer standalone at the converged inputs of the measured run,
// "computed" values from cell counts and operator applies.
var layerLabels = map[string]string{
	"serve.miss_overhead_ms":     "replayed",
	"cosim.solve_ms":             "replayed",
	"cosim.build_ms":             "replayed",
	"cosim.leakage_iters":        "replayed",
	"cosim.step_ms":              "replayed",
	"thermosyphon.march_ms":      "replayed",
	"thermosyphon.share":         "replayed",
	"thermal.solves":             "replayed",
	"thermal.iters_per_solve":    "replayed",
	"thermal.applies_per_solve":  "replayed",
	"thermal.linsolve_ms":        "replayed",
	"thermal.share":              "replayed",
	"linalg.achieved_gbs":        "computed",
	"linalg.working_set_mb":      "computed",
	"datacenter.class_solve_ms":  "replayed",
	"datacenter.pool_efficiency": "replayed",
}

// layerMetrics assembles the --trace 1 metric line from the untraced
// phase, the traced phase (with its replays) and the STREAM anchor. It
// also returns the metric labels and the untraced phase's own noise for
// each overhead figure: the two phases run one after the other, so host
// drift lands in the overhead too, and an overhead no larger than the
// drift between the untraced phase's two halves is labelled
// "unresolved".
func layerMetrics(untraced, traced *phase, st streamResult, tr *tracer) (map[string]metric, map[string]string, map[string]float64) {
	l := traced.layers
	l["linalg.stream_gbs"] = st.GBs
	labels := make(map[string]string, len(layerLabels)+2)
	for k, v := range layerLabels {
		labels[k] = v
	}
	noise := map[string]float64{}
	u, t := untraced.endToEnd(), traced.endToEnd()
	for _, o := range []struct {
		metric, key string
		q           float64
	}{{"p50_ms", "trace.overhead_p50_frac", 0.5}, {"tail_ms", "trace.overhead_tail_frac", untraced.tailQ}} {
		a, ok := u[o.metric]
		b, ok2 := t[o.metric]
		if !ok || !ok2 || a.Value <= 0 {
			continue
		}
		over := (b.Value - a.Value) / a.Value
		l[o.key] = over
		drift, ok := untraced.halvesDrift(o.q)
		if ok {
			noise[o.key] = drift
		}
		if !ok || math.Abs(over) <= drift {
			labels[o.key] = "unresolved"
		}
	}
	tr.mu.Lock()
	l["trace.spans"] = float64(len(tr.spans))
	tr.mu.Unlock()
	out := make(map[string]metric, len(layerUnits))
	for _, lu := range layerUnits {
		v := l[lu.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // nothing to divide by: the layer did no such work
		}
		out[lu.name] = metric{v, lu.unit}
	}
	return out, labels, noise
}

// halvesDrift is the relative difference of the q-quantile of the
// phase's latencies between its first and second half (in completion
// order), without the sample-count gate: a measure of how much the same
// code drifts within one phase. ok is false with fewer than two samples.
func (p *phase) halvesDrift(q float64) (drift float64, ok bool) {
	n := len(p.latMs) / 2
	if n == 0 {
		return 0, false
	}
	stat := func(xs []float64) float64 {
		v, _ := quantile(append([]float64(nil), xs...), q)
		return v
	}
	return math.Abs(stat(p.latMs[:n])-stat(p.latMs[n:])) / stat(p.latMs), true
}

// Bytes the linear solver streams per unknown per operator apply: the
// stencil's five coefficient arrays plus x and y, and the fused CG vector
// kernels of one iteration (about thirteen more vector passes). The
// working set is the operator's five arrays and six CG vectors.
const (
	bytesPerApply        = 8 * 20
	workingSetPerUnknown = 8 * 11
)

// putComputed fills the computed linalg metrics from the unknown count and
// a measured time per operator apply.
func putComputed(l map[string]float64, unknowns int, msPerApply float64) {
	l["linalg.working_set_mb"] = float64(unknowns*workingSetPerUnknown) / 1e6
	if msPerApply > 0 {
		l["linalg.achieved_gbs"] = float64(unknowns*bytesPerApply) / (msPerApply / 1e3) / 1e9
	}
}

// packageState resolves a benchmark proposal the way the server does.
func packageState(req serve.SteadyRequest) (power.PackageState, error) {
	b, err := workload.ByName(req.Benchmark)
	if err != nil {
		return power.PackageState{}, err
	}
	idle := power.POLL
	for _, c := range []power.CState{power.POLL, power.C1, power.C1E, power.C3, power.C6} {
		if c.String() == req.Idle {
			idle = c
		}
	}
	threads := req.Threads
	if threads == 0 {
		threads = req.Cores
	}
	active := req.ActiveCores
	if len(active) == 0 {
		for i := 0; i < req.Cores; i++ {
			active = append(active, i)
		}
	}
	m := core.Mapping{ActiveCores: active, IdleState: idle,
		Config: workload.Config{Cores: req.Cores, Threads: threads, Freq: power.Frequency(req.FreqGHz)}}
	return core.PackageState(b, m), nil
}

// sessionOpts is the server's session configuration for a resolved
// server config: its solver and team width, no warm carry.
func sessionOpts(cfg serve.Config) []cosim.SessionOption {
	opts := []cosim.SessionOption{cosim.WithSolver(cfg.Solver), cosim.CarryWarmStart(cfg.CarryWarmStart)}
	if cfg.Threads > 1 {
		opts = append(opts, cosim.WithThreads(cfg.Threads))
	}
	return opts
}

// timeMarch replays the evaporator march at a converged heat flux and
// returns the median time of reps marches.
func timeMarch(tr *tracer, parent int64, d thermosyphon.Design, grid floorplan.Grid, q []float64, op thermosyphon.Operating, reps int) (float64, error) {
	var st *thermosyphon.State
	var ts []float64
	for i := 0; i < reps; i++ {
		sp := tr.start("thermosyphon.Design.EvaporateInto", parent, 0)
		t0 := time.Now()
		var err error
		st, err = d.EvaporateInto(st, grid, q, op)
		ts = append(ts, msSince(t0))
		tr.end(sp)
		if err != nil {
			return 0, err
		}
	}
	return median(ts), nil
}

// steadyReplay is one mixed-zipf miss replayed in process.
type steadyReplay struct{ buildMs, solveMs float64 }

// replaySteady builds the proposal's system and session as the server
// does, solves the sibling proposal on it first (the served miss ran on a
// lease that had just solved the sibling, so both timed solves are a
// second solve on a built session), then times the proposal's solve and
// checks its answer.
func replaySteady(tr *tracer, cfg serve.Config, sib, req serve.SteadyRequest, want steadyGolden) (steadyReplay, error) {
	var r steadyReplay
	st, err := packageState(req)
	if err != nil {
		return r, err
	}
	sibSt, err := packageState(sib)
	if err != nil {
		return r, err
	}
	root := tr.start("replay.steady", 0, 0)
	defer tr.end(root)

	sp := tr.start("cosim.build", root.ID(), 0)
	t0 := time.Now()
	sys, err := experiments.NewSystem(thermosyphon.DefaultDesign(), cfg.Resolution)
	if err != nil {
		return r, err
	}
	ses := sys.NewSession(sessionOpts(cfg)...)
	defer ses.Close()
	r.buildMs = msSince(t0)
	tr.end(sp)

	sp = tr.start("cosim.Session.SolveSteady", root.ID(), 0)
	_, err = ses.SolveSteady(context.Background(), sibSt, thermosyphon.Operating{WaterInC: sib.WaterC, WaterFlowKgH: sib.WaterFlowKgH})
	tr.end(sp)
	if err != nil {
		return r, err
	}

	sp = tr.start("cosim.Session.SolveSteady", root.ID(), 0)
	t0 = time.Now()
	out, err := ses.SolveSteady(context.Background(), st, thermosyphon.Operating{WaterInC: req.WaterC, WaterFlowKgH: req.WaterFlowKgH})
	r.solveMs = msSince(t0)
	tr.end(sp)
	if err != nil {
		return r, err
	}
	die, err := sys.DieStats(out)
	if err != nil {
		return r, err
	}
	if !near(die.MaxC, want.DieMaxC) {
		return r, fmt.Errorf("in-process solve die max %.6f °C != golden %.6f", die.MaxC, want.DieMaxC)
	}
	return r, nil
}

// timeSteadySolve replays a cold steady linear solve linReplays times at
// a converged boundary and returns the median time per operator apply.
func timeSteadySolve(tr *tracer, parent int64, ws *thermal.Workspace, cells []float64, bc thermal.TopBoundary) (float64, error) {
	dst := ws.Model().NewField()
	var perApply []float64
	for i := 0; i < linReplays; i++ {
		before := ws.Stats().Applies
		sp := tr.start("thermal.Workspace.SteadySolveLayersInto", parent, 0)
		t0 := time.Now()
		err := ws.SteadySolveLayersInto(dst, nil, [][]float64{cells}, bc)
		ms := msSince(t0)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		if a := ws.Stats().Applies - before; a > 0 {
			perApply = append(perApply, ms/float64(a))
		}
	}
	if len(perApply) == 0 {
		return 0, nil
	}
	return median(perApply), nil
}

// steadyReplays is how many mixed-zipf misses a traced run replays, and
// linReplays how often the fleet replay times its linear solve.
const (
	steadyReplays = 6
	linReplays    = 5
)

// replayMisses replays the first fault-free pool members the traced phase
// missed on, in order: each once over HTTP on a fresh server after a
// sibling with the same lease key and another water point has built the
// lease (so the miss pays serve's own path and the solve), and once in
// process on a session that has solved the same sibling. The difference
// is serve's own time on a miss.
func replayMisses(rc *runCtx, p *phase, missed []int) error {
	t, _, err := boot(nil)
	if err != nil {
		return err
	}
	defer t.close()
	cfg := t.srv.Config()
	var overhead, build, solve []float64
	for _, idx := range missed {
		if len(solve) == steadyReplays {
			break
		}
		req := coarseProposal(idx)
		if req.Fault != "" {
			continue
		}
		sib := idx%comboCount + comboCount*((idx/comboCount+1)%waterCount)
		var httpMs float64
		for _, i := range []int{sib, idx} {
			body, err := json.Marshal(coarseProposal(i))
			if err != nil {
				return err
			}
			p.attempted++
			sp := rc.tr.start("serve.http.steady", 0, int64(i))
			start := time.Now()
			rep, err := t.do(http.MethodPost, "/v1/steady", body)
			httpMs = msSince(start)
			rc.tr.end(sp)
			if err == nil && rep.status != http.StatusOK {
				err = fmt.Errorf("status %d: %s", rep.status, rep.body)
			}
			if err == nil {
				_, err = checkSteady(rc.gold.coarse[i], body, rep.body)
			}
			if err != nil {
				p.fail("replay pool %d: %v", i, err)
				return nil
			}
		}
		r, err := replaySteady(rc.tr, cfg, coarseProposal(sib), req, rc.gold.coarse[idx])
		p.attempted++
		if err != nil {
			p.fail("replay pool %d in process: %v", idx, err)
			return nil
		}
		overhead = append(overhead, httpMs-r.solveMs)
		build = append(build, r.buildMs)
		solve = append(solve, r.solveMs)
	}
	if len(solve) == 0 {
		return fmt.Errorf("no fault-free miss to replay")
	}
	l := p.layers
	l["serve.miss_overhead_ms"] = median(overhead)
	l["cosim.build_ms"] = median(build)
	l["cosim.solve_ms"] = median(solve)
	p.detail["replayed_misses"] = len(solve)
	return nil
}

// transientReplayChunks bounds the chunks a traced mixed-zipf run replays.
const transientReplayChunks = 40

// mixedLayers replays the run's first misses (replayMisses), then the
// first blade's chunk stream in process on a session configured like the
// server's, checking it reproduces the served answers, then one march and
// one backward-Euler linear solve standalone at the final state.
func mixedLayers(rc *runCtx, p *phase) error {
	rp := p.replay.(mixedReplay)
	if err := replayMisses(rc, p, rp.missed); err != nil || p.failed > 0 {
		return err
	}
	cfg, err := serveDefaults()
	if err != nil {
		return err
	}
	typ := rp.blades[0]
	reg := bladeRegistration(typ)
	st, err := packageState(reg.SteadyRequest)
	if err != nil {
		return err
	}
	root := rc.tr.start("replay.transient", 0, 0)
	defer rc.tr.end(root)
	sys, err := experiments.NewSystem(thermosyphon.DefaultDesign(), experiments.Coarse)
	if err != nil {
		return err
	}
	ses := sys.NewSession(sessionOpts(cfg)...)
	defer ses.Close()
	op := thermosyphon.DefaultOperating()
	sim, err := ses.Transient(op, op.WaterInC)
	if err != nil {
		return err
	}
	base := sys.Power.BlockPowers(st)
	scaled := make(map[string]float64, len(base))
	var stepMs []float64
	chunks := min(rp.chunks[0], transientReplayChunks)
	for j := 0; j < chunks; j++ {
		for _, s := range bladeChunk(typ, j).Steps {
			for k, v := range base {
				scaled[k] = v * *s.Load
			}
			sp := rc.tr.start("cosim.TransientSim.Step", root.ID(), int64(j))
			t0 := time.Now()
			err := sim.Step(chunkDtS, scaled)
			stepMs = append(stepMs, msSince(t0))
			rc.tr.end(sp)
			if err != nil {
				return err
			}
		}
		die, err := sim.DieMax()
		if err != nil {
			return err
		}
		p.attempted++
		if want := rc.gold.chunks[typ][j]; !near(sim.Time(), want.TimeS) || !near(die, want.DieMaxC) {
			p.fail("transient replay blade %d chunk %d: (t %.6f, die %.6f) != golden (%.6f, %.6f)", typ, j, sim.Time(), die, want.TimeS, want.DieMaxC)
			return nil
		}
	}
	if len(stepMs) == 0 {
		return fmt.Errorf("no transient chunk completed")
	}
	stats := ses.SolverStats()
	l := p.layers
	l["cosim.step_ms"] = median(stepMs)
	l["thermal.solves"] = float64(stats.Solves) / float64(len(stepMs))
	l["thermal.iters_per_solve"] = float64(stats.Iterations) / float64(stats.Solves)
	l["thermal.applies_per_solve"] = float64(stats.Applies) / float64(stats.Solves)
	l["thermal.escalations"] += float64(stats.Escalations)

	bc := thermal.TopBoundary{H: sim.Syphon().H, TFluid: sim.Syphon().TFluid}
	q := sim.Field().TopHeatPerCellInto(nil, bc)
	if l["thermosyphon.march_ms"], err = timeMarch(rc.tr, root.ID(), sys.Design, sys.Thermal.Grid(), q, op, 20); err != nil {
		return err
	}
	l["thermosyphon.share"] = l["thermosyphon.march_ms"] / l["cosim.step_ms"]
	cells, err := sys.PowerCells(base)
	if err != nil {
		return err
	}
	ws := sys.Thermal.NewWorkspace()
	defer ws.Close()
	ws.SetSolver(cfg.Solver)
	if cfg.Threads > 1 {
		ws.SetThreads(cfg.Threads)
	}
	dst := sys.Thermal.NewField()
	var linMs []float64
	for i := 0; i < 20; i++ {
		sp := rc.tr.start("thermal.Workspace.StepTransientLayersInto", root.ID(), 0)
		t0 := time.Now()
		err := ws.StepTransientLayersInto(dst, sim.Field(), chunkDtS, [][]float64{cells}, bc)
		linMs = append(linMs, msSince(t0))
		rc.tr.end(sp)
		if err != nil {
			return err
		}
	}
	l["thermal.linsolve_ms"] = median(linMs)
	l["thermal.share"] = median(linMs) / l["cosim.step_ms"]
	if a := ws.Stats().Applies; a > 0 {
		putComputed(l, len(dst.T), median(linMs)*float64(ws.Stats().Solves)/float64(a))
	}
	p.detail["replayed_chunks"] = chunks
	return nil
}

// serveDefaults is the server's resolved default configuration.
func serveDefaults() (serve.Config, error) {
	s, err := serve.New(serve.Config{})
	if err != nil {
		return serve.Config{}, err
	}
	defer s.Close()
	return s.Config(), nil
}

// fleetLayers re-runs the cold fleet with a one-worker pool to time the
// class solves without the pool, then replays every loop-0 class solve
// standalone at the converged supply temperature on a fresh session, and
// one linear solve at the last class's converged boundary.
func fleetLayers(rc *runCtx, p *phase) error {
	rp := p.replay.(fleetReplay)
	if len(rp.reports) == 0 {
		return fmt.Errorf("no converged fleet solve to replay")
	}
	rep := rp.reports[0]
	topo, err := datacenter.Uniform(fleetRacks, fleetPerRack, fleetLoops, fleetLoop(), fleetStates())
	if err != nil {
		return err
	}
	sys, err := experiments.NewSystem(thermosyphon.DefaultDesign(), experiments.Coarse)
	if err != nil {
		return err
	}
	// The pooled and the serial solve run back to back, so a change in
	// host speed between the measured phase and the replay cannot pass
	// for pool (in)efficiency.
	var wall [2]float64
	for i, workers := range []int{0, 1} {
		runtime.GC()
		s, err := datacenter.New(sys, topo, datacenter.Options{Leakage: power.DefaultLeakage(), Workers: workers})
		if err != nil {
			return err
		}
		sp := rc.tr.start(fmt.Sprintf("replay.datacenter.Solver.Solve.workers=%d", workers), 0, 0)
		t0 := time.Now()
		r, err := s.Solve(context.Background())
		wall[i] = time.Since(t0).Seconds()
		rc.tr.end(sp)
		s.Close()
		p.attempted++
		if err != nil || r.MaxDieC != rep.MaxDieC || r.BladeSolves != rep.BladeSolves {
			p.fail("fleet replay with workers=%d differs from the measured solve: %v", workers, err)
			return nil
		}
	}
	l := p.layers
	l["datacenter.class_solve_ms"] = wall[1] * 1e3 / float64(rep.BladeSolves)
	l["datacenter.pool_efficiency"] = wall[1] / (wall[0] * float64(runtime.GOMAXPROCS(0)))

	var opts datacenter.Options // the fleet's solver: the Options default
	root := rc.tr.start("replay.fleet.classes", 0, 0)
	defer rc.tr.end(root)
	leak := power.DefaultLeakage()
	op := thermosyphon.Operating{WaterInC: rep.Loops[0].State.SupplyC, WaterFlowKgH: fleetLoop().PerBladeFlowKgH}
	var leakIters, solves, iters, applies, esc float64
	var last *cosim.LeakageResult
	states := fleetStates()
	for i, st := range states {
		ses := sys.NewSession(cosim.WithSolver(opts.Solver))
		sp := rc.tr.start("cosim.Session.SolveSteadyLeakage", root.ID(), int64(i))
		r, err := ses.SolveSteadyLeakage(context.Background(), st, op, leak)
		rc.tr.end(sp)
		stats := ses.SolverStats()
		ses.Close()
		if err != nil {
			return err
		}
		leakIters += float64(r.LeakageIterations)
		solves += float64(stats.Solves)
		iters += float64(stats.Iterations)
		applies += float64(stats.Applies)
		esc += float64(stats.Escalations)
		last = r
	}
	n := float64(len(states))
	l["cosim.leakage_iters"] = leakIters / n
	l["thermal.solves"] = solves / n
	l["thermal.iters_per_solve"] = iters / solves
	l["thermal.applies_per_solve"] = applies / solves
	l["thermal.escalations"] += esc

	cells, err := sys.PowerCells(last.BlockPower)
	if err != nil {
		return err
	}
	ws := sys.Thermal.NewWorkspace()
	defer ws.Close()
	ws.SetSolver(opts.Solver)
	msPerApply, err := timeSteadySolve(rc.tr, root.ID(), ws, cells, last.BC)
	if err != nil {
		return err
	}
	putComputed(l, sys.Thermal.Cells()*sys.Thermal.Layers(), msPerApply)
	p.detail["replay_pooled_s"], p.detail["replay_serial_s"] = wall[0], wall[1]
	return nil
}
