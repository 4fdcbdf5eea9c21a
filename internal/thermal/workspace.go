package thermal

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/linalg"
)

// Workspace owns every per-solve buffer a Model needs — the operator
// diagonal and its inverse, the right-hand side, the CG scratch vectors, a
// reusable top-boundary buffer, and two field buffers — so that repeated
// solves on the same model perform no allocations. The buffers are fully
// overwritten by each solve; a reused workspace carries no numerical state
// between calls (warm starting is the caller's choice via the init/prev
// field arguments), which is what keeps the workspace path bit-identical
// to the allocating SteadySolveFrom/StepTransient wrappers.
//
// A workspace is bound to one model and is NOT safe for concurrent use;
// give each goroutine (e.g. each sweep worker) its own.
type Workspace struct {
	m   *Model
	op  stencil
	pre linalg.DiagonalPreconditioner
	rhs linalg.Vector
	cg  linalg.CGWorkspace

	// solver selects the linear solver; hier is the multigrid ladder the
	// MG-PCG solver uses, built lazily on its first solve (the default CG
	// path never pays for it).
	solver Solver
	hier   *hierarchy

	// team is the intra-solve worker team SetThreads owns; threads is the
	// configured width (0 = never set, serial). teamMu serialises team
	// ownership (SetThreads, Close, wireTeam) so that concurrent Close
	// calls tear the team down exactly once.
	teamMu  sync.Mutex
	team    *linalg.Team
	threads int

	// layers is the map→slice conversion scratch for the layer-power
	// compatibility wrappers.
	layers [][]float64

	stats SolveStats
	last  linalg.CGResult

	// Escalation-ladder state: noEscalate disables the ladder (zero value
	// = enabled); esc accumulates the descents taken; seed snapshots the
	// transient warm start so a retry can discard the corrupted iterate;
	// ctx, when set, is observed between ladder rungs; poisonMG arms the
	// fault-injection wrapper around multigrid preconditioners.
	noEscalate bool
	esc        []Escalation
	seed       linalg.Vector
	ctx        context.Context
	poisonMG   bool
	poison     poisonPrecond

	bc   TopBoundary
	a, b *Field
}

// NewWorkspace returns a workspace sized for the model. The operator,
// right-hand side, field, boundary, and CG buffers are allocated lazily
// on first use, so building a workspace allocates nothing beyond the
// struct and a workspace built only to run one solve costs no more than
// the old per-call path did.
func (m *Model) NewWorkspace() *Workspace {
	return &Workspace{m: m}
}

// ensureOperator allocates the operator diagonals and the right-hand
// side on first use.
func (w *Workspace) ensureOperator() {
	if w.rhs != nil {
		return
	}
	w.op = w.m.newStencil()
	w.op.setTeam(w.team)
	w.pre = linalg.DiagonalPreconditioner{InvDiag: w.op.invDiag}
	w.rhs = make(linalg.Vector, w.m.n)
}

// Model returns the model the workspace solves on.
func (w *Workspace) Model() *Model { return w.m }

// SetSolver selects the linear solver for subsequent solves. The zero
// value SolverCG is the historical Jacobi-CG path; SolverMGPCG routes
// through the geometric multigrid hierarchy, which is built once on first
// use and reused (allocation-free) afterwards.
func (w *Workspace) SetSolver(s Solver) { w.solver = s }

// Solver returns the workspace's selected linear solver.
func (w *Workspace) Solver() Solver { return w.solver }

// SetThreads sets the intra-solve thread count: the stencil kernels, the
// multigrid transfers and the fused CG vector ops of every subsequent
// solve fan out across a persistent worker team of this width (n <= 0
// selects GOMAXPROCS). Thread count is a pure performance knob — solves
// are byte-identical at any setting, enforced by the fixed-band
// partitioning and fixed-chunk reductions in linalg. The workspace owns
// the team: call Close (or SetThreads(1)) to release its goroutines.
func (w *Workspace) SetThreads(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	w.teamMu.Lock()
	defer w.teamMu.Unlock()
	if n == w.threads {
		return
	}
	w.team.Close()
	w.team = linalg.NewTeam(n)
	w.threads = n
	w.wireTeam()
}

// Threads returns the configured intra-solve thread count (1 when never
// set or closed).
func (w *Workspace) Threads() int {
	if w.threads <= 0 {
		return 1
	}
	return w.threads
}

// Close releases the workspace's worker team. The workspace stays usable
// afterwards — solves simply run serially (with identical results).
// Close is idempotent and safe to call concurrently with itself: a second
// Close finds a nil team and is a no-op.
func (w *Workspace) Close() {
	w.teamMu.Lock()
	defer w.teamMu.Unlock()
	w.team.Close()
	w.team = nil
	w.threads = 0
	w.wireTeam()
}

// wireTeam points every kernel owner at the current team. The caller
// holds teamMu.
func (w *Workspace) wireTeam() {
	w.op.setTeam(w.team)
	w.cg.SetTeam(w.team)
	if w.hier != nil {
		w.hier.setTeam(w.team)
	}
}

// Stats returns cumulative linear-solver effort since the workspace was
// created.
func (w *Workspace) Stats() SolveStats { return w.stats }

// LastSolve returns the convergence report of the most recent linear
// solve.
func (w *Workspace) LastSolve() linalg.CGResult { return w.last }

// ensureHierarchy lazily builds the multigrid ladder over the
// workspace's operator stencil.
func (w *Workspace) ensureHierarchy() error {
	if w.hier != nil {
		return nil
	}
	w.ensureOperator()
	h, err := newHierarchy(w.m, &w.op)
	if err != nil {
		return err
	}
	h.setTeam(w.team)
	w.hier = h
	return nil
}

// poisonPrecond is the fault-injection wrapper InjectMGFault arms: it
// forwards to the wrapped preconditioner, then writes a NaN into the
// output — the numerical signature of an SPD preconditioner gone bad —
// so the escalation ladder can be exercised deterministically.
type poisonPrecond struct{ inner linalg.Preconditioner }

func (p *poisonPrecond) Apply(r, z linalg.Vector) {
	p.inner.Apply(r, z)
	z[0] = math.NaN()
}

func (p *poisonPrecond) ApplyCost() int {
	if cp, ok := p.inner.(linalg.CostedPreconditioner); ok {
		return cp.ApplyCost()
	}
	return 1
}

// reseedMode tells a ladder retry how to rebuild the initial iterate after
// discarding the failed rung's (possibly NaN-corrupted) one.
type reseedMode int

const (
	// reseedAmbient refills the iterate with the ambient temperature — the
	// cold start of a steady solve, deliberately ignoring any warm-start
	// seed (the seed itself may be what corrupted the first rung).
	reseedAmbient reseedMode = iota
	// reseedSeed restores the snapshot taken before the first rung — the
	// previous-step field a transient step must integrate from.
	reseedSeed
)

// SetEscalation enables or disables the solver escalation ladder
// (enabled by default). With the ladder off, a failed solve returns its
// diagnostic error directly — the pre-ladder behavior.
func (w *Workspace) SetEscalation(on bool) { w.noEscalate = !on }

// SetContext attaches a context the escalation ladder observes between
// rungs (individual linear solves are not interruptible). nil detaches.
func (w *Workspace) SetContext(ctx context.Context) { w.ctx = ctx }

// Escalations returns a copy of every ladder descent taken since the
// workspace was created, in order. Empty means no solve ever escalated.
func (w *Workspace) Escalations() []Escalation {
	return append([]Escalation(nil), w.esc...)
}

// InjectMGFault arms (or disarms) the fault-injection hook: while armed,
// the V-cycle preconditioner is wrapped so its output is NaN-corrupted,
// forcing the mgpcg rung of the escalation ladder to fail and the solve
// to degrade to the terminal Jacobi-CG rung. Test/demo knob for
// proving the ladder works; it never changes the converged answer, only
// which solver produces it.
func (w *Workspace) InjectMGFault(on bool) { w.poisonMG = on }

// canEscalate reports whether a failed solve has a rung to fall to.
func (w *Workspace) canEscalate() bool {
	if w.noEscalate {
		return false
	}
	_, ok := nextRung(w.solver)
	return ok
}

// solve runs the selected linear solver on the already-assembled system
// (fillOperator and rhsInto must have run), updating x in place and the
// workspace's solve statistics — descending the escalation ladder on
// numerical failure. Each descent is recorded (never hidden), the failed
// rung's iterate is discarded per rm, and the configured solver is left
// untouched: the next solve starts back at the top of the ladder. Only
// *linalg.SolveError failures escalate; setup errors (an unbuildable
// hierarchy) surface immediately. Between rungs the ladder observes the
// context installed by SetContext, so cancellation is honored even when
// every rung is failing slowly.
func (w *Workspace) solve(x linalg.Vector, tol float64, rm reseedMode) error {
	cur := w.solver
	for {
		err := w.solveWith(cur, x, tol)
		if err == nil || w.noEscalate {
			return err
		}
		var se *linalg.SolveError
		if !errors.As(err, &se) {
			return err
		}
		next, ok := nextRung(cur)
		if !ok {
			return err
		}
		if w.ctx != nil {
			if cerr := w.ctx.Err(); cerr != nil {
				return cerr
			}
		}
		w.stats.Escalations++
		w.esc = append(w.esc, Escalation{From: cur, To: next, Cause: se.Cause.String()})
		switch rm {
		case reseedSeed:
			copy(x, w.seed)
		default:
			x.Fill(w.m.Env.AmbientC)
		}
		cur = next
	}
}

// solveWith runs one ladder rung: CG on the assembled system, Jacobi
// preconditioned for SolverCG and V-cycle preconditioned for SolverMGPCG.
// The multigrid path re-derives its coarse diagonals from whatever
// fillOperator assembled, so steady and transient systems need no extra
// plumbing here.
func (w *Workspace) solveWith(s Solver, x linalg.Vector, tol float64) error {
	var pre linalg.Preconditioner = &w.pre
	if s == SolverMGPCG {
		if err := w.ensureHierarchy(); err != nil {
			return err
		}
		w.hier.refresh()
		pre = w.mgPrecond()
	}
	res, err := linalg.CGWith(&w.op, w.rhs, x, linalg.CGOptions{
		Tol:     tol,
		MaxIter: 40 * w.m.n,
		Precond: pre,
	}, &w.cg)
	w.last = res
	w.stats.Solves++
	w.stats.Iterations += res.Iterations
	w.stats.Applies += res.Applies
	return err
}

// mgPrecond returns the V-cycle preconditioner to hand CG, wrapped with
// the NaN poisoner when InjectMGFault armed it. The terminal Jacobi rung
// never routes through here, so it stays fault-free by construction.
func (w *Workspace) mgPrecond() linalg.Preconditioner {
	if !w.poisonMG {
		return w.hier.mg
	}
	w.poison.inner = w.hier.mg
	return &w.poison
}

// FieldA returns the workspace's first reusable field buffer, allocating
// it on first use. The buffer is owned by the workspace: it stays valid
// across solves, which is exactly what lets a session keep the previous
// converged field as the next solve's warm start.
func (w *Workspace) FieldA() *Field {
	if w.a == nil {
		w.a = w.m.NewField()
	}
	return w.a
}

// FieldB returns the second reusable field buffer (e.g. for a transient
// simulation sharing the workspace with steady solves).
func (w *Workspace) FieldB() *Field {
	if w.b == nil {
		w.b = w.m.NewField()
	}
	return w.b
}

// Boundary returns a reusable top-boundary buffer sized to the grid
// (allocated on first use). Callers fill H/TFluid in place — e.g. the
// damped boundary a transient co-simulation carries between steps.
func (w *Workspace) Boundary() TopBoundary {
	if len(w.bc.H) != w.m.cells {
		w.bc = TopBoundary{H: make([]float64, w.m.cells), TFluid: make([]float64, w.m.cells)}
	}
	return w.bc
}

// checkDst validates a solve destination.
func (w *Workspace) checkDst(dst *Field) error {
	if dst == nil || dst.model != w.m || len(dst.T) != w.m.n {
		return fmt.Errorf("thermal: solve destination is not a field of this model (size %d)", w.m.n)
	}
	return nil
}

// layersFromMap converts a layer-power map into the workspace's dense
// per-layer scratch table, validating the layer indices. The returned
// slice is owned by the workspace and overwritten by the next conversion.
func (w *Workspace) layersFromMap(powerByLayer map[int][]float64) ([][]float64, error) {
	if w.layers == nil {
		w.layers = make([][]float64, w.m.nl)
	}
	for i := range w.layers {
		w.layers[i] = nil
	}
	for l, p := range powerByLayer {
		if l < 0 || l >= w.m.nl {
			return nil, fmt.Errorf("thermal: power assigned to invalid layer %d", l)
		}
		w.layers[l] = p
	}
	return w.layers, nil
}

// SteadySolveInto computes the steady-state field into dst, reusing the
// workspace buffers: no allocations after the buffers exist. init, when
// non-nil and correctly sized, seeds the CG iteration (dst == init is
// allowed and skips the copy); otherwise the solve starts from ambient.
// It is the map-keyed wrapper over SteadySolveLayersInto.
func (w *Workspace) SteadySolveInto(dst, init *Field, powerByLayer map[int][]float64, bc TopBoundary) error {
	layers, err := w.layersFromMap(powerByLayer)
	if err != nil {
		return err
	}
	return w.SteadySolveLayersInto(dst, init, layers, bc)
}

// SteadySolveLayersInto is SteadySolveInto with the injected power as a
// dense per-layer table: layers[l] is layer l's per-cell watts (nil
// entries inject nothing; the table may be shorter than the stack). This
// is the hot-path form — per-step callers keep a persistent table and
// avoid the map allocation and lookup entirely. The linear solve runs to
// relative residual 1e-10; SteadySolveLayersTolInto takes the tolerance.
func (w *Workspace) SteadySolveLayersInto(dst, init *Field, layers [][]float64, bc TopBoundary) error {
	return w.SteadySolveLayersTolInto(dst, init, layers, bc, 1e-10)
}

// SteadySolveLayersTolInto is SteadySolveLayersInto with the linear
// solve's relative residual tolerance given by the caller — for outer
// fixed points (the coupled thermosyphon loop) whose own exit test is far
// coarser than a 1e-10 solve.
func (w *Workspace) SteadySolveLayersTolInto(dst, init *Field, layers [][]float64, bc TopBoundary, tol float64) error {
	m := w.m
	if err := w.checkDst(dst); err != nil {
		return err
	}
	if err := m.checkBC(bc); err != nil {
		return err
	}
	w.ensureOperator()
	m.fillOperator(&w.op, bc, 0)
	if err := m.rhsLayersInto(w.rhs, layers, bc); err != nil {
		return err
	}
	if init != nil && len(init.T) == m.n {
		if dst != init {
			copy(dst.T, init.T)
		}
	} else {
		dst.T.Fill(m.Env.AmbientC)
	}
	if err := w.solve(dst.T, tol, reseedAmbient); err != nil {
		return fmt.Errorf("thermal: steady solve: %w", err)
	}
	return nil
}

// StepTransientInto advances prev by dt seconds with backward Euler into
// dst, reusing the workspace buffers. dst == prev is allowed: the step
// then updates the field in place (the previous temperatures are consumed
// by the right-hand side before CG mutates the iterate). It is the
// map-keyed wrapper over StepTransientLayersInto.
func (w *Workspace) StepTransientInto(dst, prev *Field, dt float64, powerByLayer map[int][]float64, bc TopBoundary) error {
	layers, err := w.layersFromMap(powerByLayer)
	if err != nil {
		return err
	}
	return w.StepTransientLayersInto(dst, prev, dt, layers, bc)
}

// StepTransientLayersInto is StepTransientInto with the dense per-layer
// power table of SteadySolveLayersInto — the allocation- and lookup-free
// form transient simulations step on.
func (w *Workspace) StepTransientLayersInto(dst, prev *Field, dt float64, layers [][]float64, bc TopBoundary) error {
	m := w.m
	if dt <= 0 {
		return fmt.Errorf("thermal: non-positive dt %g", dt)
	}
	if err := m.checkBC(bc); err != nil {
		return err
	}
	if prev == nil || len(prev.T) != m.n {
		return fmt.Errorf("thermal: transient step needs a field of size %d", m.n)
	}
	if err := w.checkDst(dst); err != nil {
		return err
	}
	w.ensureOperator()
	m.fillOperator(&w.op, bc, 1/dt)
	if err := m.rhsLayersInto(w.rhs, layers, bc); err != nil {
		return err
	}
	for i := range w.rhs {
		w.rhs[i] += m.capAll[i] / dt * prev.T[i]
	}
	if dst != prev {
		copy(dst.T, prev.T)
	}
	if w.canEscalate() {
		// Snapshot the previous-step field (dst may alias prev, so it must
		// be taken before CG mutates the iterate): a ladder retry restores
		// it instead of integrating from a corrupted iterate.
		if cap(w.seed) < m.n {
			w.seed = make(linalg.Vector, m.n)
		}
		w.seed = w.seed[:m.n]
		copy(w.seed, dst.T)
	}
	if err := w.solve(dst.T, 1e-9, reseedSeed); err != nil {
		return fmt.Errorf("thermal: transient step: %w", err)
	}
	return nil
}
