package cosim

import (
	"errors"
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/thermal"
	"repro/internal/thermosyphon"
)

// TestSessionErrorInvalidatesWarmStart: any failed solve must drop the
// warm-start carry — the carried field may be half-converged or
// NaN-contaminated — so the next solve starts cold and lands byte-identical
// to the fresh System path.
func TestSessionErrorInvalidatesWarmStart(t *testing.T) {
	sys, err := NewSystem(coarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	op := thermosyphon.DefaultOperating()
	st := fullLoadState(2.2)

	ses := sys.NewSession(WithSolver(thermal.SolverMGPCG))
	if _, err := ses.SolveSteady(nil, st, op); err != nil {
		t.Fatal(err)
	}
	if !ses.warm {
		t.Fatal("session not warm after a successful solve")
	}

	// Force a numerical failure: NaN-poison the MG preconditioner with the
	// escalation ladder disabled, so the solve error surfaces.
	ses.ws.SetEscalation(false)
	ses.ws.InjectMGFault(true)
	_, err = ses.SolveSteady(nil, st, op)
	if err == nil {
		t.Fatal("poisoned solve succeeded")
	}
	if !errors.Is(err, linalg.ErrNotConverged) {
		t.Fatalf("poisoned solve error %v does not unwrap to ErrNotConverged", err)
	}
	if ses.warm {
		t.Fatal("failed solve left the warm-start carry armed")
	}

	// Heal the solver: the next solve must seed cold and match a cold
	// same-solver reference byte for byte.
	ses.ws.SetEscalation(true)
	ses.ws.InjectMGFault(false)
	got, err := ses.SolveSteady(nil, st, op)
	if err != nil {
		t.Fatal(err)
	}
	ref := sys.NewSession(WithSolver(thermal.SolverMGPCG), CarryWarmStart(false))
	fresh, err := ref.SolveSteady(nil, st, op)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterations != fresh.Iterations {
		t.Fatalf("post-failure solve took %d coupling iterations, fresh cold solve %d",
			got.Iterations, fresh.Iterations)
	}
	for i := range fresh.Field.T {
		if got.Field.T[i] != fresh.Field.T[i] {
			t.Fatalf("post-failure solve differs from fresh cold solve at cell %d: %v vs %v",
				i, got.Field.T[i], fresh.Field.T[i])
		}
	}
}

// TestSessionEscalationsSurfaced: a session whose solves escalate must
// report the descents through the accessor, and the rescued solve must
// still converge, re-arm the warm start, and leave the configured solver
// in place. With the V-cycle poisoned, every linear solve of the coupled
// fixed point takes the ladder's one rung, mgpcg→cg (nan), exactly once.
func TestSessionEscalationsSurfaced(t *testing.T) {
	sys, err := NewSystem(coarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	op := thermosyphon.DefaultOperating()
	st := fullLoadState(2.2)

	ses := sys.NewSession(WithSolver(thermal.SolverMGPCG))
	ses.ws.InjectMGFault(true)
	got, err := ses.SolveSteady(nil, st, op)
	if err != nil {
		t.Fatalf("ladder did not rescue the poisoned session solve: %v", err)
	}
	if !ses.warm {
		t.Fatal("rescued solve did not re-arm the warm start")
	}
	esc := ses.Escalations()
	if len(esc) == 0 {
		t.Fatal("session escalations not surfaced")
	}
	want := thermal.Escalation{From: thermal.SolverMGPCG, To: thermal.SolverCG, Cause: "nan"}
	for i, e := range esc {
		if e != want {
			t.Fatalf("descent %d = %v, want %v", i, e, want)
		}
	}
	stats := ses.SolverStats()
	if stats.Escalations != len(esc) {
		t.Fatalf("SolverStats().Escalations = %d but Escalations() lists %d",
			stats.Escalations, len(esc))
	}
	// Each linear solve ran two rungs (the poisoned mgpcg, then cg), so
	// exactly one descent per linear solve means Solves = 2·descents.
	if stats.Solves != 2*len(esc) {
		t.Fatalf("%d rung solves for %d descents, want exactly one descent per linear solve",
			stats.Solves, len(esc))
	}
	if s := ses.ws.Solver(); s != thermal.SolverMGPCG {
		t.Fatalf("configured solver drifted to %v, want mgpcg", s)
	}

	// The rescued answer is a cg answer: it must match a healthy cg
	// session to well inside the coupling tolerance.
	ref, err := sys.NewSession(WithSolver(thermal.SolverCG)).SolveSteady(nil, st, op)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(maxT(got) - maxT(ref)); d > 1e-3 {
		t.Fatalf("rescued die max %.6f °C differs from cg reference %.6f °C by %.3g",
			maxT(got), maxT(ref), d)
	}
}
