package cosim

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"repro/internal/thermal"
	"repro/internal/thermosyphon"
)

// TestTransientExportImportExact pins the checkpoint/restore contract:
// stepping N, exporting, importing into a sim on a fresh system, and
// stepping M more is bit-identical to stepping N+M uninterrupted — for
// both the CG and the MG-PCG solvers and across thread counts. The state
// round-trips through JSON on the way, so the test also proves the
// serialized form loses no bits.
func TestTransientExportImportExact(t *testing.T) {
	op := thermosyphon.DefaultOperating()
	const dt, stepsN, stepsM = 0.25, 5, 6
	for _, solver := range []thermal.Solver{thermal.SolverCG, thermal.SolverMGPCG} {
		for _, threads := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s-t%d", solver, threads), func(t *testing.T) {
				newSim := func() (*System, *TransientSim) {
					sys, err := NewSystem(coarseConfig())
					if err != nil {
						t.Fatal(err)
					}
					ses := sys.NewSession(WithSolver(solver), WithThreads(threads))
					t.Cleanup(func() { ses.Close() })
					sim, err := ses.Transient(op, 30)
					if err != nil {
						t.Fatal(err)
					}
					return sys, sim
				}
				sysRef, ref := newSim()
				bp := sysRef.Power.BlockPowers(fullLoadState(2.2))
				for i := 0; i < stepsN+stepsM; i++ {
					if err := ref.Step(dt, bp); err != nil {
						t.Fatal(err)
					}
				}

				sysA, simA := newSim()
				bpA := sysA.Power.BlockPowers(fullLoadState(2.2))
				for i := 0; i < stepsN; i++ {
					if err := simA.Step(dt, bpA); err != nil {
						t.Fatal(err)
					}
				}
				// Serialize the exported state and restore from the parsed
				// bytes, exactly like the thermservd checkpoint file does.
				raw, err := json.Marshal(simA.ExportState())
				if err != nil {
					t.Fatal(err)
				}
				var st TransientState
				if err := json.Unmarshal(raw, &st); err != nil {
					t.Fatal(err)
				}

				sysB, simB := newSim()
				if err := simB.ImportState(&st); err != nil {
					t.Fatal(err)
				}
				if simB.Time() != simA.Time() {
					t.Fatalf("restored time %v, want %v", simB.Time(), simA.Time())
				}
				bpB := sysB.Power.BlockPowers(fullLoadState(2.2))
				for i := 0; i < stepsM; i++ {
					if err := simB.Step(dt, bpB); err != nil {
						t.Fatal(err)
					}
				}

				want, got := ref.Field().T, simB.Field().T
				if len(want) != len(got) {
					t.Fatalf("field sizes differ: %d vs %d", len(want), len(got))
				}
				for i := range want {
					if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
						t.Fatalf("cell %d differs after restore: %v vs uninterrupted %v",
							i, got[i], want[i])
					}
				}
				if ref.Time() != simB.Time() {
					t.Fatalf("time diverged: %v vs %v", simB.Time(), ref.Time())
				}
			})
		}
	}
}

// TestTransientImportValidation exercises the ImportState guard rails: a
// state from a different grid, a corrupted field, and a negative time are
// all refused without touching the sim.
func TestTransientImportValidation(t *testing.T) {
	sys, err := NewSystem(coarseConfig())
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewTransient(sys, thermosyphon.DefaultOperating(), 30)
	if err != nil {
		t.Fatal(err)
	}
	good := sim.ExportState()

	bad := *good
	bad.FieldT = bad.FieldT[:len(bad.FieldT)-1]
	if err := sim.ImportState(&bad); err == nil {
		t.Fatal("short field accepted")
	}
	bad = *good
	bad.BCH = append([]float64(nil), bad.BCH[:1]...)
	if err := sim.ImportState(&bad); err == nil {
		t.Fatal("short boundary accepted")
	}
	bad = *good
	bad.FieldT = append([]float64(nil), good.FieldT...)
	bad.FieldT[3] = math.NaN()
	if err := sim.ImportState(&bad); err == nil {
		t.Fatal("NaN field accepted")
	}
	bad = *good
	bad.TimeS = -1
	if err := sim.ImportState(&bad); err == nil {
		t.Fatal("negative time accepted")
	}
	if err := sim.ImportState(good); err != nil {
		t.Fatalf("valid state refused: %v", err)
	}
}
