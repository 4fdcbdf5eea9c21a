package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/serve"
)

// The golden answers were recorded once, from the program as it stood when
// the benchmark was added (see README.md), with -record. Every run checks
// every answer against them.

//go:embed golden/*.json
var goldenFS embed.FS

// steadyGolden is the recorded answer for one steady pool member. Hash
// identifies the exact request body, so a changed generator cannot be
// checked against stale answers.
type steadyGolden struct {
	Hash     string  `json:"h"`
	DieMaxC  float64 `json:"die"`
	Eq1W     float64 `json:"eq1"`
	ChillerW float64 `json:"chiller"`
}

// chunkGolden is the last sample of one transient step chunk.
type chunkGolden struct {
	TimeS   float64 `json:"t"`
	DieMaxC float64 `json:"die"`
}

// fleetGolden is the converged fleet (a one-entry list in fleet.json).
type fleetGolden struct {
	MaxDieC   float64 `json:"max_die_c"`
	PUE       float64 `json:"pue"`
	Converged bool    `json:"converged"`
}

type goldens struct {
	coarse []steadyGolden
	chunks [][]chunkGolden // [catalog blade][chunk]
	fleet  []fleetGolden
}

const (
	goldenCoarse    = "steady-coarse.json"
	goldenTransient = "transient.json"
	goldenFleet     = "fleet.json"
)

func loadGoldens() (*goldens, error) {
	g := &goldens{}
	for name, dst := range map[string]any{
		goldenCoarse: &g.coarse, goldenTransient: &g.chunks, goldenFleet: &g.fleet,
	} {
		b, err := goldenFS.ReadFile("golden/" + name)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(b, dst); err != nil {
			return nil, fmt.Errorf("golden/%s: %w", name, err)
		}
	}
	switch {
	case len(g.coarse) != poolSize:
		return nil, fmt.Errorf("golden steady pool holds %d answers, want %d", len(g.coarse), poolSize)
	case len(g.chunks) != len(bladeCatalog):
		return nil, fmt.Errorf("golden transient answers cover %d blades, want %d", len(g.chunks), len(bladeCatalog))
	case len(g.fleet) != 1:
		return nil, fmt.Errorf("golden fleet answers hold %d entries, want 1", len(g.fleet))
	}
	for typ, c := range g.chunks {
		if len(c) != bladeChunks {
			return nil, fmt.Errorf("golden transient blade %d holds %d chunks, want %d", typ, len(c), bladeChunks)
		}
	}
	return g, nil
}

// round10 keeps ten significant digits: far inside the 1e-3 check, and
// short in the golden files.
func round10(x float64) float64 {
	r, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'g', 10, 64), 64)
	return r
}

func bodyHash(body []byte) string {
	h := sha256.Sum256(body)
	return hex.EncodeToString(h[:8])
}

// checkSteady compares a 200 /v1/steady body with the pool member's golden
// answer and returns the mismatch, if any.
func checkSteady(g steadyGolden, reqBody, respBody []byte) (steadyAnswer, error) {
	var a steadyAnswer
	if h := bodyHash(reqBody); h != g.Hash {
		return a, fmt.Errorf("request hash %s has no golden answer (golden %s): regenerate golden/", h, g.Hash)
	}
	if err := json.Unmarshal(respBody, &a); err != nil {
		return a, fmt.Errorf("steady body: %w", err)
	}
	if !near(a.DieMaxC, g.DieMaxC) || !near(a.Cooling.Eq1PowerW, g.Eq1W) || !near(a.Cooling.ChillerPowerW, g.ChillerW) {
		return a, fmt.Errorf("answer (die %.6f °C, eq1 %.6f W, chiller %.6f W) != golden (%.6f, %.6f, %.6f)",
			a.DieMaxC, a.Cooling.Eq1PowerW, a.Cooling.ChillerPowerW, g.DieMaxC, g.Eq1W, g.ChillerW)
	}
	return a, nil
}

// checkChunk compares a 200 step-chunk body with the blade's golden chunk.
func checkChunk(g chunkGolden, respBody []byte) error {
	var a chunkAnswer
	if err := json.Unmarshal(respBody, &a); err != nil {
		return fmt.Errorf("chunk body: %w", err)
	}
	if len(a.Samples) != chunkSteps {
		return fmt.Errorf("chunk has %d samples, want %d", len(a.Samples), chunkSteps)
	}
	last := a.Samples[len(a.Samples)-1]
	if !near(last.TimeS, g.TimeS) || !near(last.DieMaxC, g.DieMaxC) {
		return fmt.Errorf("chunk end (t %.6f s, die %.6f °C) != golden (%.6f, %.6f)", last.TimeS, last.DieMaxC, g.TimeS, g.DieMaxC)
	}
	return nil
}

// record recomputes one golden file from the current program and writes it
// into dir. It is how the golden answers were made; a run never calls it.
func record(pool, dir string) error {
	var (
		v    any
		name string
		err  error
	)
	switch pool {
	case "steady-coarse":
		name = goldenCoarse
		v, err = recordSteady()
	case "transient":
		name = goldenTransient
		v, err = recordTransient()
	case "fleet":
		name = goldenFleet
		v, err = recordFleet()
	default:
		return fmt.Errorf("unknown golden pool %q (want steady-coarse|transient|fleet)", pool)
	}
	if err != nil {
		return err
	}
	// One entry per line keeps the files diffable.
	var buf bytes.Buffer
	buf.WriteString("[\n")
	entries, err := json.Marshal(v)
	if err != nil {
		return err
	}
	var items []json.RawMessage
	if err := json.Unmarshal(entries, &items); err != nil {
		return err
	}
	for i, it := range items {
		buf.Write(it)
		if i < len(items)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]\n")
	return os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644)
}

func recordSteady() ([]steadyGolden, error) {
	t, _, err := boot(nil)
	if err != nil {
		return nil, err
	}
	defer t.close()
	out := make([]steadyGolden, poolSize)
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		mu      sync.Mutex
		firstEr error
	)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= poolSize {
					return
				}
				body, err := json.Marshal(coarseProposal(i))
				if err == nil {
					var rep reply
					rep, err = t.do(http.MethodPost, "/v1/steady", body)
					if err == nil && rep.status != http.StatusOK {
						err = fmt.Errorf("pool member %d: status %d: %s", i, rep.status, rep.body)
					}
					if err == nil {
						var a steadyAnswer
						if err = json.Unmarshal(rep.body, &a); err == nil && a.Escalations > 0 {
							err = fmt.Errorf("pool member %d escalated", i)
						}
						out[i] = steadyGolden{Hash: bodyHash(body), DieMaxC: round10(a.DieMaxC),
							Eq1W: round10(a.Cooling.Eq1PowerW), ChillerW: round10(a.Cooling.ChillerPowerW)}
					}
				}
				if err != nil {
					mu.Lock()
					if firstEr == nil {
						firstEr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return out, firstEr
}

func recordTransient() ([][]chunkGolden, error) {
	out := make([][]chunkGolden, len(bladeCatalog))
	for typ := range bladeCatalog {
		t, _, err := boot([]serve.TransientRegisterRequest{bladeRegistration(typ)})
		if err != nil {
			return nil, err
		}
		for j := 0; j < bladeChunks; j++ {
			body, err := json.Marshal(bladeChunk(typ, j))
			if err != nil {
				t.close()
				return nil, err
			}
			rep, err := t.do(http.MethodPost, "/v1/transient/"+bladeName(typ)+"/step", body)
			if err == nil && rep.status != http.StatusOK {
				err = fmt.Errorf("blade %d chunk %d: status %d: %s", typ, j, rep.status, rep.body)
			}
			var a chunkAnswer
			if err == nil {
				err = json.Unmarshal(rep.body, &a)
			}
			if err != nil {
				t.close()
				return nil, err
			}
			last := a.Samples[len(a.Samples)-1]
			out[typ] = append(out[typ], chunkGolden{TimeS: round10(last.TimeS), DieMaxC: round10(last.DieMaxC)})
		}
		t.close()
	}
	return out, nil
}

func recordFleet() ([]fleetGolden, error) {
	s, _, err := newFleet()
	if err != nil {
		return nil, err
	}
	rep, err := s.Solve(context.Background())
	s.Close()
	if err != nil {
		return nil, err
	}
	return []fleetGolden{{MaxDieC: round10(rep.MaxDieC), PUE: round10(rep.Plant.PUE), Converged: rep.Converged}}, nil
}
