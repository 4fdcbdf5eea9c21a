package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// mixedReplay is what the traced mixed-zipf replays need.
type mixedReplay struct {
	missed []int // pool members in the order of their first answer
	blades []int // catalog types
	chunks []int // chunks each blade completed
}

// warmup is the opening stretch of the mixed-zipf schedule whose requests
// are sent and checked but not timed: the memo starts empty on every run,
// and the burst of misses while it fills would otherwise set the tail.
const warmup = 5 * time.Second

// runMixed plays the pre-drawn open-loop schedule. The clients take events
// in due order, wait until each is due, and time it from its due time, so
// a stalled server delays (and is charged for) everything behind it. A
// blade's chunk waits for that blade's previous chunk: chunks are
// seq-numbered and apply in order.
func runMixed(rc *runCtx) (*phase, error) {
	// The tail is the p90 what-if, which lies among the misses. The p99
	// (about 12 samples beyond it in a 30 s run) is in the detail line:
	// its ten-seed spread exceeds the metric's bound.
	p := &phase{tailQ: 0.9, detail: map[string]any{}, layers: map[string]float64{}}
	events, blades := mixedSchedule(rc.seed, warmup.Seconds()+rc.seconds)
	regs := make([]serve.TransientRegisterRequest, len(blades))
	for i, typ := range blades {
		regs[i] = bladeRegistration(typ)
	}
	t, err := bootMeasured(p, regs)
	if err != nil {
		return nil, err
	}
	defer t.close()

	// chunkDone[slot][j] closes when chunk j of that blade has returned.
	chunkDone := make([][]chan struct{}, len(blades))
	for i := range chunkDone {
		chunkDone[i] = make([]chan struct{}, bladeChunks)
		for j := range chunkDone[i] {
			chunkDone[i][j] = make(chan struct{})
		}
	}
	var (
		next   atomic.Int64
		mu     sync.Mutex
		wg     sync.WaitGroup
		hitMs  []float64
		stepMs []float64
		lateMs []float64
		esc    int
		outer  []float64
		bodies = map[int][32]byte{} // pool index → hash of its first body
		missed []int
		hits   int
		done   = make([]int, len(blades))
	)
	t0 := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(events) {
					return
				}
				ev := events[i]
				var body []byte
				var err error
				path := "/v1/steady"
				name := "serve.http.steady"
				if ev.kind == evSteady {
					body, err = json.Marshal(coarseProposal(ev.pool))
				} else {
					path = "/v1/transient/" + bladeName(blades[ev.blade]) + "/step"
					name = "serve.http.step"
					body, err = json.Marshal(bladeChunk(blades[ev.blade], ev.chunk))
				}
				if ev.kind == evChunk && ev.chunk > 0 {
					<-chunkDone[ev.blade][ev.chunk-1]
				}
				due := t0.Add(ev.due)
				time.Sleep(time.Until(due))
				late := msSince(due)
				var rep reply
				if err == nil {
					sp := rc.tr.start(name, 0, int64(i))
					rep, err = t.do(http.MethodPost, path, body)
					rc.tr.end(sp)
				}
				ms := msSince(due)
				if ev.kind == evChunk {
					close(chunkDone[ev.blade][ev.chunk])
				}
				mu.Lock()
				p.attempted++
				if ev.due >= warmup {
					lateMs = append(lateMs, late)
				}
				switch {
				case err != nil:
					p.fail("event %d: %v", i, err)
				case rep.status != http.StatusOK:
					p.fail("event %d (%s): status %d: %s", i, path, rep.status, rep.body)
				case ev.kind == evChunk:
					if err := checkChunk(rc.gold.chunks[blades[ev.blade]][ev.chunk], rep.body); err != nil {
						p.fail("blade %d chunk %d: %v", blades[ev.blade], ev.chunk, err)
						break
					}
					if ev.due >= warmup {
						stepMs = append(stepMs, ms)
					}
					done[ev.blade]++
				default:
					a, err := checkSteady(rc.gold.coarse[ev.pool], body, rep.body)
					if err != nil {
						p.fail("pool %d: %v", ev.pool, err)
						break
					}
					// Memo hits (and single-flight followers) must be
					// byte-identical to the miss that filled the memo.
					h := sha256.Sum256(rep.body)
					first, seen := bodies[ev.pool]
					if seen && first != h {
						p.fail("pool %d: repeated answer differs from the first", ev.pool)
						break
					}
					if !seen {
						missed = append(missed, ev.pool)
					}
					bodies[ev.pool] = h
					if rep.cache == "hit" {
						hits++
					} else {
						outer = append(outer, float64(a.Iterations))
					}
					if ev.due >= warmup {
						p.latMs = append(p.latMs, ms)
						if rep.cache == "hit" {
							hitMs = append(hitMs, ms)
						}
					}
					esc += a.Escalations
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// Each blade's final state must be where its last chunk left it.
	for slot, typ := range blades {
		if done[slot] == 0 {
			continue
		}
		p.attempted++
		want := rc.gold.chunks[typ][done[slot]-1]
		rep, err := t.do(http.MethodGet, "/v1/transient/"+bladeName(typ), nil)
		var st serve.TransientStatus
		if err == nil && rep.status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", rep.status, rep.body)
		}
		if err == nil {
			err = json.Unmarshal(rep.body, &st)
		}
		if err == nil && (!near(st.TimeS, want.TimeS) || !near(st.DieMaxC, want.DieMaxC)) {
			err = fmt.Errorf("final (t %.6f s, die %.6f °C) != golden (%.6f, %.6f)", st.TimeS, st.DieMaxC, want.TimeS, want.DieMaxC)
		}
		if err != nil {
			p.fail("blade %d final state: %v", typ, err)
		}
	}
	st := t.srv.Snapshot()
	t.close()
	if err := bootRest(p, regs); err != nil {
		return nil, err
	}

	p.detail["steady_requests"] = hits + len(outer)
	p.detail["timed_steady_requests"] = len(p.latMs)
	p.detail["memo_hits"] = hits
	p.detail["chunks"] = len(stepMs)
	if v, ok := percentile(p.latMs, 0.99); ok {
		p.detail["steady_p99_ms"] = v
	}
	if v, ok := percentile(stepMs, 0.5); ok {
		p.detail["step_p50_ms"] = v
		p.layers["serve.step_p50_ms"] = v
	}
	if v, ok := percentile(stepMs, 0.9); ok {
		p.detail["step_p90_ms"] = v
		p.layers["serve.step_p90_ms"] = v
	}
	if v, ok := percentile(lateMs, 0.99); ok {
		p.detail["gen_late_p99_ms"] = v
		p.layers["gen.late_p99_ms"] = v
	}
	p.detail["stats"] = st
	putServeCounters(p.layers, st)
	if len(hitMs) > 0 {
		p.layers["serve.hit_p50_ms"] = median(hitMs)
	}
	if len(outer) > 0 {
		p.layers["cosim.outer_iters"] = mean(outer)
	}
	p.layers["thermal.escalations"] = float64(esc)
	p.replay = mixedReplay{missed: missed, blades: blades, chunks: done}
	return p, nil
}
