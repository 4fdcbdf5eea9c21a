package main

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/serve"
	"repro/internal/workload"
)

// Every input of a run is a pure function of (workload, seed, seconds).
// Pool members are fixed functions of their pool index, so their golden
// answers are recorded once per pool (golden/); the seed only decides which
// members a run uses, in what order, and when.

const (
	// poolSize is the member count of the steady pool. A pool member is
	// (combo, water point): combos fix everything that enters the server's
	// session-lease key (benchmark mapping and fault), water points only the
	// coolant operating point, so a run both reuses and builds leases.
	poolSize   = 2048
	comboCount = 128
	waterCount = poolSize / comboCount

	// bladeChunks is how many step chunks per catalog blade have recorded
	// golden answers; a schedule never asks for more.
	bladeChunks = 600
	chunkSteps  = 10
	chunkDtS    = 0.05
)

var (
	freqs     = []float64{2.6, 2.9, 3.2}
	idleNames = []string{"POLL", "C1", "C1E", "C3", "C6"}
	faultMix  = []string{"pump:0.2", "pump:0.35", "fouling:0.3", "fouling:0.45"}
)

// coarseSalt seeds the pool's draws.
const coarseSalt = 0x636f6172

// coarseProposal returns member i of the mixed-zipf pool. It leaves the
// resolution, the solver and every other server setting to the program
// defaults.
func coarseProposal(i int) serve.SteadyRequest {
	combo, water := i%comboCount, i/comboCount
	r := rand.New(rand.NewSource(coarseSalt*1_000_003 + int64(combo)))
	benches := workload.All()
	cores := 1 + r.Intn(8)
	threads := cores
	if r.Intn(2) == 1 {
		threads = 2 * cores
	}
	active := r.Perm(8)[:cores]
	sort.Ints(active)
	req := serve.SteadyRequest{
		Benchmark:   benches[r.Intn(len(benches))].Name,
		Cores:       cores,
		Threads:     threads,
		FreqGHz:     freqs[r.Intn(len(freqs))],
		ActiveCores: active,
		Idle:        idleNames[r.Intn(len(idleNames))],
		// 4 inlet temperatures × 4 flows.
		WaterC:       25 + 2*float64(water%4),
		WaterFlowKgH: 5.5 + float64(water/4),
	}
	// One combo in eight carries a survivable cooling fault.
	if combo%8 == 7 {
		req.Fault = faultMix[(combo/8)%len(faultMix)]
	}
	return req
}

// runRand is the seed's generator for one workload; the salt keeps two
// workloads of one seed from sharing draws.
func runRand(seed int64, workloadName string) *rand.Rand {
	var h int64
	for _, c := range workloadName {
		h = h*131 + int64(c)
	}
	return rand.New(rand.NewSource(seed*0x9e3779b1 ^ h))
}

// bladeSpec is one catalog transient blade: its registration proposal
// (coarse, default coolant) and a fixed load trace.
type bladeSpec struct {
	bench   string
	cores   int
	freqGHz float64
}

var bladeCatalog = []bladeSpec{
	{"x264", 8, 3.2},
	{"swaptions", 6, 2.9},
	{"canneal", 8, 2.6},
	{"ferret", 4, 3.2},
	{"streamcluster", 8, 2.9},
	{"bodytrack", 2, 3.2},
}

func bladeName(typ int) string { return "blade-" + bladeCatalog[typ].bench }

func bladeRegistration(typ int) serve.TransientRegisterRequest {
	b := bladeCatalog[typ]
	return serve.TransientRegisterRequest{
		Blade: bladeName(typ),
		SteadyRequest: serve.SteadyRequest{
			Benchmark: b.bench,
			Cores:     b.cores,
			FreqGHz:   b.freqGHz,
		},
	}
}

// bladeChunk is chunk j (0-based, seq j+1) of a catalog blade's trace:
// chunkSteps steps of chunkDtS seconds at load factors in [0.5, 1.2).
func bladeChunk(typ, j int) serve.TransientStepRequest {
	r := rand.New(rand.NewSource(int64(typ)*1_000_003 + int64(j)))
	steps := make([]serve.TransientStep, chunkSteps)
	for i := range steps {
		load := 0.5 + 0.7*r.Float64()
		steps[i].Load = &load
	}
	return serve.TransientStepRequest{Seq: int64(j) + 1, DtS: chunkDtS, Steps: steps}
}

// Open-loop traffic of mixed-zipf. The key model is the repository's own
// (serve.LoadConfig Skew 1.2, rand.Zipf with v=1, as in BenchmarkServeLoad
// and thermload -skew 1.2). The rate is derived, not tuned: it puts the
// expected solve work of the timed window at one third of the server's 2
// solve slots (about 8 misses/s at the sizing table's 70 ms coarse miss,
// plus the chunks). Blades stream in real time: a chunk covers
// chunkSteps × chunkDtS = 0.5 s of blade time, and one is sent every
// 0.5 s of wall time from a seeded phase.
const (
	steadyRate  = 40.0 // steady what-ifs per second (Poisson)
	zipfS       = 1.2  // rand.Zipf exponent s over the coarse pool
	zipfV       = 1.0  // rand.Zipf offset v
	mixedBlades = 3
	chunkPeriod = chunkSteps * chunkDtS // s between a blade's chunks
)

type eventKind int

const (
	evSteady eventKind = iota
	evChunk
)

// event is one scheduled request of the open loop.
type event struct {
	due   time.Duration // since the start of the measured phase
	kind  eventKind
	pool  int // evSteady: coarse pool index
	blade int // evChunk: slot in the run's blade list
	chunk int // evChunk: chunk index
}

// mixedSchedule pre-draws the whole open-loop schedule of a mixed-zipf
// run: Poisson steady arrivals with Zipf-ranked keys (rank → pool member
// through a seeded permutation), and for each of the run's blades a
// real-time chunk stream with its own phase. Events are sorted by due time.
func mixedSchedule(seed int64, seconds float64) (events []event, blades []int) {
	r := runRand(seed, "mixed-zipf")
	blades = r.Perm(len(bladeCatalog))[:mixedBlades]
	rankToPool := r.Perm(poolSize)
	z := rand.NewZipf(r, zipfS, zipfV, poolSize-1)
	horizon := time.Duration(seconds * float64(time.Second))
	for t := 0.0; ; {
		t += r.ExpFloat64() / steadyRate
		due := time.Duration(t * float64(time.Second))
		if due >= horizon {
			break
		}
		events = append(events, event{due: due, kind: evSteady, pool: rankToPool[z.Uint64()]})
	}
	for slot := range blades {
		phase := chunkPeriod * r.Float64()
		for j := 0; j < bladeChunks; j++ {
			due := time.Duration((phase + float64(j)*chunkPeriod) * float64(time.Second))
			if due >= horizon {
				break
			}
			events = append(events, event{due: due, kind: evChunk, blade: slot, chunk: j})
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].due < events[j].due })
	return events, blades
}
