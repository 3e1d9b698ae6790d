package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"time"

	"wsnloc"
)

// sizes are the input sizes of the workloads. The quick sizes keep every
// mechanism a workload exists for (disk-tier hits, coalescing, cache
// reads) but shrink its inputs so a run takes seconds.
type sizes struct {
	memoEntries int           // serve-mix: the daemon's memory LRU; the hot set is twice this
	mixRate     float64       // serve-mix: arrivals per second
	pairEvery   time.Duration // serve-mix: gap between identical fresh pairs
	scaleN      int           // scale-5k: nodes at canonical density
	// Traced replay: paper-solve specs, serve-mix bodies (decode/hash) and
	// solves, and sweep-cells requests re-run in-process.
	replaySolves, replayBodies, replaySweeps int
}

var (
	fullSizes  = sizes{memoEntries: 256, mixRate: 400, pairEvery: time.Second, scaleN: 5000, replaySolves: 12, replayBodies: 200, replaySweeps: 10}
	quickSizes = sizes{memoEntries: 16, mixRate: 100, pairEvery: 250 * time.Millisecond, scaleN: 1000, replaySolves: 4, replayBodies: 50, replaySweeps: 3}
)

// workload is one traffic mix the benchmark drives through a fresh wsnlocd.
// Each layer likely to be optimised is heavy in one workload and light in
// another (bench/README.md has the map).
type workload struct {
	name string
	// flags are wsnlocd's flags beyond -addr/-workers, given a fresh state
	// directory for the run.
	flags func(dir string, sz sizes) []string
	// verify is how many executions are re-run in-process and compared
	// byte for byte with the daemon's answer.
	verify int
	// fill brings a fresh daemon to the state the window starts from; it
	// counts into setup_s.
	fill func(ctx context.Context, b *bench)
	// drive runs the measured window.
	drive func(ctx context.Context, b *bench)
	// replay re-runs a sample of the window in-process under spans.
	replay func(ctx context.Context, rp *replayer) error
}

var workloads = []workload{
	{name: "paper-solve", verify: 2, fill: fillPaper, drive: drivePaper, replay: replayPaper},
	{name: "serve-mix", verify: 4, flags: mixFlags, fill: fillMix, drive: driveMix, replay: replayMix},
	{name: "sweep-cells", verify: 2, flags: sweepFlags, fill: fillSweep, drive: driveSweep, replay: replaySweepCells},
	{name: "scale-5k", verify: 1, fill: fillScale, drive: driveScale, replay: replayScale},
}

func workloadNamed(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// derive maps (workload seed, stream, index) to an input seed: splitmix64,
// trimmed to 53 bits so every seed survives any JSON reader.
func derive(seed uint64, stream, i int) uint64 {
	z := seed*0x9E3779B97F4A7C15 + uint64(stream)<<32 + uint64(i) + 1
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return (z ^ z>>31) >> 11
}

// Input-seed streams, one per kind of generated input.
const (
	streamPaper = iota + 1
	streamHot
	streamFresh
	streamPair
	streamSweep
	streamScale
	streamMix // the serve-mix arrival schedule
	streamPick
)

// solveRequest wraps a solve body with the content address the daemon must
// answer with, computed the way the daemon does.
func solveRequest(body string) *request {
	sp, err := wsnloc.ParseSpec([]byte(body))
	if err != nil {
		panic(fmt.Sprintf("benchmark generated an invalid spec %s: %v", body, err))
	}
	hash, err := wsnloc.SpecHash(sp)
	if err != nil {
		panic(err)
	}
	return &request{path: "/v1/solve", body: []byte(body), hash: hash}
}

// --- paper-solve: the paper's canonical network, every request a new one ---

// paperRequest is a bncl-grid solve of the canonical scenario (150 nodes,
// 100 m field, R = 15 m, 10 % anchors) on network i of the seed.
func paperRequest(seed uint64, i int) *request {
	s := derive(seed, streamPaper, i)
	return solveRequest(fmt.Sprintf(`{"scenario":{"Seed":%d},"algorithm":"bncl-grid","seed":%d}`, s, s+1))
}

// fillPaper warms the daemon with one solve of the same kind (network −1),
// so the window starts after one-time costs such as heap growth.
func fillPaper(ctx context.Context, b *bench) {
	b.fillSamples = append(b.fillSamples, b.c.sendAll(ctx, 1, []*request{paperRequest(b.cfg.seed, -1)})...)
}

// drivePaper is a closed loop of one client per pool worker: it measures the
// daemon's capacity on distinct canonical networks, and latency as service
// time with both cores busy but no request queued behind another.
func drivePaper(ctx context.Context, b *bench) {
	b.window, b.elapsed = b.c.closedLoop(ctx, workers, b.cfg.window, func(i int) *request {
		return paperRequest(b.cfg.seed, i)
	})
}

// --- serve-mix: the serving layer under an open loop -----------------------

// smallRequest is a small BNCL solve on network i of a stream: N=40 at
// canonical density on an 8² grid, ~8 ms on two cores. A miss holds one of
// the two connections while it runs, and every arrival behind it waits; at
// a 16² grid (~30 ms) that head-of-line wait, not the daemon, set the tail.
func smallRequest(seed uint64, stream, i int) *request {
	s := derive(seed, stream, i)
	return solveRequest(fmt.Sprintf(`{"scenario":{"N":40,"Field":52,"Seed":%d},"algorithm":"bncl-grid","alg_opts":{"grid_n":8},"seed":%d}`, s, s+1))
}

func mixFlags(dir string, sz sizes) []string {
	return []string{"-memo-dir", dir + "/memo", "-memo-entries", fmt.Sprint(sz.memoEntries)}
}

func (b *bench) hotSet() []*request {
	hot := make([]*request, 2*b.sz.memoEntries)
	for k := range hot {
		hot[k] = smallRequest(b.cfg.seed, streamHot, k)
	}
	return hot
}

// fillMix requests every hot spec once, so the window starts with the memo
// full: the most recent half in memory, all of it on disk.
func fillMix(ctx context.Context, b *bench) {
	b.fillSamples = append(b.fillSamples, b.c.sendAll(ctx, workers, b.hotSet())...)
}

// mixArrivals is the serve-mix schedule: Poisson arrivals of which 88 % read
// a hot spec with Zipf(1.1) popularity, 10 % revalidate a hot spec the client
// holds, and 2 % send a spec never seen before; plus, every pairEvery, two
// identical fresh specs at the same instant, one per connection, which the
// daemon must coalesce onto one execution.
func (b *bench) mixArrivals() []arrival {
	rng := rand.New(rand.NewPCG(b.cfg.seed, streamMix))
	hot := b.hotSet()
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(hot)-1))
	var out []arrival
	fresh, pair := 0, 0
	nextPair := b.sz.pairEvery / 2
	for _, at := range poissonTimes(rng, b.sz.mixRate, b.cfg.window) {
		for nextPair <= at {
			req := smallRequest(b.cfg.seed, streamPair, pair)
			out = append(out, arrival{nextPair, req}, arrival{nextPair, req})
			pair++
			nextPair += b.sz.pairEvery
		}
		switch u := rng.Float64(); {
		case u < 0.88:
			out = append(out, arrival{at, hot[zipf.Uint64()]})
		case u < 0.98:
			held := *hot[zipf.Uint64()]
			held.revalidate = true
			out = append(out, arrival{at, &held})
		default:
			out = append(out, arrival{at, smallRequest(b.cfg.seed, streamFresh, fresh)})
			fresh++
		}
	}
	return out
}

func driveMix(ctx context.Context, b *bench) {
	b.window, b.gen = b.c.openLoop(ctx, b.cfg.window, b.mixArrivals())
	b.elapsed = b.cfg.window
	b.open = true
}

// --- sweep-cells: the sweep engine with a persistent cell cache -------------

// sweepAlgorithms are the cheap baselines; BNCL is deliberately absent.
var sweepAlgorithms = []string{"centroid", "w-centroid", "min-max", "dv-hop", "dv-distance", "ls-multilat"}

// sweepRequest i sweeps 96 cells: 8 scenarios (anchor fraction × noise) ×
// 6 baselines × seeds {i, i+1}, one trial each. Request i−1 computed the
// cells of seed i, so with the daemon's cell cache half the cells are cache
// reads and half are fresh writes.
func sweepRequest(seed uint64, i int) *request {
	var scen []string
	for _, af := range []float64{0.05, 0.1, 0.15, 0.2} {
		for _, nf := range []float64{0.05, 0.2} {
			scen = append(scen, fmt.Sprintf(`{"AnchorFrac":%g,"NoiseFrac":%g,"Seed":%d}`, af, nf, derive(seed, streamSweep, 0)))
		}
	}
	algs, _ := json.Marshal(sweepAlgorithms)
	base := derive(seed, streamSweep, 1) % 1_000_000
	body := fmt.Sprintf(`{"scenarios":[%s],"algorithms":%s,"seeds":[%d,%d],"trials":1}`,
		strings.Join(scen, ","), algs, base+uint64(i), base+uint64(i)+1)
	sw, err := wsnloc.ParseSweepSpec([]byte(body))
	if err != nil {
		panic(fmt.Sprintf("benchmark generated an invalid sweep %s: %v", body, err))
	}
	return &request{path: "/v1/sweep", body: []byte(body), hash: sweepHash(sw)}
}

// sweepCells is the cell count of every sweepRequest.
const sweepCells = 8 * 6 * 2

// sweepHash is the content address wsnlocd gives a sweep document (its ETag
// and memo key): SHA-256 over a domain line and the normalized document.
func sweepHash(sw wsnloc.SweepSpec) string {
	data, err := json.Marshal(sw.Normalize())
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(append([]byte("wsnloc/serve.sweep/v1\n"), data...))
	return hex.EncodeToString(sum[:])
}

func sweepFlags(dir string, _ sizes) []string { return []string{"-cache", dir + "/cache"} }

// sweepFill is how many sweep requests set-up sends. One would prime the
// cell cache for the window; the first request of a fresh daemon runs while
// its heap is still growing, and its time swings by ±40 %, so set-up sends
// a few more to keep setup_s steady.
const sweepFill = 4

// fillSweep sends requests 0 … sweepFill−1 in order, so the first request
// of the window already finds half its cells cached.
func fillSweep(ctx context.Context, b *bench) {
	reqs := make([]*request, sweepFill)
	for i := range reqs {
		reqs[i] = sweepRequest(b.cfg.seed, i)
	}
	b.fillSamples = append(b.fillSamples, b.c.sendAll(ctx, 1, reqs)...)
}

func driveSweep(ctx context.Context, b *bench) {
	b.window, b.elapsed = b.c.closedLoop(ctx, 1, b.cfg.window, func(i int) *request {
		return sweepRequest(b.cfg.seed, sweepFill+i)
	})
}

// --- scale-5k: one large network at a time ----------------------------------

// scaleRequest is a bncl-grid solve of an n-node network at the canonical
// density with message censoring 0.5 and support pruning 0.05 (the scale
// engine's acceptance setting); a 5000-node answer is ~140 KB.
func scaleRequest(seed uint64, n, i int) *request {
	field := 100 * math.Sqrt(float64(n)/150)
	s := derive(seed, streamScale, i)
	return solveRequest(fmt.Sprintf(`{"scenario":{"N":%d,"Field":%.0f,"Seed":%d},"algorithm":"bncl-grid","alg_opts":{"censor":0.5,"prune":0.05},"seed":%d}`,
		n, field, s, s+1))
}

// fillScale warms the daemon with one solve of the same kind, like
// fillPaper.
func fillScale(ctx context.Context, b *bench) {
	b.fillSamples = append(b.fillSamples, b.c.sendAll(ctx, 1, []*request{scaleRequest(b.cfg.seed, b.sz.scaleN, -1)})...)
}

func driveScale(ctx context.Context, b *bench) {
	b.window, b.elapsed = b.c.closedLoop(ctx, 1, b.cfg.window, func(i int) *request {
		return scaleRequest(b.cfg.seed, b.sz.scaleN, i)
	})
}
