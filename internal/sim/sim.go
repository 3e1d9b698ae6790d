// Package sim is a synchronous-round message-passing simulator for sensor
// networks. It is the substrate the distributed localization protocols run
// on, standing in for the paper's (ns-2-style) simulation environment.
//
// The model is the standard one for distributed WSN algorithms: execution
// proceeds in rounds; messages sent in round t are delivered at the start of
// round t+1 to every neighbor that survives packet loss; each message is
// charged to a byte-level energy and traffic account. The simulator is
// deliberately synchronous — the localization protocols of this literature
// are round-based gossip/flood algorithms, and a synchronous schedule makes
// experiments reproducible while still counting every message a real
// deployment would send.
package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"wsnloc/internal/rng"
	"wsnloc/internal/topology"
	"wsnloc/internal/wsnerr"
)

// Message is one radio transmission. Localization payloads are small Go
// values; Bytes is the size the message would occupy on air and is what the
// traffic/energy accounting uses.
type Message struct {
	From    int
	To      int // receiving node (set by the engine for broadcasts)
	Kind    string
	Bytes   int
	Payload interface{}
}

// EnergyModel charges transmissions and receptions. The defaults approximate
// a CC2420-class radio at 250 kb/s: cost is reported in microjoules.
type EnergyModel struct {
	TxPerByte float64 // µJ per transmitted byte
	RxPerByte float64 // µJ per received byte
	TxFixed   float64 // µJ fixed per transmission (preamble, turnaround)
}

// DefaultEnergy returns CC2420-flavored constants.
func DefaultEnergy() EnergyModel {
	return EnergyModel{TxPerByte: 0.6, RxPerByte: 0.67, TxFixed: 10}
}

// Stats accumulates the traffic and energy a run consumed.
type Stats struct {
	Rounds        int
	MessagesSent  int // transmissions (one broadcast = one transmission)
	MessagesRecvd int // deliveries (one per surviving receiver)
	BytesSent     int // transmitted bytes
	BytesRecvd    int // delivered bytes
	Dropped       int // deliveries lost to packet loss
	Delayed       int // deliveries slipped by MAC/clock jitter
	// MessagesCensored counts transmissions protocols suppressed via
	// Context.Censored — broadcasts a node had ready but judged redundant
	// (message censoring). They consume no traffic or energy; the counter
	// makes the savings observable rather than inferred.
	MessagesCensored int
	EnergyMicroJ     float64 // total energy across all nodes
	PerNodeTx        []int   // transmissions per node
}

// Node is a protocol running on one sensor. Implementations receive their
// inbox each round and send through the Context. A node signals completion
// via Done; the network halts early once every node is done and no messages
// are in flight.
type Node interface {
	// Init runs before round 0 with an empty inbox.
	Init(ctx *Context)
	// Round runs once per round with the messages delivered this round.
	Round(ctx *Context, round int, inbox []Message)
	// Done reports whether this node has converged / finished.
	Done() bool
}

// Context is a node's interface to the radio during Init/Round. It is only
// valid for the duration of the callback.
type Context struct {
	net *Network
	id  int
}

// ID returns the node's identifier.
func (c *Context) ID() int { return c.id }

// NumNodes returns the network size.
func (c *Context) NumNodes() int { return c.net.graph.N }

// Neighbors returns the ids of the node's radio neighbors. The slice is the
// engine's shared adjacency cache; callers must not mutate it.
func (c *Context) Neighbors() []int { return c.net.nbrs[c.id] }

// Censored records one suppressed transmission: the node had a broadcast to
// make but censored it (e.g. its belief has been quiescent for several
// rounds). Counted in Stats.MessagesCensored; each node's count is buffered
// per round like its sends, so the tally is safe under the worker pool.
func (c *Context) Censored() { c.net.nodeCensored[c.id]++ }

// MeasuredRange returns the range measurement to a neighbor, if the link
// exists.
func (c *Context) MeasuredRange(j int) (float64, bool) {
	return c.net.graph.MeasBetween(c.id, j)
}

// Broadcast queues a message to every neighbor (one transmission).
func (c *Context) Broadcast(kind string, bytes int, payload interface{}) {
	c.net.send(c.id, -1, kind, bytes, payload)
}

// Send queues a unicast message to neighbor j. Sending to a non-neighbor is
// a protocol bug and panics.
func (c *Context) Send(j int, kind string, bytes int, payload interface{}) {
	if _, ok := c.net.graph.MeasBetween(c.id, j); !ok {
		panic(fmt.Sprintf("sim: node %d sending to non-neighbor %d", c.id, j))
	}
	c.net.send(c.id, j, kind, bytes, payload)
}

// Network wires node programs onto a topology graph and runs them.
type Network struct {
	graph   *topology.Graph
	nodes   []Node
	workers int
	loss    float64
	jitter  float64
	energy  EnergyModel
	stream  *rng.Stream
	outbox  []Message // merged messages queued this round
	// nodeOut[i] buffers node i's sends until the round's merge; each slot
	// is touched only by the goroutine running node i, so buffering is safe
	// under the worker pool without locks.
	nodeOut [][]Message
	// nodeCensored[i] buffers node i's suppressed-transmission count the
	// same way; collect folds it into stats.MessagesCensored.
	nodeCensored []int
	// nbrs caches each node's neighbor list once: deliver fans every
	// broadcast out over it, and rebuilding the slice per broadcast per
	// round is the engine's dominant allocation at large n.
	nbrs     [][]int
	ctxs     []Context
	delayed  []Message // deliveries pushed to a later round by jitter
	inboxes  [][]Message
	stats    Stats
	maxBytes int64 // safety valve against runaway protocols
	onRound  func(round int, stats Stats)
}

// Config tunes a Network.
type Config struct {
	// Workers sets how many goroutines execute node programs within a
	// round: 0 uses GOMAXPROCS, 1 reproduces the sequential engine. Within
	// a round inboxes are fixed and sends are buffered per node, then
	// merged in node-id order before delivery, so every worker count yields
	// bit-identical results (traffic stats, RNG consumption, float
	// reduction orders). Node programs must not share mutable state for
	// Workers != 1.
	Workers int
	// Loss is the independent per-delivery packet-loss probability in [0,1).
	Loss float64
	// DelayJitter is the per-delivery probability that a message slips to
	// the following round (and again, geometrically), modeling MAC backoff
	// and clock skew — the asynchrony protocols must tolerate in practice.
	// Must be in [0, 1).
	DelayJitter float64
	// Energy is the energy model; zero value disables energy accounting.
	Energy EnergyModel
	// Seed drives packet-loss and jitter randomness.
	Seed uint64
	// MaxBytes aborts the run if total traffic exceeds it (0 = 1 GiB).
	MaxBytes int64
	// OnRound, if non-nil, is invoked after every executed round with the
	// round index and a snapshot of the cumulative stats — the observability
	// hook protocol tracers use to attribute traffic and wall time to
	// rounds. The callback must not retain or mutate the stats' slices.
	OnRound func(round int, stats Stats)
}

// NewNetwork builds a network of len(nodes) programs over graph. The number
// of programs must equal graph.N.
func NewNetwork(graph *topology.Graph, nodes []Node, cfg Config) (*Network, error) {
	if len(nodes) != graph.N {
		return nil, fmt.Errorf("sim: %w: %d programs for %d nodes", wsnerr.ErrBadConfig, len(nodes), graph.N)
	}
	if cfg.Loss < 0 || cfg.Loss >= 1 {
		return nil, fmt.Errorf("sim: %w: loss must be in [0,1)", wsnerr.ErrBadConfig)
	}
	if cfg.DelayJitter < 0 || cfg.DelayJitter >= 1 {
		return nil, fmt.Errorf("sim: %w: delay jitter must be in [0,1)", wsnerr.ErrBadConfig)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("sim: %w: workers must be >= 0", wsnerr.ErrBadConfig)
	}
	maxBytes := cfg.MaxBytes
	if maxBytes <= 0 {
		maxBytes = 1 << 30
	}
	n := &Network{
		graph:        graph,
		nodes:        nodes,
		workers:      ResolveWorkers(cfg.Workers, graph.N),
		loss:         cfg.Loss,
		jitter:       cfg.DelayJitter,
		energy:       cfg.Energy,
		stream:       rng.New(cfg.Seed ^ 0x5151_C0DE),
		nodeOut:      make([][]Message, graph.N),
		nodeCensored: make([]int, graph.N),
		nbrs:         make([][]int, graph.N),
		inboxes:      make([][]Message, graph.N),
		stats:        Stats{PerNodeTx: make([]int, graph.N)},
		maxBytes:     maxBytes,
		onRound:      cfg.OnRound,
	}
	for i := range n.nbrs {
		n.nbrs[i] = graph.Neighbors(i)
	}
	n.ctxs = make([]Context, graph.N)
	for i := range n.ctxs {
		n.ctxs[i] = Context{net: n, id: i}
	}
	return n, nil
}

// ResolveWorkers maps a Config.Workers value to the pool size actually used
// for n nodes: 0 means GOMAXPROCS, and the pool never exceeds the node count.
func ResolveWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n > 0 && workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Workers returns the resolved worker-pool size of the engine.
func (n *Network) Workers() int { return n.workers }

// ErrTrafficBudget is returned when a run exceeds its byte budget, which
// indicates a protocol that never quiesces.
var ErrTrafficBudget = errors.New("sim: traffic budget exceeded")

func (n *Network) send(from, to int, kind string, bytes int, payload interface{}) {
	if bytes <= 0 {
		bytes = 1
	}
	n.nodeOut[from] = append(n.nodeOut[from], Message{From: from, To: to, Kind: kind, Bytes: bytes, Payload: payload})
}

// collect merges the per-node send buffers into the global outbox in node-id
// order and applies the traffic/energy accounting. Nodes execute in id order
// on the sequential engine, so merging in id order makes the outbox — and
// with it the delivery RNG consumption and every float accumulation order —
// identical for any worker count.
func (n *Network) collect() {
	for i := range n.nodeOut {
		for _, m := range n.nodeOut[i] {
			n.outbox = append(n.outbox, m)
			n.stats.MessagesSent++
			n.stats.BytesSent += m.Bytes
			n.stats.PerNodeTx[m.From]++
			n.stats.EnergyMicroJ += n.energy.TxFixed + n.energy.TxPerByte*float64(m.Bytes)
		}
		n.nodeOut[i] = n.nodeOut[i][:0]
	}
	for i, c := range n.nodeCensored {
		if c != 0 {
			n.stats.MessagesCensored += c
			n.nodeCensored[i] = 0
		}
	}
}

// runNodes invokes fn(i) for every node, fanning out over the worker pool
// when it has more than one goroutine. The pool hands out node indices via an
// atomic counter, so scheduling is load-balanced but the set of calls — and,
// because all cross-node effects are buffered per node, the observable
// outcome — is schedule-independent. A panic in fn is re-raised on the
// caller's goroutine once every worker has stopped, as the sequential engine
// would raise it, so a caller's recover sees it instead of the process dying.
func (n *Network) runNodes(fn func(i int)) {
	if n.workers <= 1 {
		for i := range n.nodes {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var panicked any // the first panic value raised by a worker
	wg.Add(n.workers)
	for w := 0; w < n.workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if panicked == nil {
						panicked = r
					}
					mu.Unlock()
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(n.nodes) {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// deliver moves the outbox (and any jitter-delayed deliveries that come due)
// into next-round inboxes, applying packet loss per receiver.
func (n *Network) deliver() {
	for i := range n.inboxes {
		n.inboxes[i] = n.inboxes[i][:0]
	}
	due := n.delayed
	n.delayed = nil
	for _, m := range due {
		n.deliverOne(m, m.To)
	}
	for _, m := range n.outbox {
		if m.To >= 0 {
			n.deliverOne(m, m.To)
			continue
		}
		for _, j := range n.nbrs[m.From] {
			n.deliverOne(m, j)
		}
	}
	n.outbox = n.outbox[:0]
}

func (n *Network) deliverOne(m Message, to int) {
	if n.loss > 0 && n.stream.Bool(n.loss) {
		n.stats.Dropped++
		return
	}
	if n.jitter > 0 && n.stream.Bool(n.jitter) {
		// Slip this delivery to the next round (possibly again, making the
		// extra delay geometric).
		m.To = to
		n.delayed = append(n.delayed, m)
		n.stats.Delayed++
		return
	}
	m.To = to
	n.inboxes[to] = append(n.inboxes[to], m)
	n.stats.MessagesRecvd++
	n.stats.BytesRecvd += m.Bytes
	n.stats.EnergyMicroJ += n.energy.RxPerByte * float64(m.Bytes)
}

// Run executes up to maxRounds rounds and returns the accumulated stats. It
// halts early when every node is Done and no messages are in flight.
func (n *Network) Run(maxRounds int) (Stats, error) {
	return n.RunCtx(context.Background(), maxRounds)
}

// RunCtx is Run bounded by a context: the engine checks ctx between rounds
// — never mid-round, so cancellation cannot perturb a round's deterministic
// schedule — and returns the stats accumulated so far plus ctx.Err() within
// one round of cancellation. The per-round worker pool is fully joined
// before every check, so a canceled run leaks no goroutines. An uncanceled
// run is bit-identical to Run for every worker count.
func (n *Network) RunCtx(ctx context.Context, maxRounds int) (Stats, error) {
	if err := ctx.Err(); err != nil {
		return n.stats, err
	}
	n.runNodes(func(i int) { n.nodes[i].Init(&n.ctxs[i]) })
	n.collect()
	for round := 0; round < maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return n.stats, err
		}
		n.deliver()
		inFlight := len(n.delayed) > 0
		for i := range n.inboxes {
			if len(n.inboxes[i]) > 0 {
				inFlight = true
				break
			}
		}
		allDone := true
		for _, node := range n.nodes {
			if !node.Done() {
				allDone = false
				break
			}
		}
		if allDone && !inFlight && round > 0 {
			n.stats.Rounds = round
			return n.stats, nil
		}
		r := round
		n.runNodes(func(i int) { n.nodes[i].Round(&n.ctxs[i], r, n.inboxes[i]) })
		n.collect()
		n.stats.Rounds = round + 1
		if n.onRound != nil {
			n.onRound(round, n.stats)
		}
		if int64(n.stats.BytesSent) > n.maxBytes {
			return n.stats, ErrTrafficBudget
		}
	}
	return n.stats, nil
}
