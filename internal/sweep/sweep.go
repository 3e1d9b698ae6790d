// Package sweep is the experiment-grid engine: it expands a declarative
// multi-axis sweep (scenarios × algorithms × option sets × seeds) into
// individual alg.Spec cells, executes them on a bounded worker pool with
// context cancellation, and persists every cell's pooled metrics.Eval to a
// content-addressed on-disk cache keyed by the canonical Spec hash. A killed
// or repeated sweep resumed against the same output directory re-runs only
// the cells whose results are not already cached, and the merged summary —
// the paper-style RMSE-vs-anchor-fraction / RMSE-vs-noise curves — is
// byte-identical whether the cells came from the cache or from a cold run.
//
// Layout of an output directory:
//
//	out/
//	  objects/<hh>/<hash>.json   one cached cell result (a castore object)
//	  journal.<I>.jsonl          shard I's cell records (sharded runs, see Merge)
//	  leases/shard.<I>.lease     shard I's crash-safe lease (sharded runs)
//	  summary.json               merged curves (written by the CLI)
//
// The cache key is SHA-256 over a domain string carrying EngineVersion, the
// cell spec's canonical JSON (see alg.Spec.Hash for the normalization
// contract: default-filled, Workers/Tracer stripped), and the trial count.
// Bumping EngineVersion invalidates every existing entry at once.
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"wsnloc/internal/alg"
	"wsnloc/internal/wsnerr"

	// The comparison algorithms self-register into the shared registry;
	// importing them here guarantees sweep cells can name the full set.
	_ "wsnloc/internal/baseline"
)

// EngineVersion is baked into every cache key: a change to the execution
// semantics (trial seeding, evaluation, merge order) must bump it so stale
// results can never satisfy a resume.
const EngineVersion = 1

// SpecVersion is the sweep-document schema version.
const SpecVersion = 1

// Grid ceilings. Sweep documents arrive over the network (wsnlocd's
// POST /v1/sweep) as well as from the CLI, so an absurd cross product must
// be rejected by validation — before the cell slice is allocated — rather
// than discovered as an out-of-memory kill.
const (
	// MaxCells caps the expanded grid size (scenarios × algorithms ×
	// option sets × seeds).
	MaxCells = 1 << 20
	// MaxTrials caps the Monte-Carlo repetition count per cell.
	MaxTrials = 1 << 20
)

// Spec declares one experiment grid. Every axis is a list; the grid is the
// full cross product scenarios × algorithms × alg-opts × seeds, each cell
// running Trials Monte-Carlo repetitions. The zero value of the optional
// axes means "one default element", so a minimal document is just scenarios
// plus algorithms.
type Spec struct {
	// Version is the schema version (SpecVersion); zero is accepted as
	// current so hand-written documents stay terse.
	Version int `json:"version"`
	// Name labels the sweep in journals and summaries.
	Name string `json:"name,omitempty"`
	// Scenarios is the scenario axis (at least one).
	Scenarios []alg.Scenario `json:"scenarios"`
	// Algorithms is the algorithm-name axis (at least one registered name).
	Algorithms []string `json:"algorithms"`
	// AlgOpts is the tuning axis; empty means one default option set.
	AlgOpts []alg.Opts `json:"alg_opts,omitempty"`
	// Seeds is the seed axis; empty means [1].
	Seeds []uint64 `json:"seeds,omitempty"`
	// Trials is the Monte-Carlo repetition count per cell (0 = 1).
	Trials int `json:"trials,omitempty"`
}

// Cell is one executable unit of a sweep: a fully-specified run description
// plus its trial count. The cell's scenario seed base is Spec.Scenario.Seed
// shifted by Spec.Seed, so the seed axis varies every trial's topology and
// algorithm stream deterministically.
type Cell struct {
	Spec   alg.Spec `json:"spec"`
	Trials int      `json:"trials"`
}

// Key returns the cell's content address: hex SHA-256 over the engine
// version, the spec's canonical JSON, and the trial count. Equal keys mean
// "same computation, same result bytes".
func (c Cell) Key() (string, error) {
	data, err := c.Spec.CanonicalJSON()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "wsnloc/sweep.Cell/v%d\n", EngineVersion)
	h.Write(data)
	fmt.Fprintf(h, "\ntrials=%d", c.Trials)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Normalize fills the defaulted axes: current Version, one zero Opts, the
// [1] seed list, and a single trial. Out-of-range values (negative trials)
// are preserved for Validate to reject.
func (sw Spec) Normalize() Spec {
	if sw.Version == 0 {
		sw.Version = SpecVersion
	}
	if len(sw.AlgOpts) == 0 {
		sw.AlgOpts = []alg.Opts{{}}
	}
	if len(sw.Seeds) == 0 {
		sw.Seeds = []uint64{1}
	}
	if sw.Trials == 0 {
		sw.Trials = 1
	}
	return sw
}

// Validate reports whether the sweep expands into runnable cells. Failures
// wrap wsnerr.ErrBadSpec (plus the sentinel of the failing part).
func (sw Spec) Validate() error {
	sw = sw.Normalize()
	bad := func(format string, args ...interface{}) error {
		return fmt.Errorf("sweep: %w: %s", wsnerr.ErrBadSpec, fmt.Sprintf(format, args...))
	}
	if sw.Version != SpecVersion {
		return bad("unsupported version %d (current %d)", sw.Version, SpecVersion)
	}
	if len(sw.Scenarios) == 0 {
		return bad("at least one scenario is required")
	}
	if len(sw.Algorithms) == 0 {
		return bad("at least one algorithm is required")
	}
	if sw.Trials < 0 {
		return bad("trials must be >= 1, got %d", sw.Trials)
	}
	if sw.Trials > MaxTrials {
		return bad("trials must be <= %d, got %d", MaxTrials, sw.Trials)
	}
	// Guard the cross product in int64: four len() factors each bounded by
	// the document size cannot overflow int64, but their product can exceed
	// any sane grid long before it overflows.
	cells := int64(len(sw.Scenarios)) * int64(len(sw.Algorithms)) *
		int64(len(sw.AlgOpts)) * int64(len(sw.Seeds))
	if cells > MaxCells {
		return bad("grid expands to %d cells, max %d (scenarios %d × algorithms %d × alg_opts %d × seeds %d)",
			cells, MaxCells, len(sw.Scenarios), len(sw.Algorithms), len(sw.AlgOpts), len(sw.Seeds))
	}
	for i, s := range sw.Scenarios {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("sweep: %w: scenario %d: %v", wsnerr.ErrBadSpec, i, err)
		}
	}
	for i, o := range sw.AlgOpts {
		if err := o.Validate(); err != nil {
			return fmt.Errorf("sweep: %w: alg_opts %d: %v", wsnerr.ErrBadSpec, i, err)
		}
	}
	for _, name := range sw.Algorithms {
		// Per-algorithm validation via a probe spec keeps the unknown-name
		// diagnostics identical to the single-run path.
		probe := alg.Spec{Algorithm: name}
		if err := probe.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// MarshalJSON encodes the normalized sweep, so round-tripping a terse
// document yields the explicit axes.
func (sw Spec) MarshalJSON() ([]byte, error) {
	type plain Spec // shed the method set to avoid recursion
	return json.Marshal(plain(sw.Normalize()))
}

// ParseSpec decodes and validates one JSON sweep document.
func ParseSpec(data []byte) (Spec, error) {
	var sw Spec
	if err := json.Unmarshal(data, &sw); err != nil {
		return Spec{}, fmt.Errorf("sweep: %w: %v", wsnerr.ErrBadSpec, err)
	}
	sw = sw.Normalize()
	if err := sw.Validate(); err != nil {
		return Spec{}, err
	}
	return sw, nil
}

// Cells expands the grid into its execution units in deterministic order:
// scenario-major, then algorithm, option set, seed. The cell index is the
// position in the returned slice; summaries and journals refer to it.
func (sw Spec) Cells() ([]Cell, error) {
	sw = sw.Normalize()
	if err := sw.Validate(); err != nil {
		return nil, err
	}
	cells := make([]Cell, 0, len(sw.Scenarios)*len(sw.Algorithms)*len(sw.AlgOpts)*len(sw.Seeds))
	for _, s := range sw.Scenarios {
		for _, name := range sw.Algorithms {
			for _, o := range sw.AlgOpts {
				for _, seed := range sw.Seeds {
					cells = append(cells, Cell{
						Spec: alg.Spec{
							Version:   alg.SpecVersion,
							Scenario:  s,
							Algorithm: name,
							AlgOpts:   o,
							Seed:      seed,
						},
						Trials: sw.Trials,
					})
				}
			}
		}
	}
	return cells, nil
}
