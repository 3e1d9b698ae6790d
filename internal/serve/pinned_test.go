package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"wsnloc/internal/alg"
)

// pinnedSolves pins the SHA-256 of EncodeSolveResponse bytes for solves
// beyond the sweep golden's default scenarios: the canonical network under
// several seeds, the irregular propagation models, loss and jitter, refine
// on a non-convex field, the scale knobs at N=1000 and N=2000, the forced FFT
// path, a coarse grid, and support-pruned runs on several shapes.
// Performance work on the BP engine must leave every one of
// these answers byte-identical; a deliberate change to the algorithm's
// arithmetic regenerates the table (the failure message prints each new
// digest). Shadowing is left out: its negative-evidence curve is not part of
// the byte-identity contract.
var pinnedSolves = []struct {
	name string
	spec alg.Spec
	sha  string
}{
	{"canonical-1", canonical(1),
		"d48bec2fee1f3047c6189941cc4a59f104441529bbe572f9a86f2e552082f80a"},
	{"canonical-2", canonical(2),
		"d01d37b254cc717f81f2aaac35c425b3e5128356c0f4ab24094293c9c5d5051e"},
	{"canonical-3", canonical(3),
		"d5d658fb5f731a8ba28f92634267ddebad74a4e155997eb1416fa38082ff55bc"},
	{"canonical-4", canonical(4),
		"abe69cce2f1a93a38f1779e139f437b0e4c3515b4fd74ff6b33f7d10e48e36e6"},
	{"canonical-5", canonical(5),
		"52f62f9f18b31886a9b4a285211aa0298e290d559fdaef3b0a65c4596a7c39f2"},
	{"canonical-6", canonical(6),
		"15edd68e0366d2cad7baca197b0e36381f6ab80ae3ff70ea8925f82d633091d1"},
	{"canonical-7", canonical(7),
		"5184fc0b2c47c9c9b8388558911827486e4401e7e6c393fde2bc26d649687972"},
	{"canonical-8", canonical(8),
		"2b8a44767eab27c65250c8e63a1033d76eb050df02e6f24af7702ed7d57a2f10"},
	{"qudg", alg.Spec{Scenario: alg.Scenario{Prop: "qudg", Seed: 11}, Seed: 12},
		"31c6a3e029e7bdb48f52679971f1bff1c5847fd5ccef1a43b6bebc97774f5a6b"},
	{"doi", alg.Spec{Scenario: alg.Scenario{Prop: "doi", DOI: 0.01, Seed: 13}, Seed: 14},
		"22a214821cb87812f4dde52a1730b3fb58f631d3e723e1e0a24bad6afec19280"},
	{"loss-jitter", alg.Spec{Scenario: alg.Scenario{Loss: 0.1, Jitter: 0.1, Seed: 15}, Seed: 16},
		"0b56555f3b3a04aa0facea4b1eb41121ade8835951383bace74393d20ebc69b4"},
	{"refine-cshape", alg.Spec{Scenario: alg.Scenario{Shape: "c", Seed: 17}, AlgOpts: alg.Opts{Refine: true}, Seed: 18},
		"072b1a795dd03af191b2a61a570bcc08cda7903d6e656991d5c8f6883e0b2dc0"},
	{"censor-prune-1000", alg.Spec{Scenario: alg.Scenario{N: 1000, Field: 258, Seed: 19}, AlgOpts: alg.Opts{Censor: 0.5, Prune: 0.05}, Seed: 20},
		"4e1419a1d0be629f72082590f75b6cd0ab380716f62eb9f25673f8e6a0cdcf06"},
	{"conv-fft", alg.Spec{Scenario: alg.Scenario{Seed: 21}, AlgOpts: alg.Opts{Conv: "fft"}, Seed: 22},
		"fcf60bd70d11cbc6b790471b05215c19c3f6e50b31981e292ea865cabacca171"},
	{"grid-8", alg.Spec{Scenario: alg.Scenario{Seed: 23}, AlgOpts: alg.Opts{GridN: 8}, Seed: 24},
		"85bdec503261e839e7b506ca2d391c1144e22830eed97968d2bbd2f7200bba79"},
	// Window-local beliefs: pruning zeroes most of a node's prior, so every
	// BP pass runs on the prior's nonzero bounding box. These pin the
	// windows' edge cases: narrow and wide windows, the small serve-mix
	// network with and without pruning, region holes, both convolution
	// paths, refinement, loss, and windows that touch every grid edge.
	{"prune-0.05", alg.Spec{Scenario: alg.Scenario{Seed: 25}, AlgOpts: alg.Opts{Prune: 0.05}, Seed: 26},
		"bce83f39b9e93bd73b17bc82c0bf8c9e26c953c7a66a222e4cb3cc814119895d"},
	{"prune-1e-3", alg.Spec{Scenario: alg.Scenario{Seed: 27}, AlgOpts: alg.Opts{Prune: 1e-3}, Seed: 28},
		"fcf5af7d8bc21a97eae84b8af68dfebef4d3854b8c0c21c6d522bdc73fd2c081"},
	{"mix-small", alg.Spec{Scenario: alg.Scenario{N: 40, Field: 52, Seed: 29}, AlgOpts: alg.Opts{GridN: 8}, Seed: 30},
		"9b0d56c9b6adc7458b0a532f57395c6eddb39fdb3157768d70e7f5f19b5fd619"},
	{"mix-small-prune", alg.Spec{Scenario: alg.Scenario{N: 40, Field: 52, Seed: 31}, AlgOpts: alg.Opts{GridN: 8, Prune: 0.05}, Seed: 32},
		"9b71de3c33fc59407126711ba86d5be1cfa5714d8a2d3810fae325802a3c8bad"},
	{"cshape-prune", alg.Spec{Scenario: alg.Scenario{Shape: "c", Seed: 33}, AlgOpts: alg.Opts{Prune: 0.05}, Seed: 34},
		"7e53ad564e9500fd4631ba8d126afce8abadbc2e0b4cda11c63007e561c00ac7"},
	{"prune-fft", alg.Spec{Scenario: alg.Scenario{N: 60, Field: 63, Seed: 35}, AlgOpts: alg.Opts{GridN: 24, Prune: 0.05, Conv: "fft"}, Seed: 36},
		"4571ab148153bf0f4d6308bb7a3746d1f0288ea45bc4b2eed5bf5407c017cd21"},
	{"prune-refine", alg.Spec{Scenario: alg.Scenario{Seed: 37}, AlgOpts: alg.Opts{Prune: 0.05, Refine: true}, Seed: 38},
		"67e5272a06f5633b823d9d7c189765dbb6d719add16cdb32737818acbaba0dd9"},
	{"prune-loss-jitter", alg.Spec{Scenario: alg.Scenario{Loss: 0.1, Jitter: 0.1, Seed: 39}, AlgOpts: alg.Opts{Prune: 0.05}, Seed: 40},
		"bceea55c1572bd51d1a464d5f4c1552065b318d366bf5611854cd9f114113d05"},
	{"censor-prune-2000", alg.Spec{Scenario: alg.Scenario{N: 2000, Field: 365, Seed: 41}, AlgOpts: alg.Opts{Censor: 0.5, Prune: 0.05}, Seed: 42},
		"e3648009963b38141ae408671acdb3374af7ec2a57f010e66db89236eea66f82"},
}

// canonical is the paper's 150-node default network under bncl-grid.
func canonical(seed uint64) alg.Spec {
	return alg.Spec{Algorithm: "bncl-grid", Scenario: alg.Scenario{Seed: seed}, Seed: seed + 100}
}

func TestPinnedSolveResponses(t *testing.T) {
	for _, tc := range pinnedSolves {
		t.Run(tc.name, func(t *testing.T) {
			sp := tc.spec.Normalize()
			hash, err := sp.Hash()
			if err != nil {
				t.Fatal(err)
			}
			p, res, err := sp.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			body, err := EncodeSolveResponse(hash, sp, p, res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(body)
			if got := hex.EncodeToString(sum[:]); got != tc.sha {
				t.Errorf("response SHA-256 = %s, want %s", got, tc.sha)
			}
		})
	}
}
