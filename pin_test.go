package lppart

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"lppart/internal/apps"
	"lppart/internal/dse"
	"lppart/internal/milp"
)

// TestSearchOutputsPinned pins the bytes of both search tiers for the
// six applications at default settings: the rendered Pareto frontier
// (points plus the deterministic search counters, as `lppart -frontier`
// and /v1/explore serve them) and the certified exact optima in their
// wire form (certificate and instance stripped, as /v1/exact serves
// them). Any edit to the branch-and-bound or the exact solver that
// moves a point, a float, a tie-break or a work counter fails here.
func TestSearchOutputsPinned(t *testing.T) {
	want := map[string][2]string{ // app → {frontier, exact}
		"3d": {
			"12ce251909e1a29831dc032cab86ded9f002ce7d44a017a284736ab6e9c31041",
			"8139f830f43d26293b93514b83cd68204915143c808e60a4a1f3729c1032f8f6"},
		"MPG": {
			"10d79e1873235c5889d5ef455b1efc8c9b1352e91a112e0a3542c4a3d2231bfb",
			"88a2943de85dc354b70681fb02c47d11b281b84c28b59feff4e6418eded7a8e1"},
		"ckey": {
			"78bc54a7e8fdac33b32043b9d4a2ac6cd2d8d46d1abbfe48e8b6844d5407ea29",
			"d5d58ff090661bf17ca07f57f84958208d538dc903e3093f7ca77179d86ffad2"},
		"digs": {
			"a22ad8f6b015c376b5aee0cc7b458cc219d5710e8d23cda5f8f54c2738e0bcd8",
			"d3814776bed1d42132221b49962da53092d0485ae724ec4ead8b105cd34a3b78"},
		"engine": {
			"84814e0110c566b6f9c538d17d5c4415f59de0f6ff17c5ae7652c70684ecfe9d",
			"008da3944a3d20b0b222e89153ac41adc2c8c9259085cefd15fed60713a5e268"},
		"trick": {
			"4556352146b7df9ebee44da105c684d1ed1d2d93ee7488872c474cf347b93611",
			"3645e148f3e03b152d97c790ba76474216b6a0f678663369f41a4791b47b7f80"},
	}
	digest := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	for _, a := range apps.All() {
		t.Run(a.Name, func(t *testing.T) {
			t.Parallel()
			ir, err := a.Build()
			if err != nil {
				t.Fatal(err)
			}
			cfg := dse.Config{Workers: 2}
			p, err := dse.Prepare(context.Background(), ir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			f, err := dse.ExplorePrep(context.Background(), p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := milp.Solve(context.Background(), p, milp.Config{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			optima := make([]milp.Optimum, 0, len(res.Optima))
			for _, o := range res.Optima {
				wire := *o
				wire.Cert, wire.Inst = nil, nil
				optima = append(optima, wire)
			}
			got := [2]string{digest(f), digest(optima)}
			if got != want[a.Name] {
				t.Errorf("digests {frontier, exact} = %q, want %q", got, want[a.Name])
			}
		})
	}
}
