package system

import (
	"context"
	"testing"

	"lppart/internal/apps"
	"lppart/internal/behav"
)

// twoHotLoops has two independent multiply-heavy clusters separated by a
// software stage; with MaxCores=2 both should move to hardware.
const twoHotLoops = `
var a[128]; var b2[128]; var c[128]; var total;
func main() {
	var i; var v;
	for i = 0; i < 128; i = i + 1 { a[i] = (i * 37) & 255; }
	for i = 0; i < 128; i = i + 1 {
		v = a[i];
		b2[i] = (v * v + (v << 3)) & 65535;
	}
	for i = 0; i < 128; i = i + 1 { b2[i] = b2[i] ^ (i & 7); }
	for i = 0; i < 128; i = i + 1 {
		v = b2[i];
		c[i] = (v * 3 + v * v - (v >> 2)) & 65535;
	}
	for i = 0; i < 128; i = i + 1 { total = total + c[i]; }
}
`

func evalCores(t *testing.T, maxCores int) *Evaluation {
	t.Helper()
	src := behav.MustParse("twohot", twoHotLoops)
	cfg := Config{MemWords: 1 << 16, StackWords: 1 << 12}
	cfg.Part.MaxCores = maxCores
	ev, err := EvaluateCtx(context.Background(), src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func TestMultiCoreSelectsTwoClusters(t *testing.T) {
	ev := evalCores(t, 2)
	if len(ev.Decision.Choices) != 2 {
		t.Fatalf("chose %d cores, want 2:\n%s", len(ev.Decision.Choices), ev.Decision.Trail())
	}
	if ev.Decision.Choices[0].Region == ev.Decision.Choices[1].Region {
		t.Fatal("both cores map the same cluster")
	}
	if ev.Partitioned == nil {
		t.Fatal("no partitioned design")
	}
	// The co-simulation with two ASIC cores must still be functionally
	// identical to software — EvaluateCtx verifies that internally, so
	// reaching here is the assertion.
}

func TestMultiCoreBeatsSingleCore(t *testing.T) {
	one := evalCores(t, 1)
	two := evalCores(t, 2)
	if one.Partitioned == nil || two.Partitioned == nil {
		t.Fatal("both configurations must partition")
	}
	if two.Savings() >= one.Savings() {
		t.Errorf("two cores (%.2f%%) must save more than one (%.2f%%)",
			two.Savings(), one.Savings())
	}
	// Hardware cost is the sum of both cores.
	if two.Partitioned.GEQ <= one.Partitioned.GEQ {
		t.Errorf("two cores (%d cells) must cost more hardware than one (%d)",
			two.Partitioned.GEQ, one.Partitioned.GEQ)
	}
}

func TestMultiCoreNoOverlap(t *testing.T) {
	ev := evalCores(t, 4)
	// Chosen clusters must not share blocks (e.g. a loop and its nest).
	for i, a := range ev.Decision.Choices {
		for j, b := range ev.Decision.Choices {
			if i >= j || a.Region.Func != b.Region.Func {
				continue
			}
			blocks := make(map[int]bool)
			for _, bid := range a.Region.Blocks {
				blocks[bid] = true
			}
			for _, bid := range b.Region.Blocks {
				if blocks[bid] {
					t.Fatalf("cores %d and %d share block %d", i, j, bid)
				}
			}
		}
	}
}

func TestMultiCoreOnPaperApp(t *testing.T) {
	// MPG with two cores: motion estimation plus a second kernel.
	a, err := apps.ByName("MPG")
	if err != nil {
		t.Fatal(err)
	}
	src, err := a.Parse()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{}
	cfg.Part.MaxCores = 3
	ev, err := EvaluateCtx(context.Background(), src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Decision.Choices) < 1 {
		t.Fatal("MPG must still partition")
	}
	// Functional verification ran inside EvaluateCtx; the multi-core design
	// must not be worse than the single-core one.
	single, err := EvaluateCtx(context.Background(), mustParse(t, a), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Savings() > single.Savings()+1e-9 {
		t.Errorf("3-core MPG savings %.2f%% worse than single-core %.2f%%",
			ev.Savings(), single.Savings())
	}
}

func mustParse(t *testing.T, a apps.App) *behav.Program {
	t.Helper()
	src, err := a.Parse()
	if err != nil {
		t.Fatal(err)
	}
	return src
}
