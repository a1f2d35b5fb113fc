package report

import (
	"context"
	"strings"
	"testing"

	"lppart/internal/behav"
	"lppart/internal/system"
)

func evalMini(t *testing.T) *system.Evaluation {
	t.Helper()
	src := behav.MustParse("mini", `
var a[128]; var out[128]; var total;
func main() {
	var i; var v;
	for i = 0; i < 128; i = i + 1 { a[i] = (i * 37) & 255; }
	for i = 0; i < 128; i = i + 1 {
		v = a[i];
		out[i] = (v * v + (v << 3) - (v >> 1)) & 65535;
	}
	for i = 0; i < 128; i = i + 1 { total = total + out[i]; }
}
`)
	ev, err := system.EvaluateCtx(context.Background(), src, system.Config{MemWords: 1 << 16, StackWords: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func TestTable1Rendering(t *testing.T) {
	ev := evalMini(t)
	out := Table1([]*system.Evaluation{ev})
	for _, want := range []string{"i-cache", "d-cache", "uP core", "ASIC core", "Sav%", "Chg%", "mini"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q:\n%s", want, out)
		}
	}
	// Two rows per app: I and P (or a no-partition note).
	if !strings.Contains(out, " I ") {
		t.Error("missing initial row")
	}
	if !strings.Contains(out, " P ") && !strings.Contains(out, "no beneficial") {
		t.Error("missing partitioned row")
	}
}

func TestFig6Rendering(t *testing.T) {
	ev := evalMini(t)
	out := Fig6([]*system.Evaluation{ev})
	if !strings.Contains(out, "energy") || !strings.Contains(out, "time") {
		t.Errorf("Fig6 output malformed:\n%s", out)
	}
	if !strings.Contains(out, "#") {
		t.Error("Fig6 should draw bars for nonzero percentages")
	}
}

func TestHardwareRendering(t *testing.T) {
	ev := evalMini(t)
	out := Hardware([]*system.Evaluation{ev})
	for _, want := range []string{"datapath", "control", "registers", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("Hardware output missing %q:\n%s", want, out)
		}
	}
}

func TestSummaryRendering(t *testing.T) {
	ev := evalMini(t)
	out := Summary([]*system.Evaluation{ev})
	if !strings.Contains(out, "savings") || !strings.Contains(out, "max hardware") {
		t.Errorf("Summary malformed:\n%s", out)
	}
}

func TestNoPartitionRendering(t *testing.T) {
	// A program with nothing worth moving still renders cleanly.
	src := behav.MustParse("tiny", `
var g;
func main() {
	g = 1;
}
`)
	ev, err := system.EvaluateCtx(context.Background(), src, system.Config{MemWords: 1 << 16, StackWords: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Partitioned != nil {
		t.Skip("unexpectedly partitioned a trivial program")
	}
	out := Table1([]*system.Evaluation{ev})
	if !strings.Contains(out, "no beneficial partition") {
		t.Errorf("missing no-partition note:\n%s", out)
	}
	if Fig6([]*system.Evaluation{ev}) == "" || Hardware([]*system.Evaluation{ev}) == "" {
		t.Error("renderers must handle unpartitioned evaluations")
	}
}
