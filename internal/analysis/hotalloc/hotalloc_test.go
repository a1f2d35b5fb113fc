package hotalloc_test

import (
	"testing"

	"lppart/internal/analysis/analysistest"
	"lppart/internal/analysis/hotalloc"
)

// TestFlagsHotClosureAllocations proves every construct class fires
// inside the closure (root body, transitive callee, bound closure) and
// the identical constructs in a cold function do not.
func TestFlagsHotClosureAllocations(t *testing.T) {
	diags := analysistest.Run(t, hotalloc.Analyzer, "bad")
	if len(diags) != 13 {
		t.Errorf("want 13 findings in fixture bad, got %d", len(diags))
	}
}

// TestAcceptsCleanAndExempt proves allocation-free hot code, trailing
// //lint:alloc acknowledgements, and decl-level cold-fill exemption
// (which must also stop closure traversal into callees) all pass.
func TestAcceptsCleanAndExempt(t *testing.T) {
	analysistest.MustBeClean(t, hotalloc.Analyzer, "good")
}

// TestMultiLineSuppression is the regression test for acknowledgements
// above multi-line statements: sites on continuation lines must be
// covered by a marker on (or above) the statement's first line.
func TestMultiLineSuppression(t *testing.T) {
	analysistest.MustBeClean(t, hotalloc.Analyzer, "multiline")
}
