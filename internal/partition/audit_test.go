package partition

import (
	"context"
	"strings"
	"testing"
)

// decideVerified runs a full verified partition: Config.Verify exercises
// cdfg.Verify, dataflow.VerifyGenUse, sched.VerifyIR, asic.VerifyBinding
// and AuditDecision on a real pipeline run.
func decideVerified(t *testing.T) (*Decision, *Baseline) {
	t.Helper()
	ir, prof, base := setup(t, hotLoopSrc)
	dec, err := PartitionCtx(context.Background(), ir, prof, base, Config{Verify: true})
	if err != nil {
		t.Fatalf("verified partition failed: %v", err)
	}
	if dec.Chosen == nil {
		t.Fatalf("no partition chosen:\n%s", dec.Trail())
	}
	return dec, base
}

func wantAuditError(t *testing.T, dec *Decision, base *Baseline, substr string) {
	t.Helper()
	err := AuditDecision(dec, base, Config{})
	if err == nil {
		t.Fatalf("AuditDecision accepted bad decision, want error containing %q", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Errorf("audit error %q does not mention %q", err, substr)
	}
}

// firstEligible returns some eligible first-round evaluation.
func firstEligible(t *testing.T, dec *Decision) *SetEval {
	t.Helper()
	for _, c := range dec.Candidates {
		for _, ev := range c.Evals {
			if ev.Eligible {
				return ev
			}
		}
	}
	t.Fatal("no eligible evaluation in the trail")
	return nil
}

func TestVerifiedPartitionMatchesUnverified(t *testing.T) {
	ir, prof, base := setup(t, hotLoopSrc)
	plain, err := PartitionCtx(context.Background(), ir, prof, base, Config{})
	if err != nil {
		t.Fatal(err)
	}
	checked, err := PartitionCtx(context.Background(), ir, prof, base, Config{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	// Verification is read-only: the decision trail must be byte-identical.
	if plain.Trail() != checked.Trail() {
		t.Errorf("Verify changed the decision:\n--- plain ---\n%s\n--- verified ---\n%s",
			plain.Trail(), checked.Trail())
	}
}

func TestAuditAcceptsRealDecision(t *testing.T) {
	dec, base := decideVerified(t)
	if err := AuditDecision(dec, base, Config{}); err != nil {
		t.Errorf("audit rejects a genuine decision: %v", err)
	}
}

func TestAuditNilInputs(t *testing.T) {
	dec, base := decideVerified(t)
	if AuditDecision(nil, base, Config{}) == nil {
		t.Error("nil decision must fail")
	}
	if AuditDecision(dec, nil, Config{}) == nil {
		t.Error("nil baseline must fail")
	}
	if AuditDecision(dec, &Baseline{}, Config{}) == nil {
		t.Error("unmeasured baseline must fail")
	}
}

func TestAuditDetectsTamperedObjective(t *testing.T) {
	dec, base := decideVerified(t)
	ev := firstEligible(t, dec)
	ev.OF += 0.125 // no longer reproducible from its terms
	wantAuditError(t, dec, base, "does not reproduce")
}

func TestAuditDetectsDroppedEnergyTerm(t *testing.T) {
	dec, base := decideVerified(t)
	ev := firstEligible(t, dec)
	ev.EASIC = 0 // E_R silently dropped from the numerator
	wantAuditError(t, dec, base, "does not reproduce")
}

func TestAuditDetectsBadUtilization(t *testing.T) {
	dec, base := decideVerified(t)
	ev := firstEligible(t, dec)
	ev.UASIC = 1.5
	wantAuditError(t, dec, base, "outside [0,1]")
}

func TestAuditDetectsInconsistentGEQ(t *testing.T) {
	dec, base := decideVerified(t)
	ev := firstEligible(t, dec)
	ev.GEQ += 100 // disagrees with the binding's total
	wantAuditError(t, dec, base, "disagrees")
}

func TestAuditDetectsLosingChoice(t *testing.T) {
	dec, base := decideVerified(t)
	// Pretend the chosen implementation did not actually beat the
	// baseline. Keep the terms self-consistent by moving the baseline
	// bar rather than the recorded OF.
	dec.BaselineOF = dec.Chosen.Eval.OF / 2
	wantAuditError(t, dec, base, "not below baseline")
}

func TestAuditDetectsIneligibleChoice(t *testing.T) {
	dec, base := decideVerified(t)
	dec.Chosen.Eval.Eligible = false
	wantAuditError(t, dec, base, "ineligible")
}
