package obs

import (
	"strings"
	"testing"
)

func TestAuditMetrics(t *testing.T) {
	reg := NewRegistry()
	am := NewAuditMetrics(reg)
	am.Runs.Inc()
	am.Runs.Inc()
	am.Failures.Inc()

	// Re-constructing on the same registry must share instruments, not reset
	// or duplicate them.
	again := NewAuditMetrics(reg)
	again.Runs.Inc()

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "fta_audit_runs_total 3") {
		t.Errorf("exposition missing runs counter:\n%s", out)
	}
	if !strings.Contains(out, "fta_audit_failures_total 1") {
		t.Errorf("exposition missing failures counter:\n%s", out)
	}
}
