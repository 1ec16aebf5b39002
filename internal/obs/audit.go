package obs

// AuditMetrics bundles the instruments of the assignment auditor
// (internal/audit): how many audits ran and how many found at least one
// violated invariant. Both are registered at construction so the first
// /metrics scrape already lists them with zero values.
type AuditMetrics struct {
	// Runs counts executed assignment audits (one per audited center).
	Runs *Counter
	// Failures counts audits that found at least one violation.
	Failures *Counter
}

// NewAuditMetrics registers the fta_audit_* families on the registry and
// returns the bundle. Safe to call more than once on the same registry: the
// instruments are shared via the registry's first-registration semantics.
func NewAuditMetrics(reg *Registry) *AuditMetrics {
	return &AuditMetrics{
		Runs: reg.Counter("fta_audit_runs_total",
			"Assignment audits executed."),
		Failures: reg.Counter("fta_audit_failures_total",
			"Assignment audits that found at least one violated invariant."),
	}
}
