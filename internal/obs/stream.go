package obs

// StreamMetrics bundles the instruments of the streaming equilibrium engine
// (internal/stream): delta counters by kind, apply/resolve latencies, the
// per-delta repair blast radius and the engine's sequence high-water mark.
// A nil *StreamMetrics disables the telemetry entirely. See
// docs/STREAMING.md and docs/OBSERVABILITY.md.
type StreamMetrics struct {
	reg *Registry

	// DeltaTaskArrived..DeltaRewardChanged count applied deltas by kind
	// (fta_stream_deltas_total). Rejected deltas are not counted here.
	DeltaTaskArrived, DeltaTaskExpired    *Counter
	DeltaWorkerOnline, DeltaWorkerOffline *Counter
	DeltaRewardChanged                    *Counter
	// Rejected counts deltas refused before commit: stale or duplicate
	// sequence numbers, unknown entities, validation failures and armed
	// stream.apply failpoints (fta_stream_rejected_total).
	Rejected *Counter
	// ApplySeconds observes the wall-clock latency of whole Apply calls,
	// and ResolveSeconds the equilibrium re-solve portion alone.
	ApplySeconds, ResolveSeconds *Histogram
	// WorkersTouched observes how many workers each applied batch forced
	// the engine to rebuild strategy spaces for — the repair blast radius.
	WorkersTouched *Histogram
	// ResolveNoop..ResolveCold count applied batches by how the engine
	// re-established equilibrium (fta_stream_resolves_total): noop
	// (nothing the game reads changed), warm (repaired strategy spaces),
	// regen (candidate DP re-run, full or incremental) or cold
	// (failpoint/error fallback through the platform ladder).
	ResolveNoop, ResolveWarm, ResolveRegen, ResolveCold *Counter
	// Seq tracks the engine's last applied sequence number
	// (fta_stream_seq).
	Seq *Gauge
}

// NewStreamMetrics registers the fta_stream_* families on the registry and
// returns the bundle. Safe to call more than once on the same registry via
// its first-registration semantics; fta serve calls it at startup so the
// families are visible before the first delta arrives.
func NewStreamMetrics(reg *Registry) *StreamMetrics {
	deltas := func(kind string) *Counter {
		return reg.Counter("fta_stream_deltas_total",
			"Applied stream deltas by kind.", L("kind", kind))
	}
	resolves := func(kind string) *Counter {
		return reg.Counter("fta_stream_resolves_total",
			"Applied stream batches by resolve path.", L("kind", kind))
	}
	return &StreamMetrics{
		reg:                reg,
		DeltaTaskArrived:   deltas("task_arrived"),
		DeltaTaskExpired:   deltas("task_expired"),
		DeltaWorkerOnline:  deltas("worker_online"),
		DeltaWorkerOffline: deltas("worker_offline"),
		DeltaRewardChanged: deltas("reward_changed"),
		Rejected: reg.Counter("fta_stream_rejected_total",
			"Stream deltas rejected before commit."),
		ApplySeconds: reg.Histogram("fta_stream_apply_seconds",
			"Latency of stream Apply calls.", DefBuckets),
		ResolveSeconds: reg.Histogram("fta_stream_resolve_seconds",
			"Latency of the equilibrium re-solve within Apply.", DefBuckets),
		WorkersTouched: reg.Histogram("fta_stream_workers_touched",
			"Workers whose strategy spaces were rebuilt per applied batch.",
			CountBuckets),
		ResolveNoop:  resolves("noop"),
		ResolveWarm:  resolves("warm"),
		ResolveRegen: resolves("regen"),
		ResolveCold:  resolves("cold"),
		Seq: reg.Gauge("fta_stream_seq",
			"Last applied stream sequence number."),
	}
}

// Registry returns the registry the metrics write into.
func (m *StreamMetrics) Registry() *Registry { return m.reg }

// DeltaCounter returns the applied-delta counter for the kind string, or
// nil for an unknown kind. Nil receivers return nil.
func (m *StreamMetrics) DeltaCounter(kind string) *Counter {
	if m == nil {
		return nil
	}
	switch kind {
	case "task_arrived":
		return m.DeltaTaskArrived
	case "task_expired":
		return m.DeltaTaskExpired
	case "worker_online":
		return m.DeltaWorkerOnline
	case "worker_offline":
		return m.DeltaWorkerOffline
	case "reward_changed":
		return m.DeltaRewardChanged
	}
	return nil
}

// ResolveCounter returns the resolve-path counter for the kind string
// ("noop", "warm", "regen", "cold"), or nil for an unknown kind. Nil
// receivers return nil.
func (m *StreamMetrics) ResolveCounter(kind string) *Counter {
	if m == nil {
		return nil
	}
	switch kind {
	case "noop":
		return m.ResolveNoop
	case "warm":
		return m.ResolveWarm
	case "regen":
		return m.ResolveRegen
	case "cold":
		return m.ResolveCold
	}
	return nil
}

// OnlineMetrics bundles the instruments of the online matcher baseline
// (internal/online): per-policy offer outcomes. A nil *OnlineMetrics
// disables the telemetry entirely.
type OnlineMetrics struct {
	reg *Registry

	// AssignedGreedy and AssignedFairFirst count accepted offers by policy
	// (fta_online_assigned_total); RejectedGreedy and RejectedFairFirst
	// count offers no worker could serve (fta_online_rejected_total).
	AssignedGreedy, AssignedFairFirst *Counter
	RejectedGreedy, RejectedFairFirst *Counter
}

// NewOnlineMetrics registers the fta_online_* families for both matcher
// policies on the registry and returns the bundle. Safe to call more than
// once on the same registry.
func NewOnlineMetrics(reg *Registry) *OnlineMetrics {
	return &OnlineMetrics{
		reg: reg,
		AssignedGreedy: reg.Counter("fta_online_assigned_total",
			"Online matcher offers accepted, by policy.", L("policy", "greedy")),
		AssignedFairFirst: reg.Counter("fta_online_assigned_total",
			"Online matcher offers accepted, by policy.", L("policy", "fair-first")),
		RejectedGreedy: reg.Counter("fta_online_rejected_total",
			"Online matcher offers no worker could serve, by policy.", L("policy", "greedy")),
		RejectedFairFirst: reg.Counter("fta_online_rejected_total",
			"Online matcher offers no worker could serve, by policy.", L("policy", "fair-first")),
	}
}

// Registry returns the registry the metrics write into.
func (m *OnlineMetrics) Registry() *Registry { return m.reg }

// ForPolicy returns the (assigned, rejected) counter pair for the policy
// string ("greedy" or "fair-first"), or nils for an unknown policy. Nil
// receivers return nils.
func (m *OnlineMetrics) ForPolicy(policy string) (assigned, rejected *Counter) {
	if m == nil {
		return nil, nil
	}
	switch policy {
	case "greedy":
		return m.AssignedGreedy, m.RejectedGreedy
	case "fair-first":
		return m.AssignedFairFirst, m.RejectedFairFirst
	}
	return nil, nil
}
