package dist

// Fairness policies for the multi-tenant scheduler. When several
// dispatches are live at once, every idle connection asks the fleet's
// policy which tenant to claim from next. A policy is PURE SCHEDULING:
// it chooses claim order, never results — any policy, including an
// adversarial one, produces per-tenant bytes identical to a serial
// run, because every task still settles exactly once into its own
// dispatch's delivery slots (the §6–§8 determinism argument, extended
// across tenants). That freedom is exactly what lets the policy be
// pluggable.

// DispatchView is the read-only summary of one live dispatch a
// Fairness policy picks among. Views are passed in fleet admission
// order (oldest first), and only dispatches this connection is
// eligible to serve appear (queued work remains and the per-connection
// clamp is not filled).
type DispatchView struct {
	ID      uint32 // dispatch id (joins the wire sequence space)
	Arrival uint64 // fleet-wide admission order; lower is older
	Queued  int    // tasks waiting in this dispatch's ready queue
	Total   int    // tasks the dispatch was admitted with
}

// Fairness picks which eligible dispatch an idle connection claims
// from. Pick receives at least one view and returns the index of the
// chosen one; out-of-range returns are clamped to 0. Pick is called
// under the scheduler lock — it must not block, and it must not
// retain the slice, which is reused between calls.
type Fairness interface {
	Pick(views []DispatchView) int
}

// FIFO serves dispatches strictly in admission order: the oldest live
// dispatch with eligible work wins. This is the default policy (a nil
// Config.Fairness means FIFO, served by a zero-allocation fast path),
// matching the pre-multi-tenant behavior as closely as concurrency
// allows: earlier callers drain first, later callers fill otherwise
// idle window slots.
type FIFO struct{}

// Pick returns 0: views arrive in admission order.
func (FIFO) Pick(views []DispatchView) int { return 0 }
