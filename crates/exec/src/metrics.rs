//! The executor's counters on an embedder's `ft-metrics` registry.
//!
//! `ft-exec` sits below the serving stack and owns no registry; the
//! embedder (normally `ft-server` at startup) calls
//! [`register_metrics`] once to put the executor's counters on its
//! [`MetricsRegistry`].

use ft_metrics::MetricsRegistry;

/// Create (or look up) the executor's counters on `registry`:
/// `ft_exec_steals_total` and `ft_exec_deque_overflow_total`.
///
/// Both always read 0: the pool has one injector queue and no worker
/// deques, so nothing is stolen and nothing overflows. They stay
/// registered only because ftbench's per-layer list reads them
/// (`exec.steals`, `exec.deque_overflows`), and a traced run fails on a
/// missing counter; ROADMAP 2(a) drops both.
pub fn register_metrics(registry: &MetricsRegistry) {
    registry.counter("ft_exec_steals_total");
    registry.counter("ft_exec_deque_overflow_total");
}
