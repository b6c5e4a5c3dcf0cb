//! The registry's view into the `ft-metrics` observability plane.
//!
//! Instruments are resolved from the shared [`MetricsRegistry`] once,
//! at construction, and kept as `Arc`s — the quote hot path pays one
//! relaxed `fetch_add` on a striped counter, never a name lookup or a
//! lock. Embedders (notably `ft-server`) can pass their own
//! `Arc<MetricsRegistry>` so one `/metrics` export covers both layers.
//!
//! Metric names (see `ARCHITECTURE.md` for the full convention):
//!
//! | name | kind | meaning |
//! |---|---|---|
//! | `ft_core_quotes_total` | counter | price quotes served (`quote`/`reprice`) |
//! | `ft_core_quote_errors_total` | counter | quotes answered with an error |
//! | `ft_core_observes_total` | counter | accepted completion observations |
//! | `ft_core_observe_errors_total` | counter | rejected observations |
//! | `ft_core_solves_total` | counter | successful campaign solves |
//! | `ft_core_solve_errors_total` | counter | failed solves |
//! | `ft_core_recalibrations_total` | counter | drift-triggered re-solves (all kinds) |
//! | `ft_core_recalibrations_by_kind_total{kind=..}` | counter | re-solves split by campaign kind (`deadline` / `budget`) |
//! | `ft_core_generation_swaps_total` | counter | policy-generation pointer swaps |
//! | `ft_core_batched_solves_total` | counter | solves and recalibrations handed the registry's pmf-row cache |
//! | `ft_core_pmf_cache_hits_total` | counter | pmf rows served from the registry's cache without rebuilding |
//! | `ft_core_solve_ns` | histogram | wall time of each solve |

use ft_metrics::{Counter, Histogram, MetricsRegistry};
use std::sync::Arc;

/// Pre-resolved instruments for the campaign registry.
pub struct RegistryTelemetry {
    metrics: Arc<MetricsRegistry>,
    pub quotes: Arc<Counter>,
    pub quote_errors: Arc<Counter>,
    pub observes: Arc<Counter>,
    pub observe_errors: Arc<Counter>,
    pub solves: Arc<Counter>,
    pub solve_errors: Arc<Counter>,
    pub recalibrations: Arc<Counter>,
    /// Kind-split recalibration counters — budget recalibrations (the
    /// drift-aware budget extension) are visible separately from the
    /// deadline ones they historically shadowed.
    pub recalibrations_deadline: Arc<Counter>,
    pub recalibrations_budget: Arc<Counter>,
    pub generation_swaps: Arc<Counter>,
    /// Solves and recalibrations, deadline and budget alike, handed the
    /// registry's pmf-row cache. Kept only because ftbench's per-layer
    /// list reads it; ROADMAP 2(a) drops it.
    pub batched_solves: Arc<Counter>,
    /// Pmf rows served from the registry's cache instead of rebuilt.
    pub pmf_cache_hits: Arc<Counter>,
    pub solve_ns: Arc<Histogram>,
}

impl RegistryTelemetry {
    /// Resolve (registering on first use) every instrument in `metrics`.
    pub fn new(metrics: Arc<MetricsRegistry>) -> Self {
        Self {
            quotes: metrics.counter("ft_core_quotes_total"),
            quote_errors: metrics.counter("ft_core_quote_errors_total"),
            observes: metrics.counter("ft_core_observes_total"),
            observe_errors: metrics.counter("ft_core_observe_errors_total"),
            solves: metrics.counter("ft_core_solves_total"),
            solve_errors: metrics.counter("ft_core_solve_errors_total"),
            recalibrations: metrics.counter("ft_core_recalibrations_total"),
            recalibrations_deadline: metrics
                .counter("ft_core_recalibrations_by_kind_total{kind=\"deadline\"}"),
            recalibrations_budget: metrics
                .counter("ft_core_recalibrations_by_kind_total{kind=\"budget\"}"),
            generation_swaps: metrics.counter("ft_core_generation_swaps_total"),
            batched_solves: metrics.counter("ft_core_batched_solves_total"),
            pmf_cache_hits: metrics.counter("ft_core_pmf_cache_hits_total"),
            solve_ns: metrics.histogram("ft_core_solve_ns"),
            metrics,
        }
    }

    /// The shared plane these instruments live in (what `/metrics`
    /// exports).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }
}

impl Default for RegistryTelemetry {
    fn default() -> Self {
        Self::new(Arc::new(MetricsRegistry::new()))
    }
}
