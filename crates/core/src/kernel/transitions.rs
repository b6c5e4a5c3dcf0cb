//! The shared Bellman backup of the deadline MDP and its Poisson
//! transition machinery (moved here from `dp::backup` so every solver —
//! and the service layer — reuses one implementation).
//!
//! At state `(n, t)` with action reward `c` and acceptance `p`, completions
//! in the interval follow `X ~ Pois(λ_t · p)` (Eq. 5):
//!
//! `Q(n, t, c) = Σ_{s<n} Pr[X=s]·(s·c + Opt(n−s, t+1))
//!             + Pr[X≥n]·(n·c + Opt(0, t+1))`
//!
//! With truncation at `s₀` (Section 3.2), individual terms with `s > s₀`
//! are dropped, and the collapsed `X ≥ n` tail is dropped when `n > s₀`.

use crate::actions::PriceAction;
use crate::problem::DeadlineProblem;
use ft_stats::Poisson;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Per-`(interval, action)` truncation points `s₀` for a given ε
/// (`usize::MAX` rows mean "no truncation").
///
/// This is the kernel's transition cache: the truncation points (and the
/// Poisson means they were derived from) are computed once per problem
/// and shared read-only across every worker thread of the sweep.
#[derive(Debug, Clone)]
pub struct TruncationTable {
    /// `s0[t * n_actions + a]`.
    s0: Vec<usize>,
    n_actions: usize,
}

impl TruncationTable {
    /// No truncation: the simple Algorithm 1 behavior.
    pub fn none(problem: &DeadlineProblem) -> Self {
        Self {
            s0: vec![usize::MAX; problem.n_intervals() * problem.actions.len()],
            n_actions: problem.actions.len(),
        }
    }

    /// Truncation at tail mass `eps` (Table 1 semantics): the per-cell `s₀`
    /// is the smallest `s` with `Pr[Pois(λ_t p_a) ≥ s] ≤ eps`.
    pub fn with_eps(problem: &DeadlineProblem, eps: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1)");
        let _span = ft_trace::span("core.kernel.build_rows");
        let n_actions = problem.actions.len();
        let mut s0 = Vec::with_capacity(problem.n_intervals() * n_actions);
        for &lam in &problem.interval_arrivals {
            for a in problem.actions.iter() {
                let mean = lam * a.accept;
                s0.push(Poisson::new(mean).truncation_point(eps) as usize);
            }
        }
        Self { s0, n_actions }
    }

    #[inline]
    pub fn get(&self, t: usize, action: usize) -> usize {
        self.s0[t * self.n_actions + action]
    }
}

/// One Poisson pmf row for a `(interval, action)` pair, shared by every
/// state of a layer sweep, in a **SIMD-friendly contiguous layout**:
/// one allocation holding three equal segments `[pmf | weighted | head]`
/// where `pmf[s] = Pr[X = s]`, `weighted[s] = s · pmf[s]` (the paid-
/// completions factor, precomputed so the backup's inner loop carries
/// no per-term `usize → f64` convert), and the running head
/// `head[s] = Σ_{u ≤ s} pmf[u]` accumulated left-to-right in exactly
/// the order [`Poisson::pmf_prefix`] accumulates its return value — so
/// a backup read off this row is bitwise identical to one that called
/// `pmf_prefix` on its own short buffer.
///
/// The inner loop over this row is two independent unit-stride products
/// per term (`weighted[s]·c` and `pmf[s]·opt_next[n−s]`) feeding one
/// accumulator add; the accumulation order itself stays serial because
/// the kernel's bitwise-determinism contract forbids reassociating the
/// sum.
#[derive(Debug, Clone)]
pub struct PmfRow {
    /// `[pmf | weighted | head]`, each `len` long.
    buf: Vec<f64>,
    len: usize,
}

impl PmfRow {
    /// Entries per segment (how long a prefix this row can serve).
    #[cfg(test)]
    pub(crate) fn entries(&self) -> usize {
        self.len
    }

    fn build(lam_t: f64, accept: f64, len: usize) -> Self {
        let mut buf = vec![0.0; 3 * len];
        let (pmf, rest) = buf.split_at_mut(len);
        Poisson::new(lam_t * accept).pmf_prefix(pmf);
        let (weighted, head) = rest.split_at_mut(len);
        let mut total = 0.0;
        for (s, &p) in pmf.iter().enumerate() {
            weighted[s] = s as f64 * p;
            total += p;
            head[s] = total;
        }
        Self { buf, len }
    }

    #[inline]
    fn pmf(&self) -> &[f64] {
        &self.buf[..self.len]
    }

    #[inline]
    fn weighted(&self) -> &[f64] {
        &self.buf[self.len..2 * self.len]
    }

    #[inline]
    fn head(&self) -> &[f64] {
        &self.buf[2 * self.len..]
    }
}

/// A cross-solve [`PmfRow`] store: the campaign registry owns one for
/// its lifetime and every solve and recalibration reads through it
/// (see `crate::registry`). A pmf row is a pure
/// function of `(λ_t · dt-folded arrival, acceptance)` — the per-layer
/// mean of the completion Poisson — so concurrent recalibrations
/// across campaigns that price the same arrival regime rebuild
/// byte-identical rows N times. This cache keys rows by the exact
/// **bit patterns** `(λ_t.to_bits(), accept.to_bits())` and serves the
/// longest row built so far: `PmfRow::build` fills its segments
/// left-to-right with a prefix-stable recurrence, so a longer row's
/// `pmf`/`weighted`/`head` prefixes are bitwise identical to any
/// shorter build — a shared row can serve every truncation length up
/// to its own without perturbing a single bit of any solve (the
/// determinism contract `cached_rows_match_q_value_bitwise` pins).
///
/// Hits and lookups are counted so the recalibration-storm bench (and
/// the `ft_core_pmf_cache_hits_total` counter) can report the
/// redundancy actually eliminated. Entry count is bounded at
/// `SHARED_PMF_MAX_ENTRIES` rows; on overflow the map is cleared
/// wholesale — correctness never depends on a row being present.
#[derive(Default)]
pub struct SharedPmfCache {
    rows: Mutex<HashMap<(u64, u64), Arc<PmfRow>>>,
    lookups: AtomicU64,
    hits: AtomicU64,
    /// Optional mirror of `hits` onto the embedder's metrics plane
    /// (`ft_core_pmf_cache_hits_total`, resolved by the registry's
    /// telemetry).
    hit_counter: Option<Arc<ft_metrics::Counter>>,
}

impl std::fmt::Debug for SharedPmfCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedPmfCache")
            .field("lookups", &self.lookups())
            .field("hits", &self.hits())
            .finish_non_exhaustive()
    }
}

/// Overflow bound on distinct `(λ, accept)` rows per shared cache.
const SHARED_PMF_MAX_ENTRIES: usize = 4096;

impl SharedPmfCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache that also bumps `counter` on every hit (the registry
    /// threads `ft_core_pmf_cache_hits_total` through here).
    pub fn with_hit_counter(counter: Arc<ft_metrics::Counter>) -> Self {
        Self {
            hit_counter: Some(counter),
            ..Self::default()
        }
    }

    /// Row lookups served from a previously built row.
    pub fn hits(&self) -> u64 {
        // ORDERING: Relaxed — monotonic statistic, staleness is fine.
        self.hits.load(Ordering::Relaxed)
    }

    /// Total row lookups (hits + builds).
    pub fn lookups(&self) -> u64 {
        // ORDERING: Relaxed — monotonic statistic, staleness is fine.
        self.lookups.load(Ordering::Relaxed)
    }

    /// Hits over lookups, 0.0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        match self.lookups() {
            0 => 0.0,
            lookups => self.hits() as f64 / lookups as f64,
        }
    }

    /// The row for Poisson mean `lam_t · accept` with at least `len`
    /// entries: served shared when one is cached, built (and published
    /// for later solves) otherwise.
    fn get_or_build(&self, lam_t: f64, accept: f64, len: usize) -> Arc<PmfRow> {
        // ORDERING: Relaxed — monotonic statistic.
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let key = (lam_t.to_bits(), accept.to_bits());
        {
            let rows = self.rows.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(row) = rows.get(&key) {
                if row.len >= len {
                    // ORDERING: Relaxed — monotonic statistic.
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    if let Some(c) = &self.hit_counter {
                        c.inc();
                    }
                    return Arc::clone(row);
                }
            }
        }
        // Build outside the lock — a pmf build is the expensive part,
        // and concurrent workers building different keys must not
        // serialize on the map.
        let built = Arc::new(PmfRow::build(lam_t, accept, len));
        let mut rows = self.rows.lock().unwrap_or_else(|e| e.into_inner());
        match rows.get(&key) {
            // A racing worker published an even longer row meanwhile;
            // serve that one and drop ours (not counted as a hit — we
            // paid for the build).
            Some(existing) if existing.len >= len => Arc::clone(existing),
            _ => {
                if rows.len() >= SHARED_PMF_MAX_ENTRIES {
                    rows.clear();
                }
                rows.insert(key, Arc::clone(&built));
                built
            }
        }
    }
}

/// Per-worker cache of [`PmfRow`]s for the layer being swept, indexed by
/// action. Dense deadline sweeps historically recomputed the pmf prefix
/// per `(state, action)`; with the cache each worker computes it once per
/// `(layer, action)` and every state of its chunk reads the shared row —
/// an O(states) → O(1) cut in pmf work per action (ROADMAP open item).
///
/// Rows are `Arc`s so they can come from (and be published to) an
/// optional [`SharedPmfCache`] spanning many solves (the registry's);
/// without one the cache behaves exactly as before, building rows
/// privately.
///
/// The kernel creates scratch fresh for every layer sweep, but the cache
/// still tags rows with the layer that built them and invalidates on
/// mismatch, so a future scratch-reuse change cannot serve stale rows.
#[derive(Debug, Clone)]
pub struct PmfCache {
    layer: usize,
    rows: Vec<Option<Arc<PmfRow>>>,
    shared: Option<Arc<SharedPmfCache>>,
}

impl PmfCache {
    pub fn new(n_actions: usize) -> Self {
        Self {
            layer: usize::MAX,
            rows: vec![None; n_actions],
            shared: None,
        }
    }

    /// A per-worker cache that resolves misses through `shared` (when
    /// given) before building locally.
    pub fn with_shared(n_actions: usize, shared: Option<Arc<SharedPmfCache>>) -> Self {
        Self {
            layer: usize::MAX,
            rows: vec![None; n_actions],
            shared,
        }
    }

    /// The pmf row for `(t, action)`, built on first use with `len`
    /// entries (callers pass the longest prefix any state of the layer
    /// can need, `min(max_state − 1, s0) + 1`).
    fn row(&mut self, t: usize, action: usize, lam_t: f64, accept: f64, len: usize) -> &PmfRow {
        if self.layer != t {
            self.layer = t;
            self.rows.iter_mut().for_each(|r| *r = None);
        }
        let slot = &mut self.rows[action];
        if slot.as_ref().is_none_or(|r| r.len < len) {
            *slot = Some(match &self.shared {
                Some(shared) => shared.get_or_build(lam_t, accept, len),
                None => Arc::new(PmfRow::build(lam_t, accept, len)),
            });
        }
        slot.as_ref().unwrap()
    }
}

/// [`q_value`] read off a shared [`PmfRow`] instead of a freshly filled
/// buffer. Same operation sequence per term, so results are bitwise
/// identical (asserted by `cached_rows_match_q_value_bitwise`).
fn q_value_from_row(c: f64, n: usize, opt_next: &[f64], s0: usize, row: &PmfRow) -> f64 {
    debug_assert!(n >= 1, "backup needs at least one remaining task");
    debug_assert!(opt_next.len() > n, "opt row too short");
    let k = (n - 1).min(s0);
    debug_assert!(row.len > k, "pmf row too short");
    let pmf = &row.pmf()[..=k];
    let weighted = &row.weighted()[..=k];
    let mut q = 0.0;
    // Two unit-stride product streams (the reward stream reads the
    // precomputed `s·pmf[s]`, so no int→float convert in the loop) and
    // one serial accumulator — the order [`q_value`] also uses.
    for s in 0..=k {
        q += weighted[s] * c + pmf[s] * opt_next[n - s];
    }
    if n <= s0 {
        let tail = (1.0 - row.head()[k]).max(0.0);
        q += tail * (n as f64 * c + opt_next[0]);
    }
    q
}

/// Compute `Q(n, t, action)` given the next interval's cost-to-go row
/// `opt_next` (indexed by remaining tasks) and a scratch pmf buffer of
/// length ≥ `n`.
///
/// `s0` is the truncation point (use `usize::MAX` for the exact backup).
pub fn q_value(
    lam_t: f64,
    action: PriceAction,
    n: usize,
    opt_next: &[f64],
    s0: usize,
    pmf_buf: &mut [f64],
) -> f64 {
    debug_assert!(n >= 1, "backup needs at least one remaining task");
    debug_assert!(opt_next.len() > n, "opt row too short");
    debug_assert!(pmf_buf.len() >= n, "pmf buffer too short");
    let c = action.reward;
    let pois = Poisson::new(lam_t * action.accept);
    // Partial-completion terms s = 0..=min(n−1, s0), in the exact
    // operation order of [`q_value_from_row`] (`(s·pr)·c + pr·opt`,
    // f64 multiplication being bitwise-commutative) so the two paths
    // stay bit-identical (`cached_rows_match_q_value_bitwise`).
    let k = (n - 1).min(s0);
    let head = pois.pmf_prefix(&mut pmf_buf[..=k]);
    let mut q = 0.0;
    for (s, &pr) in pmf_buf[..=k].iter().enumerate() {
        q += (s as f64 * pr) * c + pr * opt_next[n - s];
    }
    // Collapsed completion tail Pr[X ≥ n], kept only while n ≤ s0.
    if n <= s0 {
        let tail = (1.0 - head).max(0.0);
        q += tail * (n as f64 * c + opt_next[0]);
    }
    q
}

/// Scan all actions for the best (lowest-Q) one at `(n, t)`, restricted to
/// action indices `[a_lo, a_hi]`. Ties break toward the cheaper action.
/// Returns `(best_action_index, best_q)`.
///
/// Pmf rows come from the per-worker `cache`, so the Poisson prefix for a
/// given `(t, a)` is computed once per worker and shared by every state
/// it sweeps.
#[allow(clippy::too_many_arguments)]
pub(crate) fn best_action(
    problem: &DeadlineProblem,
    trunc: &TruncationTable,
    t: usize,
    n: usize,
    a_lo: usize,
    a_hi: usize,
    opt_next: &[f64],
    cache: &mut PmfCache,
) -> (usize, f64) {
    debug_assert!(a_lo <= a_hi && a_hi < problem.actions.len());
    let lam = problem.interval_arrivals[t];
    let max_state = problem.n_tasks as usize;
    let mut best = a_lo;
    let mut best_q = f64::INFINITY;
    for a in a_lo..=a_hi {
        let action = problem.actions.get(a);
        let s0 = trunc.get(t, a);
        let len = (max_state - 1).min(s0) + 1;
        let row = cache.row(t, a, lam, action.accept, len);
        let q = q_value_from_row(action.reward, n, opt_next, s0, row);
        if q < best_q {
            best_q = q;
            best = a;
        }
    }
    (best, best_q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actions::{ActionSet, PriceAction};
    use crate::dp::test_support::small_problem;
    use crate::penalty::PenaltyModel;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "expected {b}, got {a} (tol {tol})");
    }

    #[test]
    fn q_value_hand_computed() {
        // n = 1, λp = 1.0, reward 10, next-opt = [0, 7].
        // Q = P(X=0)(0 + 7) + P(X≥1)(10 + 0) = e^{-1}·7 + (1−e^{-1})·10.
        let a = PriceAction {
            reward: 10.0,
            accept: 0.5,
        };
        let mut buf = vec![0.0; 4];
        let q = q_value(2.0, a, 1, &[0.0, 7.0], usize::MAX, &mut buf);
        let e = (-1.0f64).exp();
        assert_close(q, e * 7.0 + (1.0 - e) * 10.0, 1e-12);
    }

    #[test]
    fn q_value_two_tasks() {
        // n = 2, λp = 1, reward c = 4, opt_next = [0, 3, 9].
        let a = PriceAction {
            reward: 4.0,
            accept: 1.0,
        };
        let mut buf = vec![0.0; 4];
        let q = q_value(1.0, a, 2, &[0.0, 3.0, 9.0], usize::MAX, &mut buf);
        let e = (-1.0f64).exp();
        let p0 = e;
        let p1 = e;
        let tail = 1.0 - p0 - p1;
        let expect = p0 * 9.0 + p1 * (4.0 + 3.0) + tail * 8.0;
        assert_close(q, expect, 1e-12);
    }

    #[test]
    fn truncated_q_is_lower_bound() {
        // Dropping non-negative terms can only lower Q.
        let a = PriceAction {
            reward: 6.0,
            accept: 0.8,
        };
        let opt_next: Vec<f64> = (0..12).map(|i| i as f64 * 5.0).collect();
        let mut buf = vec![0.0; 12];
        let exact = q_value(8.0, a, 10, &opt_next, usize::MAX, &mut buf);
        for s0 in [0usize, 2, 5, 9, 20] {
            let trunc = q_value(8.0, a, 10, &opt_next, s0, &mut buf);
            assert!(
                trunc <= exact + 1e-12,
                "s0={s0}: trunc {trunc} > exact {exact}"
            );
        }
        // Generous s0 changes nothing.
        let t = q_value(8.0, a, 10, &opt_next, 100, &mut buf);
        assert_close(t, exact, 1e-12);
    }

    #[test]
    fn truncation_table_matches_poisson() {
        let p = small_problem(10, 4);
        let table = TruncationTable::with_eps(&p, 1e-9);
        for t in 0..p.n_intervals() {
            for a in 0..p.actions.len() {
                let mean = p.interval_arrivals[t] * p.actions.get(a).accept;
                let expect = ft_stats::Poisson::new(mean).truncation_point(1e-9) as usize;
                assert_eq!(table.get(t, a), expect);
            }
        }
    }

    #[test]
    fn best_action_range_restriction() {
        let actions = ActionSet::new(vec![
            PriceAction {
                reward: 0.0,
                accept: 0.0,
            },
            PriceAction {
                reward: 5.0,
                accept: 0.5,
            },
            PriceAction {
                reward: 9.0,
                accept: 0.9,
            },
        ]);
        let p = crate::problem::DeadlineProblem::new(
            3,
            vec![3.0],
            actions,
            PenaltyModel::Linear { per_task: 1000.0 },
        );
        let trunc = TruncationTable::none(&p);
        // Terminal row: huge penalty makes high acceptance attractive.
        let opt_next = [0.0, 1000.0, 2000.0, 3000.0];
        let mut cache = PmfCache::new(p.actions.len());
        let (full, _) = best_action(&p, &trunc, 0, 3, 0, 2, &opt_next, &mut cache);
        assert_eq!(full, 2);
        // Restricting to [0, 1] must pick from that range.
        let (restricted, _) = best_action(&p, &trunc, 0, 3, 0, 1, &opt_next, &mut cache);
        assert_eq!(restricted, 1);
    }

    /// A longer shared row must serve shorter requests with bitwise-
    /// identical prefixes — the invariant that lets a [`SharedPmfCache`]
    /// upgrade rows in place across solves with different truncations.
    #[test]
    fn shared_rows_are_prefix_stable_across_lengths() {
        let shared = Arc::new(SharedPmfCache::new());
        let long = shared.get_or_build(3.5, 0.7, 24);
        assert_eq!(shared.hits(), 0);
        let short = shared.get_or_build(3.5, 0.7, 9);
        assert_eq!(shared.hits(), 1, "shorter request must hit the long row");
        assert!(Arc::ptr_eq(&long, &short), "hit must serve the cached row");
        let reference = PmfRow::build(3.5, 0.7, 9);
        for s in 0..9 {
            assert_eq!(long.pmf()[s].to_bits(), reference.pmf()[s].to_bits());
            assert_eq!(
                long.weighted()[s].to_bits(),
                reference.weighted()[s].to_bits()
            );
            assert_eq!(long.head()[s].to_bits(), reference.head()[s].to_bits());
        }
        // A longer request than anything cached rebuilds (an upgrade,
        // not a hit) and replaces the stored row.
        let upgraded = shared.get_or_build(3.5, 0.7, 32);
        assert_eq!(shared.hits(), 1);
        assert_eq!(upgraded.entries(), 32);
        assert_eq!(shared.lookups(), 3);
    }

    /// A per-worker cache resolving through a shared cache must produce
    /// bitwise-identical Q values to a private one.
    #[test]
    fn shared_cache_backup_is_bitwise_identical() {
        use crate::testkit::varied_problems;
        for p in varied_problems() {
            let trunc = TruncationTable::with_eps(&p, 1e-9);
            let shared = Arc::new(SharedPmfCache::new());
            let opt_next: Vec<f64> = (0..=p.n_tasks as usize)
                .map(|i| i as f64 * 3.75 + 0.25)
                .collect();
            // Two passes through the shared cache (the second one all
            // hits) against a private-cache reference.
            for _pass in 0..2 {
                let mut private = PmfCache::new(p.actions.len());
                let mut through_shared =
                    PmfCache::with_shared(p.actions.len(), Some(Arc::clone(&shared)));
                for t in 0..p.n_intervals() {
                    for n in 1..=p.n_tasks as usize {
                        let (a_ref, q_ref) = best_action(
                            &p,
                            &trunc,
                            t,
                            n,
                            0,
                            p.actions.len() - 1,
                            &opt_next,
                            &mut private,
                        );
                        let (a_got, q_got) = best_action(
                            &p,
                            &trunc,
                            t,
                            n,
                            0,
                            p.actions.len() - 1,
                            &opt_next,
                            &mut through_shared,
                        );
                        assert_eq!(a_ref, a_got, "(t={t}, n={n})");
                        assert_eq!(q_ref.to_bits(), q_got.to_bits(), "(t={t}, n={n})");
                    }
                }
            }
            assert!(shared.hits() > 0, "second pass must hit the shared rows");
        }
    }

    /// The shared-row backup must reproduce the per-state [`q_value`]
    /// bit-for-bit — the guarantee that lets the dense sweep share one
    /// pmf row per `(t, a)` without perturbing any policy.
    #[test]
    fn cached_rows_match_q_value_bitwise() {
        use crate::testkit::varied_problems;
        for p in varied_problems() {
            for (label, trunc) in [
                ("exact", TruncationTable::none(&p)),
                ("trunc", TruncationTable::with_eps(&p, 1e-9)),
            ] {
                let max_n = p.n_tasks as usize;
                // A strictly increasing fake cost-to-go row keeps the
                // comparison sensitive to every term.
                let opt_next: Vec<f64> = (0..=max_n).map(|i| i as f64 * 7.25 + 0.5).collect();
                let mut cache = PmfCache::new(p.actions.len());
                let mut buf = vec![0.0; max_n.max(1)];
                for t in 0..p.n_intervals() {
                    for n in 1..=max_n {
                        for a in 0..p.actions.len() {
                            let action = p.actions.get(a);
                            let s0 = trunc.get(t, a);
                            let reference =
                                q_value(p.interval_arrivals[t], action, n, &opt_next, s0, &mut buf);
                            let len = (max_n - 1).min(s0) + 1;
                            let row = cache.row(t, a, p.interval_arrivals[t], action.accept, len);
                            let cached = q_value_from_row(action.reward, n, &opt_next, s0, row);
                            assert_eq!(
                                cached.to_bits(),
                                reference.to_bits(),
                                "{label}: Q mismatch at (t={t}, n={n}, a={a}): \
                                 cached {cached} vs reference {reference}"
                            );
                        }
                    }
                }
            }
        }
    }
}
