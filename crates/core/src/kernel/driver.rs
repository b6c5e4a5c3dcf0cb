//! The generic backward/forward induction driver.
//!
//! A [`LayerModel`] describes a layered DP: a terminal boundary row and a
//! per-state Bellman optimisation that reads only the previous layer.
//! [`run`] sweeps the layers in induction order and, within each layer,
//! computes the states with one of two strategies:
//!
//! - [`Sweep::Dense`]: every state scans its full action range
//!   (Algorithm 1 and the budget DPs). States are partitioned into
//!   contiguous chunks solved concurrently on the shared `ft-exec` pool.
//! - [`Sweep::MonotoneDivide`]: Algorithm 2's divide-and-conquer over the
//!   state axis, valid when the optimal action index is non-decreasing in
//!   the state (Conjecture 1). The midpoint state is solved first, then
//!   the two halves — whose action ranges are now bracketed — recurse as
//!   independent fork-join tasks.
//!
//! Both strategies compute each cell with exactly the serial operation
//! sequence, so results are identical for any thread count.

use super::table::{PolicyTable, ValueTable};

/// Tuning knobs for the kernel sweep. `Default` uses every available
/// core; `serial()` pins the sweep to one thread (useful inside an outer
/// parallel batch such as [`crate::registry::CampaignRegistry::solve_many`],
/// and as the baseline in the speedup benchmarks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelConfig {
    /// Worker threads for the state sweep; `0` = auto (`ft-exec` budget).
    pub threads: usize,
    /// Minimum states per chunk before the sweep fans out; `0` = use the
    /// model's default grain.
    pub grain: usize,
}

impl KernelConfig {
    /// Single-threaded sweep.
    pub fn serial() -> Self {
        Self {
            threads: 1,
            grain: 0,
        }
    }

    /// Sweep with exactly `n` worker threads.
    pub fn with_threads(n: usize) -> Self {
        Self {
            threads: n,
            grain: 0,
        }
    }
}

/// Which direction the induction proceeds through the layer axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Deadline MDP: terminal row is the *last* layer (`t = N_T`), and
    /// step `k` writes layer `t = N_T − 1 − k` reading `t + 1`.
    Backward,
    /// Budget DPs: terminal row is layer `0` (zero tasks assigned), and
    /// step `k` writes layer `k + 1` reading layer `k`.
    Forward,
}

/// Per-layer state-sweep strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// Scan the full action range at every state (Algorithm 1).
    Dense,
    /// Algorithm 2: divide-and-conquer over states using action-index
    /// monotonicity (Conjecture 1) to shrink the scan ranges.
    MonotoneDivide,
}

/// A layered DP the kernel can drive.
///
/// `layer` arguments are *semantic* layer indices: the layer being
/// written (an interval index for the deadline MDP, a task count for the
/// budget DPs).
pub trait LayerModel: Sync {
    /// Per-thread scratch (e.g. a Poisson pmf buffer). Created once per
    /// worker, not per state.
    type Scratch: Send;

    /// States per layer.
    fn width(&self) -> usize;

    /// Number of induction steps (= layers beyond the terminal row).
    fn n_steps(&self) -> usize;

    /// Size of the action space (for full-range dense sweeps).
    fn n_actions(&self) -> usize;

    fn make_scratch(&self) -> Self::Scratch;

    /// Fill the terminal boundary row.
    fn terminal(&self, out: &mut [f64]);

    /// Minimum states per parallel chunk when the caller doesn't specify
    /// a grain: cheap cells (budget DPs) want big chunks, expensive cells
    /// (deadline backups) amortise a spawn much sooner.
    fn default_grain(&self) -> usize {
        64
    }

    /// Solve one state: return the optimal `(value, decision)` at
    /// `(layer, state)` given the previous layer's values, considering
    /// only actions in `[a_lo, a_hi]` (dense sweeps pass the full range).
    fn solve_state(
        &self,
        layer: usize,
        state: usize,
        a_lo: usize,
        a_hi: usize,
        prev: &[f64],
        scratch: &mut Self::Scratch,
    ) -> (f64, u32);
}

/// Run the induction. Returns the full value table (`n_steps + 1` layers
/// including the terminal row) and the per-step policy table (`n_steps`
/// layers, in the same semantic-layer order as the value table's
/// non-terminal layers).
pub fn run<M: LayerModel>(
    model: &M,
    sweep: Sweep,
    direction: Direction,
    cfg: &KernelConfig,
) -> (ValueTable, PolicyTable) {
    let steps = model.n_steps();
    let width = model.width();
    let grain = if cfg.grain == 0 {
        model.default_grain()
    } else {
        cfg.grain
    };
    let threads = ft_exec::resolve_threads(cfg.threads);

    let mut values = ValueTable::new(steps + 1, width);
    let mut policy = PolicyTable::new(steps.max(1), width, 0);

    let terminal_row = match direction {
        Direction::Backward => steps,
        Direction::Forward => 0,
    };
    model.terminal(values.row_mut(terminal_row));

    for k in 0..steps {
        let _layer = ft_trace::span("core.kernel.induct_layer");
        // `write` is both the value-table row and the semantic layer
        // index; `policy_row` keeps policies dense in 0..steps.
        let (write, read, policy_row) = match direction {
            Direction::Backward => (steps - 1 - k, steps - k, steps - 1 - k),
            Direction::Forward => (k + 1, k, k),
        };
        let (cur, prev) = values.split_rows(write, read);
        let decisions = policy.row_mut(policy_row);
        let _sweep = ft_trace::span("core.kernel.sweep");
        match sweep {
            Sweep::Dense => dense_sweep(model, write, cur, decisions, prev, grain, threads),
            Sweep::MonotoneDivide => {
                monotone_sweep(model, write, cur, decisions, prev, grain, threads)
            }
        }
    }
    (values, policy)
}

fn dense_sweep<M: LayerModel>(
    model: &M,
    layer: usize,
    cur: &mut [f64],
    decisions: &mut [u32],
    prev: &[f64],
    grain: usize,
    threads: usize,
) {
    let a_hi = model.n_actions() - 1;
    ft_exec::par_chunks2_mut(cur, decisions, grain, threads, |start, vals, decs| {
        let mut scratch = model.make_scratch();
        for j in 0..vals.len() {
            let (v, d) = model.solve_state(layer, start + j, 0, a_hi, prev, &mut scratch);
            vals[j] = v;
            decs[j] = d;
        }
    });
}

fn monotone_sweep<M: LayerModel>(
    model: &M,
    layer: usize,
    cur: &mut [f64],
    decisions: &mut [u32],
    prev: &[f64],
    grain: usize,
    threads: usize,
) {
    // State 0 sits outside the monotone recursion (it's the "done"
    // state for the deadline MDP); solve it directly.
    let mut scratch = model.make_scratch();
    let (v0, d0) = model.solve_state(layer, 0, 0, model.n_actions() - 1, prev, &mut scratch);
    cur[0] = v0;
    decisions[0] = d0;
    if cur.len() == 1 {
        return;
    }
    // Fork-join depth budget: each split doubles the live tasks, so
    // floor(log2(threads)) levels saturate the pool; one thread means
    // zero splits (the serial baseline must never spawn).
    let max_depth = threads.max(1).ilog2();
    ft_exec::region(|| {
        divide(
            model,
            layer,
            1,
            cur.len() - 1,
            0,
            model.n_actions() - 1,
            &mut cur[1..],
            &mut decisions[1..],
            1,
            prev,
            grain,
            0,
            max_depth,
            &mut scratch,
        )
    });
}

/// `FindOptimalPriceForTime(t, l, r, a_lo, a_hi)` from Algorithm 2, with
/// the two half-recursions run as a fork-join pair while the segment is
/// large and the depth budget allows.
///
/// `vals`/`decs` cover absolute states `[base, base + len)`.
#[allow(clippy::too_many_arguments)]
fn divide<M: LayerModel>(
    model: &M,
    layer: usize,
    l: usize,
    r: usize,
    a_lo: usize,
    a_hi: usize,
    vals: &mut [f64],
    decs: &mut [u32],
    base: usize,
    prev: &[f64],
    grain: usize,
    depth: u32,
    max_depth: u32,
    scratch: &mut M::Scratch,
) {
    if l > r {
        return;
    }
    let m = l + (r - l) / 2;
    let (v, d) = model.solve_state(layer, m, a_lo, a_hi, prev, scratch);
    vals[m - base] = v;
    decs[m - base] = d;
    let best = d as usize;

    let go_parallel = depth < max_depth && r - l + 1 >= 2 * grain.max(2);
    if go_parallel {
        let (lv, rv_t) = vals.split_at_mut(m - base);
        let rv = &mut rv_t[1..];
        let (ld, rd_t) = decs.split_at_mut(m - base);
        let rd = &mut rd_t[1..];
        ft_exec::join(
            move || {
                if l < m {
                    let mut s = model.make_scratch();
                    divide(
                        model,
                        layer,
                        l,
                        m - 1,
                        a_lo,
                        best,
                        lv,
                        ld,
                        base,
                        prev,
                        grain,
                        depth + 1,
                        max_depth,
                        &mut s,
                    );
                }
            },
            move || {
                if m < r {
                    let mut s = model.make_scratch();
                    divide(
                        model,
                        layer,
                        m + 1,
                        r,
                        best,
                        a_hi,
                        rv,
                        rd,
                        m + 1,
                        prev,
                        grain,
                        depth + 1,
                        max_depth,
                        &mut s,
                    );
                }
            },
        );
    } else {
        if l < m {
            divide(
                model,
                layer,
                l,
                m - 1,
                a_lo,
                best,
                vals,
                decs,
                base,
                prev,
                grain,
                depth,
                max_depth,
                scratch,
            );
        }
        if m < r {
            divide(
                model,
                layer,
                m + 1,
                r,
                best,
                a_hi,
                vals,
                decs,
                base,
                prev,
                grain,
                depth,
                max_depth,
                scratch,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy model with a closed form: minimise `|state − action·layer|`
    /// plus the previous layer's value at the same state. The optimal
    /// action index is non-decreasing in the state, so both sweeps must
    /// agree.
    struct Toy {
        width: usize,
        steps: usize,
        n_actions: usize,
    }

    impl LayerModel for Toy {
        type Scratch = ();

        fn width(&self) -> usize {
            self.width
        }

        fn n_steps(&self) -> usize {
            self.steps
        }

        fn n_actions(&self) -> usize {
            self.n_actions
        }

        fn make_scratch(&self) {}

        fn terminal(&self, out: &mut [f64]) {
            for (s, v) in out.iter_mut().enumerate() {
                *v = s as f64;
            }
        }

        fn default_grain(&self) -> usize {
            4
        }

        fn solve_state(
            &self,
            layer: usize,
            state: usize,
            a_lo: usize,
            a_hi: usize,
            prev: &[f64],
            _scratch: &mut (),
        ) -> (f64, u32) {
            let mut best_a = a_lo;
            let mut best_v = f64::INFINITY;
            for a in a_lo..=a_hi {
                let v = (state as f64 - a as f64 * (layer as f64 + 1.0)).abs() + prev[state];
                if v < best_v {
                    best_v = v;
                    best_a = a;
                }
            }
            (best_v, best_a as u32)
        }
    }

    fn run_all(cfg: &KernelConfig) -> Vec<(Vec<f64>, Vec<u32>)> {
        let toy = Toy {
            width: 57,
            steps: 5,
            n_actions: 9,
        };
        [Sweep::Dense, Sweep::MonotoneDivide]
            .into_iter()
            .flat_map(|sweep| {
                [Direction::Backward, Direction::Forward]
                    .into_iter()
                    .map(move |dir| (sweep, dir))
            })
            .map(|(sweep, dir)| {
                let (v, p) = run(&toy, sweep, dir, cfg);
                (v.into_vec(), p.into_vec())
            })
            .collect()
    }

    #[test]
    fn sweeps_and_thread_counts_agree_exactly() {
        let serial = run_all(&KernelConfig::serial());
        for threads in [2, 4, 8] {
            let parallel = run_all(&KernelConfig::with_threads(threads));
            for (s, p) in serial.iter().zip(&parallel) {
                assert_eq!(s.0, p.0, "values differ at {threads} threads");
                assert_eq!(s.1, p.1, "decisions differ at {threads} threads");
            }
        }
        // Dense and monotone agree on this monotone-optimal toy
        // (run_all order: (dense, bwd), (dense, fwd), (mono, bwd), (mono, fwd)).
        assert_eq!(serial[0], serial[2], "backward dense vs monotone");
        assert_eq!(serial[1], serial[3], "forward dense vs monotone");
    }

    #[test]
    fn directions_place_terminal_row_correctly() {
        let toy = Toy {
            width: 4,
            steps: 2,
            n_actions: 2,
        };
        let (vb, _) = run(
            &toy,
            Sweep::Dense,
            Direction::Backward,
            &KernelConfig::serial(),
        );
        assert_eq!(vb.row(2), &[0.0, 1.0, 2.0, 3.0]);
        let (vf, _) = run(
            &toy,
            Sweep::Dense,
            Direction::Forward,
            &KernelConfig::serial(),
        );
        assert_eq!(vf.row(0), &[0.0, 1.0, 2.0, 3.0]);
    }
}
