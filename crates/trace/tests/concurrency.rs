//! Concurrency stress for the per-thread span rings: readers racing a
//! writer that is continuously overwriting its ring must never observe
//! a torn span — every record swept out cross-thread has to be one the
//! writer actually wrote, whole (name, ids, and timestamps from the
//! same write), in the style of `ft-metrics`' tests/concurrency.rs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The full set of span names the writer uses; any name outside this
/// set in a swept record is a torn pointer/length pair.
const NAMES: [&str; 4] = [
    "trace.stress.alpha",
    "trace.stress.beta",
    "trace.stress.gamma",
    "trace.stress.delta",
];

#[test]
fn ring_overwrite_never_tears_a_span() {
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        // Writer: wrap the whole ring many times over, cycling names,
        // so readers race live overwrites the entire run.
        {
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                for round in 0..200u64 {
                    let id = ft_trace::next_trace_id();
                    let _root = ft_trace::begin_with(id, NAMES[0]);
                    for i in 0..ft_trace::RING_SLOTS {
                        let _s = ft_trace::span(NAMES[(round as usize + i) % NAMES.len()]);
                    }
                }
                stop.store(true, Ordering::Release);
            });
        }
        // Readers: sweep every ring through the seqlock while the
        // writer churns, and validate every record that comes back.
        for _ in 0..3 {
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut sweeps = 0u64;
                let mut records = 0u64;
                while !stop.load(Ordering::Acquire) {
                    for record in ft_trace::snapshot_all_rings() {
                        records += 1;
                        assert!(
                            NAMES.contains(&record.name),
                            "torn name swept out of ring: {:?} (len {})",
                            record.name,
                            record.name.len()
                        );
                        assert_ne!(record.trace_id, 0);
                        assert_ne!(record.span_id, 0);
                        assert!(
                            record.end_ns >= record.start_ns,
                            "inverted interval: {} > {}",
                            record.start_ns,
                            record.end_ns
                        );
                    }
                    sweeps += 1;
                }
                assert!(sweeps > 0);
                assert!(records > 0, "reader never saw a valid record");
            });
        }
    });
}

#[test]
fn completed_traces_stay_well_formed_under_parallel_tracing() {
    // Several threads trace concurrently; every completed trace must
    // come back with a single root and fully resolvable parent links
    // (rings are per-thread, so parallel traces must not interleave).
    let ids: Vec<Vec<u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    let mut ids = Vec::new();
                    for _ in 0..50 {
                        let id = ft_trace::next_trace_id();
                        {
                            let _root = ft_trace::begin_with(id, NAMES[0]);
                            let _a = ft_trace::span(NAMES[1]);
                            let _b = ft_trace::span(NAMES[2]);
                        }
                        ids.push(id);
                    }
                    ids
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for id in ids.into_iter().flatten() {
        // The recent store is bounded; only assert on traces still
        // resident (the newest ones always are).
        let Some(trace) = ft_trace::find(id) else {
            continue;
        };
        let roots = trace.spans.iter().filter(|s| s.parent_id == 0).count();
        assert_eq!(roots, 1, "trace {id:x} has {roots} roots");
        assert_eq!(trace.spans.len(), 3, "trace {id:x} leaked foreign spans");
        let one_tid = trace.spans[0].tid;
        for span in &trace.spans {
            assert_eq!(span.tid, one_tid, "trace {id:x} crossed threads");
            if span.parent_id != 0 {
                assert!(trace.spans.iter().any(|p| p.span_id == span.parent_id));
            }
        }
    }
}
