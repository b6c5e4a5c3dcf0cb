//! Concurrency stress for the trace stores: threads tracing at once
//! must each get back their own span trees — one root, every parent
//! resolvable, no span from another thread's trace — in the style of
//! `ft-metrics`' tests/concurrency.rs.

const NAMES: [&str; 4] = [
    "trace.stress.alpha",
    "trace.stress.beta",
    "trace.stress.gamma",
    "trace.stress.delta",
];

#[test]
fn completed_traces_stay_well_formed_under_parallel_tracing() {
    // Several threads trace concurrently; every completed trace must
    // come back with a single root and fully resolvable parent links
    // (span buffers are per-thread, so parallel traces must not
    // interleave).
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
