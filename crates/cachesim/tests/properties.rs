//! Property tests on the cache engine and every baseline policy:
//!
//! 1. **No panics, exact accounting** on arbitrary request streams — the
//!    engine panics if a policy ever returns a non-resident victim, so
//!    completing a run proves the victim contract for every policy.
//! 2. **Capacity is never exceeded**, and the engine's slot table stays
//!    consistent (`Cache::debug_check_slots`: every slot one resident's or
//!    free, never both or twice) — after every request, not just at the end.
//! 3. **Determinism** — same stream, same result.
//! 4. The **template host** upholds the same contract for arbitrary
//!    checker-clean priority expressions (including ones that fault at
//!    runtime: the latched-error path must not corrupt the simulation).

use policysmith_cachesim::{policies, Cache, PriorityPolicy};
use policysmith_traces::{OpKind, Request, Trace};
use proptest::prelude::*;

/// Arbitrary well-formed trace: bounded object universe so reuse happens,
/// sizes in a realistic band, monotone timestamps.
fn arb_trace(max_len: usize) -> impl Strategy<Value = Trace> {
    proptest::collection::vec((0u64..60, 64u32..4_096), 1..max_len).prop_map(|reqs| {
        let requests = reqs
            .into_iter()
            .enumerate()
            .map(|(i, (obj, size_seed))| Request {
                time_us: i as u64 * 100,
                obj,
                // size stable per object (engine requirement in practice)
                size: 64 + (obj as u32 * 131) % size_seed.max(65),
                op: OpKind::Read,
            })
            .collect();
        Trace::new("prop", requests)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_baseline_upholds_engine_invariants(
        trace in arb_trace(400),
        cap_objs in 2u64..20,
    ) {
        let capacity = cap_objs * 1_000;
        for name in policies::all_baseline_names() {
            let mut cache = Cache::new(capacity, policies::by_name(name).unwrap());
            let r = cache.run(&trace);
            cache.debug_check_slots();
            prop_assert_eq!(r.requests, trace.len() as u64, "{}", name);
            prop_assert_eq!(r.hits + r.misses, r.requests, "{}", name);
            prop_assert!(cache.used_bytes() <= capacity, "{} over capacity", name);
            prop_assert!(r.miss_ratio() <= 1.0, "{}", name);
        }
    }

    #[test]
    fn baselines_are_deterministic(trace in arb_trace(300)) {
        for name in ["LeCaR", "CACHEUS", "LHD", "S3-FIFO"] {
            let run = || {
                Cache::new(5_000, policies::by_name(name).unwrap()).run(&trace)
            };
            prop_assert_eq!(run(), run(), "{}", name);
        }
    }

    #[test]
    fn template_host_upholds_invariants_even_when_faulting(
        trace in arb_trace(300),
        use_faulty in any::<bool>(),
    ) {
        // A valid heuristic and one that can divide by zero at runtime.
        let src = if use_faulty {
            "obj.count * 100 / max(cache.objects - 3, 0 - 10)" // hits 0 at 3 residents
        } else {
            "obj.count * 20 - obj.age / 300 - obj.size / 500"
        };
        let expr = policysmith_dsl::parse(src).unwrap();
        let mut cache = Cache::new(4_000, PriorityPolicy::from_expr("prop", &expr));
        let r = cache.run(&trace);
        cache.debug_check_slots();
        prop_assert_eq!(r.requests, trace.len() as u64);
        prop_assert!(cache.used_bytes() <= 4_000);
    }

    #[test]
    fn slot_table_is_consistent_after_every_request(
        trace in arb_trace(200),
        cap_objs in 1u64..12,
    ) {
        // the host that indexes its own state by slot, on a cache small
        // enough that slots change hands on most misses
        let expr = policysmith_dsl::parse(
            "if(hist.contains, 50, 0) + obj.count * 8 - min(obj.age, ages.p50)",
        )
        .unwrap();
        let mut cache = Cache::new(cap_objs * 700, PriorityPolicy::from_expr("slots", &expr));
        let mut residents = 0usize;
        for req in &trace.requests {
            cache.request(req);
            cache.debug_check_slots();
            prop_assert!(cache.contains(req.obj) || req.size as u64 > cache.capacity_bytes());
            residents = residents.max(cache.num_objects());
        }
        prop_assert!(cache.policy.first_error().is_none());
        prop_assert!(residents as u64 <= cap_objs * 700 / 64 + 1, "more residents than fit");
    }

    #[test]
    fn hit_counts_agree_with_reference_lru(trace in arb_trace(300)) {
        // Cross-validate the intrusive-list LRU against a simple
        // VecDeque reference model.
        let capacity = 3_000u64;
        let fast = Cache::new(capacity, policies::Lru::new()).run(&trace);

        let mut order: Vec<u64> = Vec::new(); // front = MRU
        let mut sizes: std::collections::HashMap<u64, u64> = Default::default();
        let mut used = 0u64;
        let mut hits = 0u64;
        for req in &trace.requests {
            if sizes.contains_key(&req.obj) {
                hits += 1;
                order.retain(|&o| o != req.obj);
                order.insert(0, req.obj);
            } else if (req.size as u64) <= capacity {
                while used + req.size as u64 > capacity {
                    let victim = order.pop().unwrap();
                    used -= sizes.remove(&victim).unwrap();
                }
                order.insert(0, req.obj);
                sizes.insert(req.obj, req.size as u64);
                used += req.size as u64;
            }
        }
        prop_assert_eq!(fast.hits, hits);
    }
}
