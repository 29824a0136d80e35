//! The compulsory floor under every cache number: whatever a policy does,
//! it misses each distinct object that fits the cache at least once, and
//! every request to an object larger than the cache. A policy below that
//! floor proves a simulator bug, since no eviction order can beat it.
//!
//! Checked for all sixteen built-in baselines and for the template host
//! running the LRU and LFU seeds, on short CloudPhysics and MSR traces at
//! 1 % and 10 % of their footprint.

use policysmith::cachesim::{lfu_seed, lru_seed, policies, Cache, Policy, PriorityPolicy};
use policysmith::dsl::Mode;
use policysmith::kbpf::CompiledPolicy;
use policysmith::traces::{cloudphysics, footprint_bytes, msr, Trace};
use std::collections::HashMap;

const REQUESTS: usize = 6_000;
/// Cache sizes as a share of the trace's footprint, in percent.
const SIZES_PCT: [u64; 2] = [1, 10];

/// One miss per distinct object that fits in `capacity`, plus every
/// request to one that does not.
fn compulsory_misses(trace: &Trace, capacity: u64) -> u64 {
    let mut sizes = HashMap::new();
    let mut too_large = 0;
    for r in &trace.requests {
        if r.size as u64 > capacity {
            too_large += 1;
        } else {
            sizes.insert(r.obj, r.size);
        }
    }
    sizes.len() as u64 + too_large
}

/// Every policy under test, freshly built.
fn policies_under_test() -> Vec<Box<dyn Policy>> {
    let mut all: Vec<Box<dyn Policy>> = policies::all_baseline_names()
        .iter()
        .map(|name| policies::by_name(name).expect("a built-in baseline"))
        .collect();
    for (name, seed) in [("lru-seed", lru_seed()), ("lfu-seed", lfu_seed())] {
        let compiled = CompiledPolicy::compile(&seed, Mode::Cache).expect("the seeds compile");
        all.push(Box::new(PriorityPolicy::new(name, compiled)));
    }
    all
}

#[test]
fn no_policy_misses_fewer_than_the_compulsory_floor() {
    let traces = [cloudphysics().trace(7, REQUESTS), cloudphysics().trace(42, REQUESTS)]
        .into_iter()
        .chain([0, 3].map(|i| msr().trace(i, REQUESTS)));
    let mut checked = 0;
    for trace in traces {
        let footprint = footprint_bytes(&trace);
        for pct in SIZES_PCT {
            let capacity = (footprint * pct / 100).max(1);
            let floor = compulsory_misses(&trace, capacity);
            for policy in policies_under_test() {
                let name = policy.name().to_string();
                let result = Cache::new(capacity, policy).run(&trace);
                assert_eq!(result.hits + result.misses, result.requests, "{name}");
                assert!(
                    result.misses >= floor,
                    "{name} on {} at {pct}%: {} misses, below the compulsory {floor}",
                    trace.name,
                    result.misses
                );
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 4 * SIZES_PCT.len() * 18);
}
