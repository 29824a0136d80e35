//! Feature environments: how an executing heuristic reads its context.
//!
//! The cache template host and the congestion-control harness both implement
//! [`FeatureEnv`]; a simple [`MapEnv`] is provided for tests, docs, and the
//! generator's quick candidate sanity-probes.

use crate::feature::Feature;
use std::collections::HashMap;

/// Provider of feature values at evaluation time.
///
/// Implementations must be *total*: a feature that is semantically absent
/// (e.g. history metadata for an object never evicted) returns a documented
/// default rather than failing, matching how the paper's template presents
/// features to generated code.
pub trait FeatureEnv {
    /// Current value of `f`.
    fn feature(&self, f: Feature) -> i64;
}

/// A plain map-backed environment. Unset features read as 0.
#[derive(Debug, Clone, Default)]
pub struct MapEnv {
    values: HashMap<Feature, i64>,
}

impl MapEnv {
    /// Build an empty environment (all features read as 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set `f` to `v`, returning `self` for chaining.
    pub fn with(mut self, f: Feature, v: i64) -> Self {
        self.set(f, v);
        self
    }

    /// Set `f` to `v`.
    pub fn set(&mut self, f: Feature, v: i64) {
        self.values.insert(f, v);
    }
}

impl FeatureEnv for MapEnv {
    fn feature(&self, f: Feature) -> i64 {
        self.values.get(&f).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_env_defaults_to_zero() {
        let env = MapEnv::new().with(Feature::ObjSize, 512);
        assert_eq!(env.feature(Feature::ObjSize), 512);
        assert_eq!(env.feature(Feature::ObjCount), 0);
    }
}
