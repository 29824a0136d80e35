//! The metric and workload names, read from the `BENCHMARK.json` compiled
//! into the binary: the file the driver checks is the only place a name,
//! a unit or a bound is written down.

use crate::json;
use serde::Value;

pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Regression bound as a share of the parent's median (end-to-end only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Catalog {
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
    pub run_seconds: f64,
}

impl Catalog {
    pub fn load() -> Catalog {
        Catalog::from_text(BENCHMARK_JSON).expect("the compiled-in BENCHMARK.json is well-formed")
    }

    pub fn from_text(text: &str) -> Result<Catalog, String> {
        let doc = json::parse(text)?;
        let defs = |key: &str| -> Result<Vec<MetricDef>, String> {
            json::as_array(json::get(&doc, key).ok_or(format!("missing `{key}`"))?)
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        json::get(m, f)
                            .and_then(json::as_str)
                            .ok_or(format!("{key}: missing `{f}`"))
                    };
                    Ok(MetricDef {
                        name: field("name")?.to_string(),
                        unit: field("unit")?.to_string(),
                        higher_is_better: field("better")? == "higher",
                        bound: json::get(m, "bound").and_then(json::as_f64),
                    })
                })
                .collect()
        };
        let workloads = json::as_array(json::get(&doc, "workloads").ok_or("missing `workloads`")?)
            .iter()
            .map(|w| {
                let s = |f| json::get(w, f).and_then(json::as_str).unwrap_or_default().to_string();
                (s("name"), s("why"))
            })
            .collect();
        Ok(Catalog {
            workloads,
            end_to_end: defs("end_to_end")?,
            per_layer: defs("per_layer")?,
            run_seconds: json::get(&doc, "run_seconds").and_then(json::as_f64).unwrap_or(10.0),
        })
    }

    pub fn find(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end.iter().chain(&self.per_layer).find(|m| m.name == name)
    }

    pub fn is_end_to_end(&self, name: &str) -> bool {
        self.end_to_end.iter().any(|m| m.name == name)
    }
}

/// Rewrite the `bound` of each named end-to-end metric, leaving the rest
/// of the document as it is (`run.sh --calibrate`).
pub fn with_bounds(text: &str, bounds: &[(String, f64)]) -> Result<String, String> {
    let mut doc = json::parse(text)?;
    if let Some(Value::Array(metrics)) = json::get_mut(&mut doc, "end_to_end") {
        for m in metrics {
            let name = json::get(m, "name").and_then(json::as_str).unwrap_or_default();
            let Some((_, b)) = bounds.iter().find(|(n, _)| n == name) else { continue };
            if let Some(bound) = json::get_mut(m, "bound") {
                *bound = Value::Number(*b);
            }
        }
    }
    Ok(serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())? + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn legal_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn benchmark_json_meets_the_contract() {
        let doc = json::parse(BENCHMARK_JSON).unwrap();
        let keys: Vec<&str> = json::as_object(&doc).iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"],
            "exactly these keys"
        );
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
        let c = Catalog::load();
        assert!((2..=8).contains(&c.workloads.len()));
        assert!((1..=16).contains(&c.end_to_end.len()));
        assert!((1..=128).contains(&c.per_layer.len()));
        assert!((1.0..=60.0).contains(&c.run_seconds) && c.run_seconds.fract() == 0.0);

        let mut names: Vec<&str> = c.workloads.iter().map(|(n, _)| n.as_str()).collect();
        names.extend(c.end_to_end.iter().chain(&c.per_layer).map(|m| m.name.as_str()));
        for n in &names {
            assert!(legal_name(n), "illegal name `{n}`");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");

        for (_, why) in &c.workloads {
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
        for m in c.end_to_end.iter().chain(&c.per_layer) {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "illegal unit `{}` on {}",
                m.unit,
                m.name
            );
        }
        for m in &c.end_to_end {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
        let setup = c.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        let widest = c.end_to_end.iter().map(|m| m.bound.unwrap()).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s gets the largest bound");
        assert_eq!(
            json::as_array(json::get(&doc, "paths").unwrap()),
            [Value::String("benchmark".into())]
        );
    }

    #[test]
    fn calibrated_bounds_replace_only_the_bound() {
        let out = with_bounds(BENCHMARK_JSON, &[("ops_per_s".to_string(), 0.0625)]).unwrap();
        let c = Catalog::from_text(&out).unwrap();
        let before = Catalog::load();
        assert_eq!(c.find("ops_per_s").unwrap().bound, Some(0.0625));
        assert_eq!(c.per_layer, before.per_layer);
        assert_eq!(c.workloads, before.workloads);
        for (a, b) in c.end_to_end.iter().zip(&before.end_to_end) {
            assert_eq!((&a.name, &a.unit), (&b.name, &b.unit));
            if a.name != "ops_per_s" {
                assert_eq!(a.bound, b.bound);
            }
        }
    }
}
