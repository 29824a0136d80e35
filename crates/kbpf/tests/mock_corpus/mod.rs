//! The seeded `MockLlm` sources the verdict golden pins and the
//! containment test steps: 2 000 per template mode, the calibrated fault
//! mix, with earlier sources fed back as exemplars so mutation and
//! crossover run.

use policysmith_dsl::{parse, Mode};
use policysmith_gen::{Exemplar, GenConfig, Generator, MockLlm, Prompt};

pub const PER_MODE: usize = 2_000;
const BATCH: usize = 16;
const SEED: u64 = 0x5eed_0015;

pub fn sources(mode: Mode) -> Vec<String> {
    let cfg = match mode {
        Mode::Cache => GenConfig::cache_defaults(SEED),
        Mode::Kernel => GenConfig::kernel_defaults(SEED),
        Mode::Lb => GenConfig::lb_defaults(SEED),
        Mode::Aqm => GenConfig::aqm_defaults(SEED),
    };
    let mut llm = MockLlm::new(cfg);
    let mut prompt = Prompt::new(mode);
    let mut out = Vec::with_capacity(PER_MODE);
    while out.len() < PER_MODE {
        let batch = llm.generate(&prompt, BATCH.min(PER_MODE - out.len()));
        let exemplars: Vec<Exemplar> = batch
            .iter()
            .filter(|s| parse(s).is_ok())
            .take(2)
            .enumerate()
            .map(|(i, s)| Exemplar { source: s.clone(), score: 0.5 - i as f64 * 0.1 })
            .collect();
        if !exemplars.is_empty() {
            prompt = Prompt::new(mode).with_exemplars(exemplars);
        }
        out.extend(batch);
    }
    out
}
