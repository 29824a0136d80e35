//! Prompt assembly — the `Template` as the Generator sees it.
//!
//! §4.2.1 of the paper: "The prompt to the Generator includes a natural
//! language description of our priority queue interface and available
//! features (Table 1), the function signature for `priority()`, and example
//! priority functions seeded at the start of the search". We reproduce that
//! structure (and render it to real text, because the §4.2.6 token ledger
//! meters prompt size).

use crate::template::template;
use policysmith_dsl::{Feature, Mode};

/// A scored example program fed back into the next round (§4.2.1: "the top
/// two performing heuristics across all previous rounds").
#[derive(Debug, Clone, PartialEq)]
pub struct Exemplar {
    pub source: String,
    pub score: f64,
}

/// Everything handed to the Generator for one batch.
#[derive(Debug, Clone)]
pub struct Prompt {
    /// Which template: cache `priority()`, kernel `cong_control()`, lb
    /// `score()` or aqm `act()`.
    pub mode: Mode,
    /// Natural-language constraints (§3: allowed constructs, performance
    /// requirements).
    pub constraints: String,
    /// Best programs so far, best first.
    pub exemplars: Vec<Exemplar>,
    /// Diagnostics from a failed sibling, when repairing.
    pub feedback: Option<String>,
}

impl Prompt {
    /// Fresh prompt for a template mode with its row's constraint text.
    pub fn new(mode: Mode) -> Self {
        Prompt {
            mode,
            constraints: template(mode).constraints.to_string(),
            exemplars: Vec::new(),
            feedback: None,
        }
    }

    /// Replace the exemplar set (best first).
    pub fn with_exemplars(mut self, exemplars: Vec<Exemplar>) -> Self {
        self.exemplars = exemplars;
        self
    }

    /// Render to the text a real LLM endpoint would receive; used for token
    /// accounting (§4.2.6).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("### Template\n");
        out.push_str(&self.constraints);
        out.push_str("\n\n### Available features\n");
        for f in Feature::catalog(self.mode) {
            out.push_str(&f.name());
            out.push('\n');
        }
        if !self.exemplars.is_empty() {
            out.push_str("\n### Best heuristics so far\n");
            for ex in &self.exemplars {
                out.push_str(&format!("// score {:.4}\n{}\n", ex.score, ex.source));
            }
        }
        if let Some(fb) = &self.feedback {
            out.push_str("\n### Compiler feedback on your previous attempt\n");
            out.push_str(fb);
        }
        out.push_str("\n### Respond with a single expression.\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_all_sections() {
        let p = Prompt::new(Mode::Cache)
            .with_exemplars(vec![Exemplar { source: "obj.count".into(), score: 0.12 }]);
        let text = p.render();
        assert!(text.contains("### Template"));
        assert!(text.contains("obj.count"));
        assert!(text.contains("ages.p75") || text.contains("ages.p50"));
        assert!(text.contains("score 0.12"));
        assert!(!text.contains("Compiler feedback"));
    }

    #[test]
    fn kernel_prompt_lists_kernel_features() {
        let text = Prompt::new(Mode::Kernel).render();
        assert!(text.contains("cwnd"));
        assert!(text.contains("hist_rtt[0]"));
        assert!(!text.contains("obj.size"));
    }

    #[test]
    fn lb_prompt_lists_lb_features() {
        let text = Prompt::new(Mode::Lb).render();
        assert!(text.contains("server.queue_len"));
        assert!(text.contains("server.ewma_latency"));
        assert!(text.contains("req.size"));
        assert!(text.contains("argmin"));
        assert!(!text.contains("obj.size"));
        assert!(!text.contains("cwnd"));
    }

    #[test]
    fn aqm_prompt_lists_aqm_features() {
        let text = Prompt::new(Mode::Aqm).render();
        assert!(text.contains("pkt.sojourn"));
        assert!(text.contains("q.drain_rate"));
        assert!(text.contains("aqm.since_drop"));
        assert!(text.contains("VERDICT"));
        assert!(!text.contains("obj.size"));
        assert!(!text.contains("server.queue_len"));
        assert!(!text.contains("cwnd"));
    }

    #[test]
    fn feedback_section_appears_when_present() {
        let mut p = Prompt::new(Mode::Kernel);
        p.feedback = Some("verifier: R3 includes 0".into());
        assert!(p.render().contains("Compiler feedback"));
    }
}
