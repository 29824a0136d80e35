//! The front-door corpus the golden tests share: every source a generator
//! could send `dsl::parse`, honest or hostile —
//!
//! * 4 096 seeded `MockLlm` sources per template mode behind a `FlakyGen`
//!   that sometimes answers with garbage (earlier sources fed back as
//!   exemplars, so mutation and crossover run), every eighth one replaced
//!   by a compile-storm-style hostile mutation;
//! * 50 000 byte-level fuzz inputs: truncations at char boundaries, random
//!   printable and multibyte strings, and splices of two sources around
//!   `+ ? : . [ ,`;
//! * a few fixed edge cases, among them the 80 KB `+ 1` chain and 80-deep
//!   parentheses.
//!
//! Each golden holds one row per source, in [`sources`] order, and
//! [`assert_matches_golden`] names the first source whose row moved.

// every golden test compiles this module, and no one of them uses all of it
#![allow(dead_code)]

use policysmith::dsl::{parse, Mode};
use policysmith::gen::{Exemplar, FlakyConfig, FlakyGen, GenConfig, Generator, MockLlm, Prompt};

const SEED: u64 = 0x5eed_0025;
const PER_MODE: usize = 4_096;
const BATCH: usize = 16;
const FUZZ: usize = 50_000;
/// compile-storm's shares: garbage batches, and one hostile source in eight.
const P_GARBAGE: f64 = 0.12;
const HOSTILE_EVERY: usize = 8;
/// The characters splices cut both sources at.
const SPLICE_AT: [char; 6] = ['+', '?', ':', '.', '[', ','];
/// Pieces of the multibyte fuzz strings: tokens, near-tokens, and
/// characters of two, three and four UTF-8 bytes.
const PIECES: [&str; 24] = [
    "obj.count",
    "cwnd",
    "hist_rtt[",
    "ages.p",
    "min(",
    "if(",
    " ",
    "+",
    "-",
    "*",
    "/",
    "(",
    ")",
    ",",
    "?",
    ":",
    "7",
    "0.5",
    "é",
    "Ã",
    "µ",
    "→",
    "中",
    "😀",
];

/// splitmix64: the tests own their randomness.
pub struct Rng(pub u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// FNV-1a of `text`, folded to 32 bits: what a golden records in place of
/// a long field.
pub fn hash32(text: &str) -> String {
    let h = fnv1a(text.as_bytes());
    format!("{:08x}", (h ^ (h >> 32)) as u32)
}

/// `src` cut at a random char boundary.
fn truncated(src: &str, rng: &mut Rng) -> String {
    let mut at = rng.below(src.len() + 1);
    while !src.is_char_boundary(at) {
        at -= 1;
    }
    src[..at].to_string()
}

/// compile-storm's hostile mutations: cut-off text, nesting and size past
/// the budgets, a division nothing can prove, bytes that are no program.
fn hostile(src: &str, rng: &mut Rng) -> String {
    match rng.below(5) {
        0 => truncated(src, rng),
        1 => format!("{}{src}{}", "(".repeat(80), ")".repeat(80)),
        2 => vec![src; 40].join(" + "),
        3 => format!("({src}) / (({src}) - ({src}))"),
        _ => printable(rng),
    }
}

fn printable(rng: &mut Rng) -> String {
    (0..rng.below(120) + 1).map(|_| (b' ' + rng.below(95) as u8) as char).collect()
}

fn corpus(rng: &mut Rng) -> Vec<String> {
    let mut out = Vec::with_capacity(PER_MODE * Mode::ALL.len());
    for (m, mode) in Mode::ALL.into_iter().enumerate() {
        let seed = SEED + m as u64;
        let cfg = match mode {
            Mode::Cache => GenConfig::cache_defaults(seed),
            Mode::Kernel => GenConfig::kernel_defaults(seed),
            Mode::Lb => GenConfig::lb_defaults(seed),
            Mode::Aqm => GenConfig::aqm_defaults(seed),
        };
        let flaky = FlakyConfig { p_garbage: P_GARBAGE, ..FlakyConfig::none(seed + 100) };
        let mut generator = FlakyGen::new(MockLlm::new(cfg), flaky);
        let mut prompt = Prompt::new(mode);
        let mut made = 0;
        while made < PER_MODE {
            let batch = generator.generate(&prompt, BATCH.min(PER_MODE - made));
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
            made += batch.len();
            out.extend(batch);
        }
    }
    for src in &mut out {
        if rng.below(HOSTILE_EVERY) == 0 {
            *src = hostile(src, rng);
        }
    }
    out
}

/// `a` up to one of its `c`s, then `b` from one of its `c`s on.
fn splice(a: &str, b: &str, rng: &mut Rng) -> String {
    let c = *rng.pick(&SPLICE_AT);
    let cuts = |s: &str| s.match_indices(c).map(|(i, _)| i).collect::<Vec<_>>();
    let (ca, cb) = (cuts(a), cuts(b));
    if ca.is_empty() || cb.is_empty() {
        return format!("{a} {c} {b}");
    }
    format!("{}{}", &a[..*rng.pick(&ca)], &b[*rng.pick(&cb)..])
}

fn fuzz(corpus: &[String], rng: &mut Rng) -> Vec<String> {
    (0..FUZZ)
        .map(|_| match rng.below(4) {
            0 => {
                let src = rng.pick(corpus);
                truncated(src, rng)
            }
            1 => printable(rng),
            2 => (0..rng.below(40) + 1).map(|_| *rng.pick(&PIECES)).collect(),
            _ => {
                let (a, b) = (rng.pick(corpus), rng.pick(corpus));
                splice(a, b, rng)
            }
        })
        .collect()
}

fn fixed() -> Vec<String> {
    let nest = |n| format!("{}obj.count{}", "(".repeat(n), ")".repeat(n));
    vec![
        String::new(),
        "obj.count é 2".into(),
        "cwnd // a comment that says µs\n + 1".into(),
        format!("1{}", " + 1".repeat(20_000)),
        nest(80),
        nest(63),
        nest(64),
        "obj.count.p50.x".into(),
        "99999999999999999999".into(),
        "hist_rtt[300]".into(),
        "obj.count * -0.5".into(),
        "obj.count - -0.5".into(),
        format!("{}.0", "9".repeat(400)),
    ]
}

/// Every source of the corpus, in golden-row order.
pub fn sources() -> Vec<String> {
    let mut rng = Rng(SEED);
    let corpus = corpus(&mut rng);
    let fuzzed = fuzz(&corpus, &mut rng);
    corpus.into_iter().chain(fuzzed).chain(fixed()).collect()
}

/// Pass when `actual` equals `golden`. Otherwise write `actual` to
/// `<name>.actual.txt` next to the test binary and fail naming the first
/// row that moved and the source it belongs to.
pub fn assert_matches_golden(name: &str, golden: &str, actual: &str, sources: &[String]) {
    if actual == golden {
        return;
    }
    let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.actual.txt"));
    std::fs::write(&dump, actual).expect("write the actual outcomes next to the test binary");
    let differs = actual.lines().zip(golden.lines()).position(|(a, g)| a != g);
    match differs {
        Some(i) => {
            let src: String = sources[i].chars().take(300).collect();
            panic!(
                "source #{i} {src:?}:\n  golden: {}\n  actual: {}\nfull actual output: {}",
                golden.lines().nth(i).unwrap_or_default(),
                actual.lines().nth(i).unwrap_or_default(),
                dump.display()
            )
        }
        None => panic!("outcome rows differ in number from the golden; see {}", dump.display()),
    }
}
