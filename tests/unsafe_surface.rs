//! The workspace keeps its `unsafe` code in one file: `obs::ring`, the
//! SPSC ring a benchmark probe times. Everything else — the serve
//! runtime's hot-swap cell and window channel included — is built from
//! std primitives. This test fails if the `unsafe` keyword appears in code
//! (comments and literals excluded) in any `.rs` file under `src/` or
//! `crates/*/src` other than the allowed one, and names the file and line.

use std::path::{Path, PathBuf};

/// Files that may contain `unsafe`, relative to the workspace root.
const ALLOWED: [&str; 1] = ["crates/obs/src/ring.rs"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, recursively.
fn rs_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            out.extend(rs_files(&path));
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    out
}

/// The scanned sources: `src/` and every `crates/*/src`.
fn scanned_files() -> Vec<PathBuf> {
    let mut files = rs_files(&root().join("src"));
    for krate in std::fs::read_dir(root().join("crates")).expect("crates/") {
        let src = krate.expect("a directory entry").path().join("src");
        if src.is_dir() {
            files.extend(rs_files(&src));
        }
    }
    files
}

/// 1-based lines of `src` on which the `unsafe` keyword appears in code:
/// line and block comments, string, raw-string and char literals are
/// skipped, and an identifier such as `unsafe_x` is not the keyword.
fn unsafe_lines(src: &str) -> Vec<usize> {
    let b = src.as_bytes();
    let is_ident = |c: u8| c == b'_' || c.is_ascii_alphanumeric();
    let mut hits = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let rest = &b[i..];
        if rest.starts_with(b"//") {
            i += rest.iter().position(|&c| c == b'\n').unwrap_or(rest.len());
        } else if rest.starts_with(b"/*") {
            // block comments nest
            let mut depth = 0;
            while i < b.len() {
                if b[i..].starts_with(b"/*") {
                    depth += 1;
                    i += 2;
                } else if b[i..].starts_with(b"*/") {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
        } else if b[i] == b'"' {
            i += 1;
            while i < b.len() && b[i] != b'"' {
                i += if b[i] == b'\\' { 2 } else { 1 };
            }
            i += 1;
        } else if b[i] == b'\'' {
            // a char literal ('x', '\n', 'α'); otherwise a lifetime or label
            let after = &src[i + 1..];
            let ch_len = after.chars().next().map_or(0, char::len_utf8);
            if after.starts_with('\\') {
                // the closing quote comes after the escaped character
                let close =
                    after.get(2..).and_then(|s| s.find('\'')).map_or(after.len(), |p| p + 2);
                i += 1 + close + 1;
            } else if after[ch_len..].starts_with('\'') {
                i += 1 + ch_len + 1;
            } else {
                i += 1;
            }
        } else if is_ident(b[i]) {
            let start = i;
            while i < b.len() && is_ident(b[i]) {
                i += 1;
            }
            let word = &src[start..i];
            let hashes = b[i..].iter().take_while(|&&c| c == b'#').count();
            if matches!(word, "r" | "br") && b.get(i + hashes) == Some(&b'"') {
                // a raw string: ends at `"` followed by the same hashes
                let close = format!("\"{}", "#".repeat(hashes));
                let body = i + hashes + 1;
                i = src[body..].find(&close).map_or(b.len(), |p| body + p + close.len());
            } else if word == "unsafe" {
                hits.push(src[..start].matches('\n').count() + 1);
            }
        } else {
            i += 1;
        }
    }
    hits
}

#[test]
fn unsafe_appears_only_in_the_allowed_files() {
    let files = scanned_files();
    assert!(files.len() > 50, "the scan found only {} files", files.len());
    let mut offenders = Vec::new();
    for path in &files {
        let rel = path.strip_prefix(root()).expect("under the root").to_string_lossy().into_owned();
        let src = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{rel}: {e}"));
        let lines = unsafe_lines(&src);
        if ALLOWED.contains(&rel.as_str()) {
            assert!(!lines.is_empty(), "{rel} has no `unsafe` left: drop it from ALLOWED");
        } else {
            offenders.extend(lines.iter().map(|l| format!("{rel}:{l}")));
        }
    }
    assert!(offenders.is_empty(), "`unsafe` outside {ALLOWED:?}: {offenders:?}");
}

#[test]
fn the_scan_sees_code_and_skips_comments_and_literals() {
    let cases: [(&str, &[usize]); 10] = [
        ("fn f() { unsafe {} }", &[1]),
        ("\n\nunsafe impl Send for X {}", &[3]),
        ("// unsafe {}", &[]),
        ("/* a /* nested */ unsafe */ fn f() {}", &[]),
        ("/** doc: unsafe */\nunsafe fn f() {}", &[2]),
        (r#"let s = "unsafe \" unsafe";"#, &[]),
        (r###"let s = r#"unsafe "quoted" "#; unsafe {}"###, &[1]),
        ("let unsafe_ = 1; let x = my_unsafe;", &[]),
        ("let q = '\"'; unsafe {}", &[1]),
        ("fn f<'a>(x: &'a u8) -> char { unsafe {}; '\\'' }", &[1]),
    ];
    for (src, want) in cases {
        assert_eq!(unsafe_lines(src), want, "{src}");
    }
}
