//! Concurrency-discipline lint for the workspace's protocol crates.
//!
//! The dynamic defenses of this repo — the deterministic scheduler
//! (`crates/sched`), the `refresh.rs` crash fences, the `ebr::pool`
//! reclamation poison — only see what flows through the instrumented
//! paths. This crate is the *static* layer: a token-level scanner (no
//! `syn`; comments, strings and char literals are stripped by a small
//! state machine, so the rules see code, not prose) that walks every
//! `.rs` file in the workspace and enforces four rules:
//!
//! 1. **`atomic-shim`** (deny): protocol crates must import atomics from
//!    `sched::atomic`, never `std::sync::atomic` — a direct import is an
//!    atomic step the schedule explorer cannot preempt, i.e. a hole in
//!    every interleaving proof the repo ships. Test-only code (files
//!    under `tests/`/`examples/`/`benches/`, `#[cfg(test)]` modules, and
//!    modules *declared* under `#[cfg(test)]`) is exempt.
//! 2. **`relaxed-ordering`** (deny): every `Relaxed` atomic site in
//!    protocol-crate non-test code must carry an `// ordering:` comment
//!    explaining why relaxed is sound.
//! 3. **`safety-comment`** (deny, workspace-wide): every `unsafe`
//!    occurrence in non-test code must be preceded by a `// SAFETY:`
//!    comment (a `# Safety` doc section counts for `unsafe fn`).
//! 4. **`guard-deref`** (deny): raw-pointer rehydration (`from_raw`, `&*`
//!    casts) in protocol crates with no epoch-guard evidence in the
//!    enclosing function — no `Guard` parameter, no `pin()`, no `// guard:`
//!    annotation documenting the caller's pin obligation (or why none is
//!    needed). A pooled pointer dereferenced outside a pin is the shape a
//!    use-after-recycle must have, so every tree follows links through a
//!    guard-scoped accessor and a hand-written deref has to say who pins.
//!
//! There is no control file and no way to suppress a finding: a site the
//! rules cover passes only with its reason written beside it, so every
//! new site puts a reasoned line into the diff that adds it.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Crates whose every atomic step must be visible to the deterministic
/// scheduler: the LLX/SCX protocol, reclamation, and every tree built on
/// them. `sched` itself is the shim provider; `workloads`/`bench`/`frbst`
/// are harness-tier and may use std atomics directly.
pub const PROTOCOL_CRATES: &[&str] = &[
    "llxscx",
    "vedge",
    "ebr",
    "chromatic",
    "core",
    "fanout",
    "vcas",
    "shard",
];

// ---------------------------------------------------------------------------
// Source scanning: strip comments/strings, keep both channels per line.
// ---------------------------------------------------------------------------

/// One source line, split into its code channel (string/char literals and
/// comments blanked out) and its comment channel (comment text only).
#[derive(Debug, Default, Clone)]
pub struct Line {
    pub code: String,
    pub comment: String,
}

/// A scanned file: per-line channels, per-line test-region flags, and the
/// names of modules declared (`mod x;`) under a `#[cfg(test…)]` attribute
/// (their files are test-tier even though the cfg lives in the parent).
#[derive(Debug)]
pub struct FileScan {
    pub lines: Vec<Line>,
    pub in_test: Vec<bool>,
    pub test_mod_decls: Vec<String>,
}

/// Split source into per-line code/comment channels with a small state
/// machine. Handles nested block comments, string/raw-string/byte-string
/// and char literals, and lifetimes (not char literals). The channels are
/// byte-for-byte positional: blanked regions become spaces, so column
/// arithmetic on `code` still lines up with the original source.
fn split_channels(src: &str) -> Vec<Line> {
    #[derive(PartialEq, Clone, Copy)]
    enum St {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let mut lines = Vec::new();
    let mut cur = Line::default();
    let mut st = St::Code;
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut i = 0;
    while i < n {
        let c = chars[i];
        if c == '\n' {
            if st == St::LineComment {
                st = St::Code;
            }
            lines.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match st {
            St::Code => {
                if c == '/' && i + 1 < n && chars[i + 1] == '/' {
                    st = St::LineComment;
                    cur.code.push_str("  ");
                    i += 2;
                } else if c == '/' && i + 1 < n && chars[i + 1] == '*' {
                    st = St::BlockComment(1);
                    cur.code.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    // Possible raw/byte-string prefix directly before us is
                    // handled below (we only get here for a bare quote).
                    st = St::Str;
                    cur.code.push(' ');
                    i += 1;
                } else if (c == 'r' || c == 'b')
                    && !prev_is_ident(&chars, i)
                    && raw_str_hashes(&chars, i).is_some()
                {
                    let (hashes, consumed) = raw_str_hashes(&chars, i).expect("checked");
                    st = St::RawStr(hashes);
                    for _ in 0..consumed {
                        cur.code.push(' ');
                    }
                    i += consumed as usize;
                } else if c == '\'' {
                    // Char literal vs lifetime: escapes and 'x' forms are
                    // literals; everything else ('a, 'static) is a lifetime.
                    if i + 1 < n && chars[i + 1] == '\\' {
                        st = St::Char;
                        cur.code.push(' ');
                        i += 1;
                    } else if i + 2 < n && chars[i + 2] == '\'' && chars[i + 1] != '\'' {
                        cur.code.push_str("   ");
                        i += 3;
                    } else {
                        cur.code.push(' ');
                        i += 1;
                    }
                } else {
                    cur.code.push(c);
                    i += 1;
                }
            }
            St::LineComment => {
                cur.comment.push(c);
                cur.code.push(' ');
                i += 1;
            }
            St::BlockComment(d) => {
                if c == '*' && i + 1 < n && chars[i + 1] == '/' {
                    st = if d == 1 {
                        St::Code
                    } else {
                        St::BlockComment(d - 1)
                    };
                    cur.code.push_str("  ");
                    i += 2;
                } else if c == '/' && i + 1 < n && chars[i + 1] == '*' {
                    st = St::BlockComment(d + 1);
                    cur.code.push_str("  ");
                    i += 2;
                } else {
                    cur.comment.push(c);
                    cur.code.push(' ');
                    i += 1;
                }
            }
            St::Str => {
                if c == '\\' && i + 1 < n {
                    cur.code.push_str("  ");
                    i += 2;
                } else {
                    if c == '"' {
                        st = St::Code;
                    }
                    cur.code.push(' ');
                    i += 1;
                }
            }
            St::RawStr(hashes) => {
                if c == '"' && closes_raw(&chars, i, hashes) {
                    st = St::Code;
                    for _ in 0..=hashes {
                        cur.code.push(' ');
                    }
                    i += 1 + hashes as usize;
                } else {
                    cur.code.push(' ');
                    i += 1;
                }
            }
            St::Char => {
                if c == '\\' && i + 1 < n {
                    cur.code.push_str("  ");
                    i += 2;
                } else {
                    if c == '\'' {
                        st = St::Code;
                    }
                    cur.code.push(' ');
                    i += 1;
                }
            }
        }
    }
    lines.push(cur);
    lines
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

/// If position `i` starts a raw/byte string opener (`r"`, `r#"`, `br##"`,
/// `b"`), return `(hash_count, chars_consumed_through_quote)`.
fn raw_str_hashes(chars: &[char], i: usize) -> Option<(u32, u32)> {
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
        if j < chars.len() && chars[j] == '"' {
            return Some((0, (j - i + 1) as u32));
        }
        if j >= chars.len() || chars[j] != 'r' {
            return None;
        }
    }
    if chars[j] != 'r' {
        return None;
    }
    j += 1;
    let mut hashes = 0u32;
    while j < chars.len() && chars[j] == '#' {
        hashes += 1;
        j += 1;
    }
    if j < chars.len() && chars[j] == '"' {
        Some((hashes, (j - i + 1) as u32))
    } else {
        None
    }
}

fn closes_raw(chars: &[char], i: usize, hashes: u32) -> bool {
    (0..hashes as usize).all(|k| chars.get(i + 1 + k) == Some(&'#'))
}

/// True if `hay[pos..]` starts with `word` at an identifier boundary on
/// both sides.
fn word_at(hay: &str, pos: usize, word: &str) -> bool {
    if !hay[pos..].starts_with(word) {
        return false;
    }
    let before_ok = pos == 0
        || !hay[..pos]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
    let after = pos + word.len();
    let after_ok = after >= hay.len()
        || !hay[after..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
    before_ok && after_ok
}

/// True if `word` occurs in `hay` at an identifier boundary.
fn contains_word(hay: &str, word: &str) -> bool {
    let mut from = 0;
    while let Some(off) = hay[from..].find(word) {
        let pos = from + off;
        if word_at(hay, pos, word) {
            return true;
        }
        from = pos + word.len();
    }
    false
}

/// Scan one file: split channels, then mark `#[cfg(…test…)]`-gated module
/// bodies as test regions and collect `mod x;` declarations under such
/// attributes (out-of-line test modules like `shard/src/tests.rs`).
pub fn scan_source(src: &str) -> FileScan {
    let lines = split_channels(src);
    let mut in_test = vec![false; lines.len()];
    let mut test_mod_decls = Vec::new();

    // Joined code text with line breaks preserved, so offsets map to lines.
    let mut joined = String::new();
    let mut line_starts = Vec::with_capacity(lines.len());
    for l in &lines {
        line_starts.push(joined.len());
        joined.push_str(&l.code);
        joined.push('\n');
    }
    let line_of = |off: usize| match line_starts.binary_search(&off) {
        Ok(i) => i,
        Err(i) => i - 1,
    };

    let bytes = joined.as_bytes();
    let mut i = 0;
    while let Some(off) = joined[i..].find("#[") {
        let start = i + off;
        let Some((attr, attr_end)) = balanced(&joined, start + 1, b'[', b']') else {
            break;
        };
        i = attr_end;
        let is_test_cfg = attr.contains("cfg")
            && contains_word(&attr, "test")
            && !attr.contains("not(test")
            && !attr.contains("not (test");
        if !is_test_cfg {
            continue;
        }
        // Skip whitespace and any further attributes, then expect
        // `pub? mod NAME` followed by `{` (inline body) or `;` (out-of-line).
        let mut j = attr_end;
        loop {
            while j < bytes.len() && (bytes[j] as char).is_whitespace() {
                j += 1;
            }
            if joined[j..].starts_with("#[") {
                match balanced(&joined, j + 1, b'[', b']') {
                    Some((_, e)) => j = e,
                    None => break,
                }
            } else {
                break;
            }
        }
        if word_at(&joined, j, "pub") {
            j += 3;
            while j < bytes.len() && (bytes[j] as char).is_whitespace() {
                j += 1;
            }
            if bytes.get(j) == Some(&b'(') {
                match balanced(&joined, j, b'(', b')') {
                    Some((_, e)) => j = e,
                    None => continue,
                }
                while j < bytes.len() && (bytes[j] as char).is_whitespace() {
                    j += 1;
                }
            }
        }
        if !word_at(&joined, j, "mod") {
            continue;
        }
        j += 3;
        while j < bytes.len() && (bytes[j] as char).is_whitespace() {
            j += 1;
        }
        let name_start = j;
        while j < bytes.len() && ((bytes[j] as char).is_alphanumeric() || bytes[j] == b'_') {
            j += 1;
        }
        let name = &joined[name_start..j];
        while j < bytes.len() && (bytes[j] as char).is_whitespace() {
            j += 1;
        }
        match bytes.get(j) {
            Some(&b';') => test_mod_decls.push(name.to_string()),
            Some(&b'{') => {
                if let Some((_, body_end)) = balanced(&joined, j, b'{', b'}') {
                    let (a, b) = (line_of(j), line_of(body_end - 1));
                    for flag in in_test.iter_mut().take(b + 1).skip(a) {
                        *flag = true;
                    }
                    i = body_end;
                }
            }
            _ => {}
        }
    }

    FileScan {
        lines,
        in_test,
        test_mod_decls,
    }
}

/// From `text[open..]` (which must start with `open_c`), return the
/// bracketed content and the offset one past the closer.
fn balanced(text: &str, open: usize, open_c: u8, close_c: u8) -> Option<(String, usize)> {
    let bytes = text.as_bytes();
    if bytes.get(open) != Some(&open_c) {
        return None;
    }
    let mut depth = 0usize;
    for (k, &b) in bytes.iter().enumerate().skip(open) {
        if b == open_c {
            depth += 1;
        } else if b == close_c {
            depth -= 1;
            if depth == 0 {
                return Some((text[open + 1..k].to_string(), k + 1));
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Annotation lookup.
// ---------------------------------------------------------------------------

/// True if any marker appears in the comment channel at the site line,
/// within the two lines above (trailing annotations on a statement that
/// wraps across lines), or anywhere in a contiguous comment/attribute
/// block that either ends within those two lines or sits immediately
/// above the statement (doc comments, `# Safety` sections, multi-line
/// `// SAFETY:` paragraphs over a wrapped `let x = unsafe { … }`).
pub fn has_marker(scan: &FileScan, idx: usize, markers: &[&str]) -> bool {
    let check = |i: usize| {
        markers
            .iter()
            .any(|m| comment_has_marker(&scan.lines[i].comment, m))
    };
    // A pure comment/attribute line: nothing but an attribute in the code
    // channel (a trailing comment on a code line does NOT extend a block).
    let comment_only = |i: usize| {
        let t = scan.lines[i].code.trim();
        t.is_empty() || t.starts_with("#[") || t == "]" || t == ")]"
    };
    // Walk a contiguous comment/attribute block upward from `i`,
    // accepting a marker anywhere in it.
    let block_above = |start: usize| {
        let mut i = start;
        loop {
            if !comment_only(i) {
                return false;
            }
            if check(i) {
                return true;
            }
            if i == 0 {
                return false;
            }
            i -= 1;
        }
    };
    if check(idx) {
        return true;
    }
    for back in 1..=2 {
        if idx < back {
            break;
        }
        let i = idx - back;
        if check(i) {
            return true;
        }
        // A comment block ending at this line covers the (wrapped)
        // statement below it even if its marker sits further up.
        if comment_only(i) && block_above(i) {
            return true;
        }
    }
    false
}

/// Marker match inside a comment. A `:`-terminated marker must not be
/// followed by another `:` — this keeps prose mentioning `Ordering::Relaxed`
/// from counting as an `ordering:` annotation.
fn comment_has_marker(comment: &str, marker: &str) -> bool {
    let lower = comment.to_lowercase();
    let m = marker.to_lowercase();
    let mut from = 0;
    while let Some(off) = lower[from..].find(&m) {
        let pos = from + off;
        let after = pos + m.len();
        if !(m.ends_with(':') && lower[after..].starts_with(':')) {
            return true;
        }
        from = after;
    }
    false
}

// ---------------------------------------------------------------------------
// Report.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: usize,
    pub message: String,
}

#[derive(Debug, Default)]
pub struct Report {
    /// Findings (every rule is deny-tier: any one fails the run).
    pub violations: Vec<Finding>,
    /// Files scanned.
    pub files_scanned: usize,
}

// ---------------------------------------------------------------------------
// Per-file rule evaluation.
// ---------------------------------------------------------------------------

struct FileCtx<'a> {
    rel: &'a str,
    is_protocol: bool,
    is_test_tier: bool,
    scan: &'a FileScan,
}

fn check_file(ctx: &FileCtx, rep: &mut Report) {
    rep.files_scanned += 1;
    if !ctx.is_test_tier {
        if ctx.is_protocol {
            rule_atomic_shim(ctx, rep);
            rule_relaxed_ordering(ctx, rep);
            rule_guard_deref(ctx, rep);
        }
        rule_safety_comment(ctx, rep);
    }
}

fn emit(rule: &'static str, ctx: &FileCtx, line: usize, message: &str, rep: &mut Report) {
    rep.violations.push(Finding {
        rule,
        file: ctx.rel.to_string(),
        line: line + 1,
        message: message.to_string(),
    });
}

/// Rule 1: no direct `std::sync::atomic` / `core::sync::atomic` in
/// protocol-crate non-test code.
fn rule_atomic_shim(ctx: &FileCtx, rep: &mut Report) {
    for (i, line) in ctx.scan.lines.iter().enumerate() {
        if ctx.scan.in_test[i] {
            continue;
        }
        if line.code.contains("std::sync::atomic") || line.code.contains("core::sync::atomic") {
            emit(
                "atomic-shim",
                ctx,
                i,
                "direct std atomic in a protocol crate: import from `sched::atomic` \
                 so the deterministic scheduler sees this step",
                rep,
            );
        }
    }
}

/// Rule 2: every `Relaxed` site needs an `// ordering:` annotation.
fn rule_relaxed_ordering(ctx: &FileCtx, rep: &mut Report) {
    for (i, line) in ctx.scan.lines.iter().enumerate() {
        if ctx.scan.in_test[i] || !contains_word(&line.code, "Relaxed") {
            continue;
        }
        if !has_marker(ctx.scan, i, &["ordering:"]) {
            emit(
                "relaxed-ordering",
                ctx,
                i,
                "`Relaxed` atomic access without an `// ordering:` annotation \
                 explaining why relaxed is sound here",
                rep,
            );
        }
    }
}

/// Rule 3: every `unsafe` site needs a `SAFETY:` comment or a `# Safety`
/// doc section covering it.
fn rule_safety_comment(ctx: &FileCtx, rep: &mut Report) {
    for (i, line) in ctx.scan.lines.iter().enumerate() {
        if ctx.scan.in_test[i] || !contains_word(&line.code, "unsafe") {
            continue;
        }
        if !has_marker(ctx.scan, i, &["SAFETY:", "# Safety"]) {
            emit(
                "safety-comment",
                ctx,
                i,
                "`unsafe` without a `// SAFETY:` comment (or `# Safety` doc \
                 section) saying why it is sound",
                rep,
            );
        }
    }
}

/// Rule 4: raw-pointer rehydration with no epoch-guard evidence in the
/// enclosing function (a `fn from_raw` header defines one, it is not a
/// site).
fn rule_guard_deref(ctx: &FileCtx, rep: &mut Report) {
    let deref_here = |code: &str| {
        (code.contains("from_raw") && !code.contains("fn from_raw"))
            || code.contains("&*")
            || code.contains("&mut *")
    };
    for (i, line) in ctx.scan.lines.iter().enumerate() {
        if ctx.scan.in_test[i] || !deref_here(&line.code) {
            continue;
        }
        // Find the enclosing function header, scanning at most 200 lines up.
        let mut fn_line = None;
        let lo = i.saturating_sub(200);
        for j in (lo..=i).rev() {
            if contains_word(&ctx.scan.lines[j].code, "fn") {
                fn_line = Some(j);
                break;
            }
        }
        let Some(f) = fn_line else { continue };
        let evidence = (f..=i).any(|j| {
            let l = &ctx.scan.lines[j];
            l.code.contains("Guard")
                || contains_word(&l.code, "guard")
                || l.code.contains("pin(")
                || comment_has_marker(&l.comment, "guard:")
        });
        if evidence {
            continue;
        }
        emit(
            "guard-deref",
            ctx,
            i,
            "raw-pointer rehydration with no guard-pin evidence in the \
             enclosing fn; if the caller pins, document it with `// guard:`",
            rep,
        );
    }
}

// ---------------------------------------------------------------------------
// Workspace walk.
// ---------------------------------------------------------------------------

fn collect_rs_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            let name = e.file_name();
            let name = name.to_string_lossy();
            if p.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                stack.push(p);
            } else if name.ends_with(".rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

fn rel_path(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .to_string_lossy()
        .replace('\\', "/")
}

/// True for a file under `crates/<name>/` with `<name>` in
/// [`PROTOCOL_CRATES`].
fn path_is_protocol(rel: &str) -> bool {
    let mut parts = rel.split('/');
    parts.next() == Some("crates") && parts.next().is_some_and(|c| PROTOCOL_CRATES.contains(&c))
}

fn path_is_test_tier(rel: &str) -> bool {
    rel.split('/')
        .any(|c| c == "tests" || c == "examples" || c == "benches" || c == "fixtures")
}

/// Run every rule over the workspace rooted at `root`. A root holding no
/// protocol-crate source is an error, not a clean run: it is not a
/// checkout of this workspace, and linting it would prove nothing.
pub fn run(root: &Path) -> Result<Report, String> {
    let files = collect_rs_files(root);

    // Pass 1: scan everything, collecting out-of-line test module files.
    let mut scans: Vec<(PathBuf, String, FileScan)> = Vec::new();
    let mut test_files: BTreeSet<PathBuf> = BTreeSet::new();
    for p in files {
        let Ok(src) = fs::read_to_string(&p) else {
            continue;
        };
        let scan = scan_source(&src);
        let dir = p.parent().unwrap_or(Path::new("")).to_path_buf();
        for m in &scan.test_mod_decls {
            test_files.insert(dir.join(format!("{m}.rs")));
            test_files.insert(dir.join(m).join("mod.rs"));
        }
        let rel = rel_path(root, &p);
        scans.push((p, rel, scan));
    }

    if !scans.iter().any(|(_, rel, _)| path_is_protocol(rel)) {
        return Err(format!(
            "no protocol-crate source under {}: not a checkout of this workspace",
            root.display()
        ));
    }

    // Pass 2: evaluate rules.
    let mut rep = Report::default();
    for (p, rel, scan) in &scans {
        let ctx = FileCtx {
            rel,
            is_protocol: path_is_protocol(rel),
            is_test_tier: path_is_test_tier(rel) || test_files.contains(p),
            scan,
        };
        check_file(&ctx, &mut rep);
    }
    Ok(rep)
}
