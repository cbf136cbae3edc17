//! The five trust-boundary rules plus one thread-hygiene rule.
//!
//! Every rule works on the stripped token stream of [`SourceFile`]s; see
//! DESIGN.md ("Static trust-boundary analysis") for why each rule exists
//! and how it maps onto the paper's two-cloud non-collusion argument.
//!
//! | id | rule |
//! |----|------|
//! | `decrypt-containment` | R1: `PrivateKey` decryption only in key-holder (C2) modules |
//! | `secret-format`       | R2: no printing / `Debug` of secret material in library code |
//! | `panic-free`          | R3: no panic paths in non-test `protocols` + `core` code |
//! | `wire-conformance`    | R4: every request has a unique wire tag, codec arms, handler and encoder |
//! | `rng-discipline`      | R5: engine/exec RNGs only via the derived-seed helpers |
//! | `named-thread`        | R6: library threads spawn only through a named `thread::Builder` |

use crate::lexer::find_words;
use crate::source::{FileKind, SourceFile};

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`panic-free`, ...).
    pub rule: &'static str,
    /// Path relative to the scan root.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

/// All rule ids, for `--list-rules` and suppression validation.
pub const RULE_IDS: &[&str] = &[
    "decrypt-containment",
    "secret-format",
    "panic-free",
    "wire-conformance",
    "rng-discipline",
    "named-thread",
];

// ── R1: decrypt containment ─────────────────────────────────────────────

/// Decryption entry points. `debug_decrypt*` are the key holder's
/// explicitly-labelled test/audit helpers; seeing them outside test code
/// is exactly as bad as a raw `decrypt`.
const DECRYPT_METHODS: &[&str] = &[
    "decrypt",
    "decrypt_direct",
    "try_decrypt_u64",
    "decrypt_u64",
    "debug_decrypt",
    "debug_decrypt_u64",
];

/// Files allowed to decrypt outside `#[cfg(test)]`: the Paillier
/// implementation itself and the two C2-side modules (the local key
/// holder and the transport server that dispatches onto it). Everything
/// else in the workspace plays C1 or the data owner, for whom a decrypt
/// call voids the paper's simulation argument.
const R1_ALLOWED_FILES: &[&str] = &[
    "crates/paillier/src/decrypt.rs",
    "crates/protocols/src/party.rs",
    "crates/protocols/src/transport/server.rs",
];

// ── R2: secret formatting ───────────────────────────────────────────────

const PRINT_MACROS: &[&str] = &["println", "print", "eprintln", "eprint", "dbg"];

/// Identifier names that conventionally bind secret material in this
/// codebase: the private key and the multiplicative/additive blinding
/// values whose secrecy the SM/SMIN simulators rely on.
const SECRET_IDENTS: &[&str] = &[
    "sk",
    "private_key",
    "secret_key",
    "lambda",
    "mu",
    "blinding",
];

/// Types that hold key material and must never derive `Debug`.
const SECRET_TYPES: &[&str] = &["PrivateKey", "Keypair"];

// ── R3: panic-free protocol paths ───────────────────────────────────────

const PANIC_METHODS: &[&str] = &["unwrap", "expect", "expect_err", "unwrap_err"];
const PANIC_MACROS: &[&str] = &[
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "unreachable",
    "todo",
    "unimplemented",
];
/// Functions that start or continue an unwind with an arbitrary payload:
/// a typed panic is still a panic, however a caller may catch it.
const PANIC_FNS: &[&str] = &["resume_unwind", "panic_any"];
const R3_SCOPE: &[&str] = &["crates/protocols/src/", "crates/core/src/"];

// ── R4: wire conformance ────────────────────────────────────────────────

const WIRE_RS: &str = "crates/protocols/src/transport/wire.rs";
const SERVER_RS: &str = "crates/protocols/src/transport/server.rs";
const SESSION_RS: &str = "crates/protocols/src/transport/session.rs";

// ── R5: RNG discipline ──────────────────────────────────────────────────

const RNG_CONSTRUCTORS: &[&str] = &[
    "seed_from_u64",
    "from_entropy",
    "from_seed",
    "from_rng",
    "thread_rng",
];
const R5_SCOPE: &[&str] = &["crates/core/src/exec/", "crates/core/src/engine/"];

// ── R6: named threads ───────────────────────────────────────────────────

/// Thread-spawning methods: `scope.spawn(..)`, `Builder::spawn(..)`,
/// `Builder::spawn_scoped(..)`.
const SPAWN_METHODS: &[&str] = &["spawn", "spawn_scoped"];

/// Runs every rule over `files`; returns surviving findings plus the
/// number suppressed by inline `allow(...)` comments.
pub fn run_all(files: &[SourceFile]) -> (Vec<Finding>, usize) {
    let mut sink = Sink {
        findings: Vec::new(),
        suppressed: 0,
    };
    for file in files {
        rule_decrypt_containment(file, &mut sink);
        rule_secret_format(file, &mut sink);
        rule_panic_free(file, &mut sink);
        rule_rng_discipline(file, &mut sink);
        rule_named_thread(file, &mut sink);
    }
    rule_wire_conformance(files, &mut sink);
    sink.findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    (sink.findings, sink.suppressed)
}

struct Sink {
    findings: Vec<Finding>,
    suppressed: usize,
}

impl Sink {
    fn push(&mut self, file: &SourceFile, rule: &'static str, line: usize, message: String) {
        if file.is_suppressed(rule, line) {
            self.suppressed += 1;
        } else {
            self.findings.push(Finding {
                rule,
                file: file.rel.clone(),
                line,
                message,
            });
        }
    }
}

fn is_ws(b: u8) -> bool {
    b.is_ascii_whitespace()
}

/// Last non-whitespace byte before `pos`.
fn prev_significant(bytes: &[u8], pos: usize) -> Option<u8> {
    bytes[..pos].iter().rev().copied().find(|b| !is_ws(*b))
}

/// First non-whitespace byte at or after `pos`.
fn next_significant(bytes: &[u8], pos: usize) -> Option<u8> {
    bytes[pos..].iter().copied().find(|b| !is_ws(*b))
}

/// Offsets of `name` in *method-call* position: `recv.name(...)`.
fn method_calls<'a>(code: &'a str, name: &'a str) -> impl Iterator<Item = usize> + 'a {
    let bytes = code.as_bytes();
    find_words(code, name).filter(move |&pos| {
        prev_significant(bytes, pos) == Some(b'.')
            && next_significant(bytes, pos + name.len()) == Some(b'(')
    })
}

/// Offsets of `name` in any call position: `recv.name(...)`,
/// `Type::name(...)`, or a bare `name(...)`.
fn any_calls<'a>(code: &'a str, name: &'a str) -> impl Iterator<Item = usize> + 'a {
    let bytes = code.as_bytes();
    find_words(code, name).filter(move |&pos| {
        let callee = next_significant(bytes, pos + name.len()) == Some(b'(');
        let not_definition = !preceded_by_word(code, pos, "fn");
        callee && not_definition
    })
}

/// Offsets of macro invocations `name!`.
fn macro_calls<'a>(code: &'a str, name: &'a str) -> impl Iterator<Item = usize> + 'a {
    let bytes = code.as_bytes();
    find_words(code, name).filter(move |&pos| {
        next_significant(bytes, pos + name.len()) == Some(b'!')
            && prev_significant(bytes, pos) != Some(b'.')
    })
}

/// Is the word at `pos` directly preceded by the keyword `word`?
fn preceded_by_word(code: &str, pos: usize, word: &str) -> bool {
    let head = code[..pos].trim_end();
    head.ends_with(word)
        && head[..head.len() - word.len()]
            .bytes()
            .next_back()
            .is_none_or(|b| !(b.is_ascii_alphanumeric() || b == b'_'))
}

// ── R1 ──────────────────────────────────────────────────────────────────

fn rule_decrypt_containment(file: &SourceFile, sink: &mut Sink) {
    if matches!(file.kind, FileKind::Test | FileKind::Bench) {
        return;
    }
    if R1_ALLOWED_FILES.contains(&file.rel.as_str()) {
        return;
    }
    for method in DECRYPT_METHODS {
        let hits: Vec<usize> = method_calls(&file.code, method)
            .chain(path_calls(&file.code, method))
            .collect();
        for pos in hits {
            if file.in_test(pos) {
                continue;
            }
            let line = file.line_of(pos);
            sink.push(
                file,
                "decrypt-containment",
                line,
                format!(
                    "`{method}` called outside the key-holder (C2) trust boundary; \
                     only {} may decrypt in non-test code",
                    R1_ALLOWED_FILES.join(", ")
                ),
            );
        }
    }
}

/// Offsets of `name` in path-call position: `Type::name(...)`.
fn path_calls<'a>(code: &'a str, name: &'a str) -> impl Iterator<Item = usize> + 'a {
    let bytes = code.as_bytes();
    find_words(code, name).filter(move |&pos| {
        pos >= 2
            && &code[pos - 2..pos] == "::"
            && next_significant(bytes, pos + name.len()) == Some(b'(')
    })
}

// ── R2 ──────────────────────────────────────────────────────────────────

fn rule_secret_format(file: &SourceFile, sink: &mut Sink) {
    if file.kind != FileKind::Library {
        return;
    }
    // (a) Console printing has no place in protocol library code: C1 must
    // not be able to exfiltrate anything it observed, even accidentally.
    for mac in PRINT_MACROS {
        let hits: Vec<usize> = macro_calls(&file.code, mac).collect();
        for pos in hits {
            if file.in_test(pos) {
                continue;
            }
            let line = file.line_of(pos);
            sink.push(
                file,
                "secret-format",
                line,
                format!(
                    "`{mac}!` in library code; route output through QueryProfile/audit or delete"
                ),
            );
        }
    }
    // (b) Interpolating a secret-named binding into any format string.
    for &(start, end) in &file.strings {
        if file.in_test(start) {
            continue;
        }
        let lit = &file.raw[start..end];
        for ident in SECRET_IDENTS {
            for pos in find_words(lit, ident) {
                let bytes = lit.as_bytes();
                let braced = pos > 0
                    && bytes[pos - 1] == b'{'
                    && matches!(bytes.get(pos + ident.len()), Some(b'}') | Some(b':'));
                if braced {
                    let line = file.line_of(start + pos);
                    sink.push(
                        file,
                        "secret-format",
                        line,
                        format!("format string interpolates secret binding `{ident}`"),
                    );
                }
            }
        }
    }
    // (c) `#[derive(Debug)]` on key-material types would let any caller
    // print the private key through an innocent-looking `{:?}`.
    for pos in derive_debug_targets(&file.code) {
        if file.in_test(pos.0) {
            continue;
        }
        if SECRET_TYPES.contains(&pos.1.as_str()) {
            let line = file.line_of(pos.0);
            sink.push(
                file,
                "secret-format",
                line,
                format!(
                    "`{}` derives Debug; key material must not be formattable",
                    pos.1
                ),
            );
        }
    }
}

/// `(offset, type_name)` for every `#[derive(.. Debug ..)] struct/enum T`.
fn derive_debug_targets(code: &str) -> Vec<(usize, String)> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for pos in find_words(code, "derive") {
        let Some(open) = code[pos..].find('(').map(|o| pos + o) else {
            continue;
        };
        let mut depth = 0usize;
        let mut close = open;
        for (i, b) in bytes.iter().enumerate().skip(open) {
            match b {
                b'(' => depth += 1,
                b')' => {
                    depth -= 1;
                    if depth == 0 {
                        close = i;
                        break;
                    }
                }
                _ => {}
            }
        }
        if !crate::lexer::contains_word(&code[open..close], "Debug") {
            continue;
        }
        let rest = &code[close..];
        let item = find_words(rest, "struct")
            .chain(find_words(rest, "enum"))
            .min();
        let Some(item_off) = item else { continue };
        // Step past the `struct`/`enum` keyword itself before looking for
        // the type name.
        let kw_len = if rest[item_off..].starts_with("struct") {
            6
        } else {
            4
        };
        let after = &rest[item_off + kw_len..];
        let name_start = after
            .char_indices()
            .find(|(_, c)| c.is_alphabetic() || *c == '_')
            .map(|(i, _)| i);
        let Some(ns) = name_start else { continue };
        // Only pair the derive with an adjacent item (same attribute
        // block), not a struct hundreds of lines later.
        if item_off > 120 {
            continue;
        }
        let name: String = after[ns..]
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        out.push((pos, name));
    }
    out
}

// ── R3 ──────────────────────────────────────────────────────────────────

fn rule_panic_free(file: &SourceFile, sink: &mut Sink) {
    if file.kind != FileKind::Library || !R3_SCOPE.iter().any(|p| file.rel.starts_with(p)) {
        return;
    }
    for method in PANIC_METHODS {
        let hits: Vec<usize> = method_calls(&file.code, method).collect();
        for pos in hits {
            if file.in_test(pos) {
                continue;
            }
            let line = file.line_of(pos);
            sink.push(
                file,
                "panic-free",
                line,
                format!("`.{method}()` on a protocol path; return a typed error instead"),
            );
        }
    }
    for mac in PANIC_MACROS {
        let hits: Vec<usize> = macro_calls(&file.code, mac).collect();
        for pos in hits {
            if file.in_test(pos) {
                continue;
            }
            let line = file.line_of(pos);
            sink.push(
                file,
                "panic-free",
                line,
                format!("`{mac}!` on a protocol path; return a typed error instead"),
            );
        }
    }
    for func in PANIC_FNS {
        let hits: Vec<usize> = any_calls(&file.code, func).collect();
        for pos in hits {
            if file.in_test(pos) {
                continue;
            }
            let line = file.line_of(pos);
            sink.push(
                file,
                "panic-free",
                line,
                format!("`{func}()` unwinds on a protocol path; return a typed error instead"),
            );
        }
    }
}

// ── R4 ──────────────────────────────────────────────────────────────────

fn rule_wire_conformance(files: &[SourceFile], sink: &mut Sink) {
    let Some(wire) = files.iter().find(|f| f.rel == WIRE_RS) else {
        return; // No wire protocol in this tree (e.g. a rule fixture).
    };
    let server = files.iter().find(|f| f.rel == SERVER_RS);
    let session = files.iter().find(|f| f.rel == SESSION_RS);

    let Some(enum_span) = enum_body(&wire.code, "Request") else {
        sink.push(
            wire,
            "wire-conformance",
            1,
            "could not locate `enum Request` in wire.rs".into(),
        );
        return;
    };
    let variants = enum_variants(&wire.code[enum_span.0..enum_span.1], enum_span.0);
    let Some(impl_span) = inherent_impl(&wire.code, "Request") else {
        sink.push(
            wire,
            "wire-conformance",
            1,
            "could not locate `impl Request` in wire.rs".into(),
        );
        return;
    };
    let impl_code = &wire.code[impl_span.0..impl_span.1];

    // wire_tag: every variant mapped, every tag unique.
    let tags = fn_body(impl_code, "wire_tag")
        .map(|(a, b)| arm_tags(&impl_code[a..b]))
        .unwrap_or_default();
    let mut seen = std::collections::BTreeMap::new();
    for (name, tag) in &tags {
        if let Some(prior) = seen.insert(*tag, name.clone()) {
            sink.push(
                wire,
                "wire-conformance",
                1,
                format!("wire tag {tag} assigned to both `{prior}` and `{name}`"),
            );
        }
    }
    let encode_span = fn_body(impl_code, "encode");
    let decode_span = fn_body(impl_code, "decode");

    for (name, offset) in &variants {
        let line = wire.line_of(*offset);
        let tag = tags.iter().find(|(n, _)| n == name).map(|(_, t)| *t);
        let Some(tag) = tag else {
            sink.push(
                wire,
                "wire-conformance",
                line,
                format!("`Request::{name}` has no `wire_tag` arm"),
            );
            continue;
        };
        if let Some((a, b)) = encode_span {
            if !mentions_variant(&impl_code[a..b], name) {
                sink.push(
                    wire,
                    "wire-conformance",
                    line,
                    format!("`Request::{name}` is never encoded (`fn encode` has no arm)"),
                );
            }
        }
        if let Some((a, b)) = decode_span {
            if !arm_tag_present(&impl_code[a..b], tag) {
                sink.push(
                    wire,
                    "wire-conformance",
                    line,
                    format!("wire tag {tag} (`Request::{name}`) has no `fn decode` arm"),
                );
            }
        }
        if let Some(server) = server {
            if !file_mentions_variant(server, name) {
                sink.push(
                    wire,
                    "wire-conformance",
                    line,
                    format!(
                        "`Request::{name}` has no server-side handler arm in transport/server.rs"
                    ),
                );
            }
        }
        if let Some(session) = session {
            if !file_mentions_variant(session, name) {
                sink.push(
                    wire,
                    "wire-conformance",
                    line,
                    format!("`Request::{name}` has no client encoder in transport/session.rs"),
                );
            }
        }
    }
}

/// Does `file` mention `Request::Name` (word-boundary) outside tests?
fn file_mentions_variant(file: &SourceFile, name: &str) -> bool {
    let needle = format!("Request::{name}");
    let hits: Vec<usize> = find_words(&file.code, &needle).collect();
    hits.into_iter().any(|pos| !file.in_test(pos))
}

fn mentions_variant(code: &str, name: &str) -> bool {
    let needle = format!("Request::{name}");
    let hits: Vec<usize> = find_words(code, &needle).collect();
    !hits.is_empty()
}

/// Body span (inside the braces) of `enum <name> { ... }`.
fn enum_body(code: &str, name: &str) -> Option<(usize, usize)> {
    for pos in find_words(code, "enum") {
        let rest = code[pos + 4..].trim_start();
        if !rest.starts_with(name) {
            continue;
        }
        let open = code[pos..].find('{')? + pos;
        let close = matching_brace(code.as_bytes(), open)?;
        return Some((open + 1, close));
    }
    None
}

/// Span of the inherent `impl <name> { ... }` block body.
fn inherent_impl(code: &str, name: &str) -> Option<(usize, usize)> {
    let bytes = code.as_bytes();
    for pos in find_words(code, "impl") {
        let rest = code[pos + 4..].trim_start();
        let Some(stripped) = rest.strip_prefix(name) else {
            continue;
        };
        // Inherent impl: next significant char after the type is `{`.
        if next_significant(stripped.as_bytes(), 0) != Some(b'{') {
            continue;
        }
        let open = code[pos..].find('{')? + pos;
        let close = matching_brace(bytes, open)?;
        return Some((open + 1, close));
    }
    None
}

/// Body span of `fn <name>(...) ... { ... }` within `code`.
fn fn_body(code: &str, name: &str) -> Option<(usize, usize)> {
    for pos in find_words(code, name) {
        if !preceded_by_word(code, pos, "fn") {
            continue;
        }
        let open = code[pos..].find('{')? + pos;
        let close = matching_brace(code.as_bytes(), open)?;
        return Some((open + 1, close));
    }
    None
}

fn matching_brace(bytes: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Variant names (and byte offsets, relative to the whole file given
/// `base`) of an enum body.
fn enum_variants(body: &str, base: usize) -> Vec<(String, usize)> {
    let bytes = body.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    let n = bytes.len();
    while i < n {
        let b = bytes[i];
        if b.is_ascii_whitespace() || b == b',' {
            i += 1;
        } else if b == b'#' {
            // Skip the attribute's bracket block.
            let mut depth = 0usize;
            while i < n {
                match bytes[i] {
                    b'[' => depth += 1,
                    b']' => {
                        depth -= 1;
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
        } else if b.is_ascii_alphabetic() || b == b'_' {
            let start = i;
            while i < n && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            out.push((body[start..i].to_string(), base + start));
            // Consume the payload up to the next top-level comma.
            let mut depth = 0isize;
            while i < n {
                match bytes[i] {
                    b'{' | b'(' | b'[' => depth += 1,
                    b'}' | b')' | b']' => depth -= 1,
                    b',' if depth == 0 => break,
                    _ => {}
                }
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    out
}

/// `(variant, tag)` pairs from a `match self { Request::X(..) => 3, ... }`
/// body.
fn arm_tags(body: &str) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for pos in find_words(body, "Request") {
        let rest = &body[pos..];
        let Some(after) = rest.strip_prefix("Request::") else {
            continue;
        };
        let name: String = after
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        let Some(arrow) = rest.find("=>") else {
            continue;
        };
        let value = rest[arrow + 2..].trim_start();
        let digits: String = value.chars().take_while(|c| c.is_ascii_digit()).collect();
        if let Ok(tag) = digits.parse::<u64>() {
            out.push((name, tag));
        }
    }
    out
}

/// Is there a `tag =>` arm for this literal tag value?
fn arm_tag_present(body: &str, tag: u64) -> bool {
    let needle = tag.to_string();
    let bytes = body.as_bytes();
    for (pos, _) in body.match_indices(&needle) {
        let before_ok = pos == 0
            || !(bytes[pos - 1].is_ascii_alphanumeric()
                || bytes[pos - 1] == b'_'
                || bytes[pos - 1] == b'.');
        let end = pos + needle.len();
        let after_ok = end >= bytes.len()
            || !(bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_' || bytes[end] == b'.');
        if before_ok && after_ok && body[end..].trim_start().starts_with("=>") {
            return true;
        }
    }
    false
}

// ── R5 ──────────────────────────────────────────────────────────────────

fn rule_rng_discipline(file: &SourceFile, sink: &mut Sink) {
    if file.kind != FileKind::Library || !R5_SCOPE.iter().any(|p| file.rel.starts_with(p)) {
        return;
    }
    for ctor in RNG_CONSTRUCTORS {
        let hits: Vec<usize> = any_calls(&file.code, ctor).collect();
        for pos in hits {
            if file.in_test(pos) {
                continue;
            }
            let line = file.line_of(pos);
            sink.push(
                file,
                "rng-discipline",
                line,
                format!(
                    "`{ctor}` constructs an RNG directly in engine/exec code; use \
                     crate::seed::derive_seeds / derived_rng so run_batch determinism holds"
                ),
            );
        }
    }
}

// ── R6 ──────────────────────────────────────────────────────────────────

/// Every thread the library spawns carries an `sknn-` name, so process
/// introspection (the leak checks, the benchmark's per-role CPU split)
/// can tell the system's threads from the host's. An unnamed spawn — a
/// bare `thread::spawn(..)`, `scope.spawn(..)`, or a `Builder` chain
/// without `.name(..)` — is a finding.
fn rule_named_thread(file: &SourceFile, sink: &mut Sink) {
    if file.kind != FileKind::Library {
        return;
    }
    let code = &file.code;
    let mut hits: Vec<usize> = path_calls(code, "spawn")
        .filter(|&pos| code[..pos - 2].ends_with("thread"))
        .collect();
    for method in SPAWN_METHODS {
        hits.extend(method_calls(code, method).filter(|&pos| !names_thread(code, pos)));
    }
    for pos in hits {
        if file.in_test(pos) {
            continue;
        }
        let line = file.line_of(pos);
        sink.push(
            file,
            "named-thread",
            line,
            "unnamed thread spawn; use std::thread::Builder::new().name(\"sknn-…\")".into(),
        );
    }
}

/// Does the method chain ending at the call at `pos` pass through
/// `.name(..)`? Walks back over balanced brackets to the start of the
/// expression (a statement boundary, `=`, or an enclosing open bracket).
fn names_thread(code: &str, pos: usize) -> bool {
    let bytes = code.as_bytes();
    let mut depth = 0usize;
    let mut start = pos;
    while start > 0 {
        match bytes[start - 1] {
            b')' | b']' => depth += 1,
            b'(' | b'[' if depth == 0 => break,
            b'(' | b'[' => depth -= 1,
            b';' | b'{' | b'}' | b'=' | b',' if depth == 0 => break,
            _ => {}
        }
        start -= 1;
    }
    method_calls(&code[start..pos], "name").next().is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn lint_one(rel: &str, src: &str) -> Vec<Finding> {
        let f = SourceFile::parse(rel.into(), src.into());
        run_all(std::slice::from_ref(&f)).0
    }

    #[test]
    fn unwrap_in_protocol_code_is_flagged_and_test_code_is_not() {
        let src = "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod t { fn g() { y.unwrap(); } }";
        let findings = lint_one("crates/protocols/src/a.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "panic-free");
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn unwrap_or_variants_are_not_flagged() {
        let src = "fn f() { x.unwrap_or(0); y.unwrap_or_else(|| 0); z.unwrap_or_default(); }";
        assert!(lint_one("crates/protocols/src/a.rs", src).is_empty());
    }

    #[test]
    fn typed_unwinds_are_flagged() {
        let src = "use std::panic::resume_unwind;\nfn f() { resume_unwind(p); }\n\
                   fn g() { std::panic::panic_any(e); }";
        let findings = lint_one("crates/protocols/src/a.rs", src);
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![2, 3], "{findings:?}");
        assert!(findings.iter().all(|f| f.rule == "panic-free"));
    }

    #[test]
    fn debug_assert_is_not_flagged() {
        let src = "fn f() { debug_assert!(x); debug_assert_eq!(a, b); }";
        assert!(lint_one("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn decrypt_outside_allowlist_is_flagged() {
        let src = "fn f(sk: &PrivateKey, c: &Ciphertext) { let _ = sk.decrypt(c); }";
        let findings = lint_one("crates/core/src/exec/bad.rs", src);
        assert!(findings.iter().any(|f| f.rule == "decrypt-containment"));
    }

    #[test]
    fn decrypt_in_party_rs_is_allowed() {
        let src = "fn f(sk: &PrivateKey, c: &Ciphertext) { let _ = sk.decrypt(c); }";
        assert!(lint_one("crates/protocols/src/party.rs", src).is_empty());
    }

    #[test]
    fn suppression_comment_is_honored() {
        let src = "fn f() {\n    // sknn-lint: allow(panic-free, \"structurally impossible\")\n    x.unwrap();\n}";
        let f = SourceFile::parse("crates/protocols/src/a.rs".into(), src.into());
        let (findings, suppressed) = run_all(std::slice::from_ref(&f));
        assert!(findings.is_empty());
        assert_eq!(suppressed, 1);
    }

    #[test]
    fn println_in_library_code_is_flagged() {
        let src = "fn f() { println!(\"hi\"); }";
        let findings = lint_one("crates/core/src/a.rs", src);
        assert!(findings.iter().any(|f| f.rule == "secret-format"));
    }

    #[test]
    fn secret_interpolation_is_flagged() {
        let src = "fn f() { let m = format!(\"key {sk:?}\"); }";
        let findings = lint_one("crates/data/src/a.rs", src);
        assert!(findings.iter().any(|f| f.rule == "secret-format"));
    }

    #[test]
    fn unnamed_spawns_are_flagged_but_named_builders_are_not() {
        let bad =
            "fn f() { std::thread::spawn(|| g()); std::thread::scope(|s| { s.spawn(|| g()); }); }";
        let findings = lint_one("crates/store/src/a.rs", bad);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().all(|f| f.rule == "named-thread"));
        let good =
            "fn f() { let h = std::thread::Builder::new()\n.name(n)\n.spawn(move || g(x(1)))?; }";
        assert!(lint_one("crates/store/src/a.rs", good).is_empty());
        let unnamed_builder =
            "fn f() { let _ = Builder::new().stack_size(1).spawn_scoped(s, || g()); }";
        assert_eq!(lint_one("crates/store/src/a.rs", unnamed_builder).len(), 1);
    }

    #[test]
    fn seed_from_u64_in_engine_is_flagged_but_helper_calls_are_not() {
        let bad = "fn f() { let r = StdRng::seed_from_u64(7); }";
        assert_eq!(lint_one("crates/core/src/engine/a.rs", bad).len(), 1);
        let good = "fn f(rng: &mut R) { let r = crate::seed::derived_rng(crate::seed::derive_seeds(rng, 1)[0]); }";
        assert!(lint_one("crates/core/src/engine/a.rs", good).is_empty());
    }
}
