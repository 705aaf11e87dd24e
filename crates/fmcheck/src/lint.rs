//! The fmlint rule engine: repo-specific invariants clippy cannot
//! express, checked at token level over every workspace `.rs` file.
//!
//! # The lints
//!
//! | Lint | Profile | What it enforces |
//! |------|---------|------------------|
//! | `panic-in-lib` | lib | No `unwrap()` / `expect(…)` / `panic!` / `todo!` / `unimplemented!` in non-test library code. The workspace has typed errors (`ConfigError`, `UnsupportedConfig`, `SimError`) — use them, or document a true invariant and suppress. |
//! | `partial-cmp-unwrap` | lib | No `partial_cmp(…).unwrap()` / `.expect(…)`: NaN makes it panic at the worst moment. Use `f64::total_cmp`, which the search stack standardizes on. |
//! | `hash-iteration` | lib, deterministic paths | No `HashMap`/`HashSet` in the deterministic search/report paths ([`DETERMINISTIC_PATHS`]): iteration order varies per process and breaks bit-identical artifacts. Use `BTreeMap`/`BTreeSet` or a sorted `Vec`. |
//! | `wall-clock` | lib | No `Instant::now` / `SystemTime::now` / `env::var*` outside the profiling counters ([`WALL_CLOCK_ALLOWED`]), bench, bin, example and test layers: results must be pure functions of inputs. |
//! | `crate-attrs` | lib roots | Every workspace crate root carries `#![deny(missing_docs)]` and `#![forbid(unsafe_code)]`. |
//! | `vendor-safety` | vendor | Any `unsafe` token in `vendor/` must have a `// SAFETY:` comment within the three preceding lines. (The PR-8 audit found **zero** unsafe blocks in `vendor/`; this lint plus `#![forbid(unsafe_code)]` in `vendor/rayon` keep it that way.) |
//! | `malformed-suppression` | all | An `fmlint::allow` marker that names an unknown lint or omits its `reason = "…"` is itself a finding. |
//! | `unused-suppression` | all | A well-formed marker that suppressed nothing is stale and must be removed. |
//!
//! # Suppressions
//!
//! ```text
//! // fmlint::allow(panic-in-lib, reason = "enumerate_placements yields at least the trivial placement")
//! let winner = placements.get(best).expect("placement exists");
//! ```
//!
//! A standalone marker suppresses the named lint on the *next* source
//! line; a trailing marker (after code on the same line) suppresses its
//! *own* line. The `reason` is mandatory: a suppression is an argument,
//! not an opt-out. Only plain `//` comments are markers — doc comments
//! (`///`, `//!`) merely *describe* the syntax, as this one does.
//!
//! # Profiles
//!
//! Files are classified by path ([`classify`]): `vendor/**` gets the
//! relaxed vendor profile (only `vendor-safety`); `tests/`, `benches/`,
//! `examples/`, `src/bin/`, `build.rs` and the standalone `fmbench/`
//! benchmark get the test profile (no findings — panics are how tests
//! fail); everything else is library code. Inside library files,
//! `#[cfg(test)]` regions and `#[test]` functions are tracked by brace
//! depth and treated as test code.

use crate::lexer::{lex, Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Registry of every lint fmlint knows, with a one-line description
/// (`fmlint --list-lints` prints this table; the module docs elaborate).
pub const LINTS: &[(&str, &str)] = &[
    (
        "panic-in-lib",
        "no unwrap()/expect()/panic!/todo!/unimplemented! in non-test library code (use the typed errors)",
    ),
    (
        "partial-cmp-unwrap",
        "no NaN-unsafe partial_cmp().unwrap(); use f64::total_cmp",
    ),
    (
        "hash-iteration",
        "no HashMap/HashSet in deterministic search/report paths; use BTreeMap/BTreeSet or a sorted Vec",
    ),
    (
        "wall-clock",
        "no Instant::now/SystemTime::now/env reads outside the profiling, bench and CLI layers",
    ),
    (
        "crate-attrs",
        "workspace crate roots must carry #![deny(missing_docs)] and #![forbid(unsafe_code)]",
    ),
    (
        "vendor-safety",
        "every unsafe block in vendor/ needs a // SAFETY: comment within 3 lines above",
    ),
    (
        "malformed-suppression",
        "fmlint::allow markers must name a known lint and give a reason",
    ),
    (
        "unused-suppression",
        "fmlint::allow markers that suppress nothing must be removed",
    ),
];

/// True iff `name` is a registered lint.
pub fn known_lint(name: &str) -> bool {
    LINTS.iter().any(|(n, _)| *n == name)
}

/// Library files under these path prefixes are *deterministic paths*:
/// their output feeds bit-identical artifacts (`out/*.json`, plan
/// rankings, report tables), so iteration-order nondeterminism is a
/// correctness bug, not a style issue. Paths are repo-relative with
/// forward slashes; a trailing `/` matches a directory prefix.
pub const DETERMINISTIC_PATHS: &[&str] = &[
    "crates/perfmodel/src/planner/",
    "crates/perfmodel/src/search.rs",
    "crates/report/src/",
    "crates/bench/src/",
    "crates/trainsim/src/report.rs",
    // fmcheck eats its own cooking: lint output and baselines are
    // artifacts too.
    "crates/fmcheck/src/",
];

/// Library files allowed to read wall clocks / the environment: the
/// search_stats profiling counters (timing is their purpose) and the
/// bench harness layer. Bin/example/test/vendor files are exempt via
/// their profile instead.
pub const WALL_CLOCK_ALLOWED: &[&str] = &[
    "crates/perfmodel/src/partition/cache.rs",
    "crates/bench/src/",
];

/// How a file is linted, derived from its repo-relative path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Full strictness: non-test library code.
    Lib,
    /// Tests, benches, examples, binaries, build scripts: no findings
    /// (panicking is how tests fail; binaries own the process).
    Test,
    /// `vendor/**`: relaxed shim profile — only `vendor-safety`.
    Vendor,
}

/// Classifies a repo-relative, `/`-separated path into its [`Profile`].
pub fn classify(rel: &str) -> Profile {
    if rel.starts_with("vendor/") {
        return Profile::Vendor;
    }
    let test_markers = ["/tests/", "/benches/", "/examples/", "/bin/"];
    // `fmbench/` is the standalone benchmark binary (its own package,
    // outside the workspace): the bench layer, like `benches/`.
    if test_markers.iter().any(|m| rel.contains(m))
        || rel.starts_with("tests/")
        || rel.starts_with("examples/")
        || rel.starts_with("fmbench/")
        || rel.ends_with("build.rs")
    {
        return Profile::Test;
    }
    Profile::Lib
}

/// True iff `rel` is a crate root the `crate-attrs` lint applies to:
/// `src/lib.rs` of the facade or of any `crates/*` member.
pub fn is_workspace_crate_root(rel: &str) -> bool {
    rel == "src/lib.rs" || (rel.starts_with("crates/") && rel.ends_with("/src/lib.rs"))
}

/// One lint finding at a source position.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Repo-relative, `/`-separated path (stable across machines, so
    /// baselines and CI logs agree).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Registered lint name (see [`LINTS`]).
    pub lint: &'static str,
    /// Human-readable explanation with the offending construct.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// A parsed `// fmlint::allow(<lint>, reason = "…")` marker.
struct Suppression {
    lint: String,
    /// Line whose findings this marker suppresses.
    target_line: u32,
    /// Line the marker itself is on (for unused-suppression reports).
    marker_line: u32,
    used: bool,
}

/// Lints one file. `rel` must be repo-relative with forward slashes;
/// `src` is the file contents. Pure function — the unit tests feed it
/// synthetic sources.
pub fn lint_source(rel: &str, src: &str) -> Vec<Finding> {
    let profile = classify(rel);
    let tokens = lex(src);
    let mut findings = Vec::new();

    // Lines that carry at least one non-comment token: a standalone
    // suppression comment applies to the first such line after it.
    let source_lines: BTreeSet<u32> = tokens
        .iter()
        .filter(|t| t.kind != TokenKind::Comment)
        .map(|t| t.line)
        .collect();

    let mut suppressions = collect_suppressions(rel, &tokens, &source_lines, &mut findings);

    match profile {
        Profile::Vendor => vendor_safety(rel, &tokens, &mut findings),
        Profile::Test => {}
        Profile::Lib => {
            lib_lints(rel, &tokens, &mut findings);
            if is_workspace_crate_root(rel) {
                crate_attrs(rel, &tokens, &mut findings);
            }
        }
    }

    // Apply suppressions, then report the stale ones.
    findings.retain(|f| {
        if f.lint == "malformed-suppression" || f.lint == "unused-suppression" {
            return true;
        }
        for s in suppressions.iter_mut() {
            if s.lint == f.lint && s.target_line == f.line {
                s.used = true;
                return false;
            }
        }
        true
    });
    for s in &suppressions {
        if !s.used {
            findings.push(Finding {
                file: rel.to_string(),
                line: s.marker_line,
                lint: "unused-suppression",
                message: format!(
                    "fmlint::allow({}) suppresses nothing on line {}; remove it",
                    s.lint, s.target_line
                ),
            });
        }
    }
    findings.sort();
    findings
}

/// Parses every `fmlint::allow` marker out of the comment tokens,
/// reporting malformed ones as findings.
fn collect_suppressions(
    rel: &str,
    tokens: &[Token],
    source_lines: &BTreeSet<u32>,
    findings: &mut Vec<Finding>,
) -> Vec<Suppression> {
    let mut out = Vec::new();
    for t in tokens {
        if t.kind != TokenKind::Comment || !t.text.contains("fmlint::allow") {
            continue;
        }
        // Doc comments *describe* markers (this module's own docs do);
        // only plain comments *are* markers.
        let is_doc = ["///", "//!", "/**", "/*!"]
            .iter()
            .any(|p| t.text.starts_with(p));
        if is_doc {
            continue;
        }
        let Some((lint, has_reason)) = parse_allow(&t.text) else {
            findings.push(Finding {
                file: rel.to_string(),
                line: t.line,
                lint: "malformed-suppression",
                message: "cannot parse fmlint::allow marker; expected \
                          fmlint::allow(<lint>, reason = \"…\")"
                    .to_string(),
            });
            continue;
        };
        if !known_lint(&lint) {
            findings.push(Finding {
                file: rel.to_string(),
                line: t.line,
                lint: "malformed-suppression",
                message: format!("unknown lint {lint:?} in fmlint::allow marker"),
            });
            continue;
        }
        if !has_reason {
            findings.push(Finding {
                file: rel.to_string(),
                line: t.line,
                lint: "malformed-suppression",
                message: format!(
                    "fmlint::allow({lint}) is missing its reason = \"…\"; \
                     a suppression is an argument, not an opt-out"
                ),
            });
            continue;
        }
        let target_line = if t.first_on_line {
            // Standalone marker: applies to the next source line.
            source_lines
                .range(t.line + 1..)
                .next()
                .copied()
                .unwrap_or(t.line)
        } else {
            t.line
        };
        out.push(Suppression {
            lint,
            target_line,
            marker_line: t.line,
            used: false,
        });
    }
    out
}

/// Extracts `(lint_name, has_reason)` from a marker comment, or `None`
/// when the parentheses don't parse.
fn parse_allow(comment: &str) -> Option<(String, bool)> {
    let after = comment.split("fmlint::allow").nth(1)?;
    let open = after.find('(')?;
    let close = after.find(')')?;
    if close < open {
        return None;
    }
    let inner = &after[open + 1..close];
    let mut parts = inner.splitn(2, ',');
    let lint = parts.next()?.trim().to_string();
    if lint.is_empty() {
        return None;
    }
    let has_reason = parts
        .next()
        .is_some_and(|rest| rest.contains("reason") && rest.contains('"'));
    Some((lint, has_reason))
}

/// Is token `i` the start of `a::b` (with `a` at `i`)?
fn path_call(tokens: &[&Token], i: usize, a: &str, b: &str) -> bool {
    tokens[i].text == a
        && matches!(tokens.get(i + 1), Some(t) if t.text == ":")
        && matches!(tokens.get(i + 2), Some(t) if t.text == ":")
        && matches!(tokens.get(i + 3), Some(t) if t.text == b)
}

/// Token-level brace/test-region walker running the library-profile
/// lints.
fn lib_lints(rel: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| t.kind != TokenKind::Comment)
        .collect();
    let deterministic = DETERMINISTIC_PATHS
        .iter()
        .any(|p| rel.starts_with(p) || rel == p.trim_end_matches('/'));
    let clock_allowed = WALL_CLOCK_ALLOWED
        .iter()
        .any(|p| rel.starts_with(p) || rel == p.trim_end_matches('/'));

    let mut depth: u32 = 0;
    // Brace depth at which the innermost `#[cfg(test)]` region closes
    // (None = not inside one). Regions never interleave partially: they
    // are items, so tracking the outermost is enough.
    let mut test_region_end: Option<u32> = None;
    // A `#[cfg(test)]` / `#[test]` attribute was seen and its item's
    // opening brace not yet reached.
    let mut pending_test_attr = false;

    let mut i = 0;
    while i < code.len() {
        let t = code[i];
        match t.text.as_str() {
            "{" => {
                if pending_test_attr && test_region_end.is_none() {
                    test_region_end = Some(depth);
                    pending_test_attr = false;
                }
                depth += 1;
            }
            "}" => {
                depth = depth.saturating_sub(1);
                if test_region_end == Some(depth) {
                    test_region_end = None;
                }
            }
            // `#[cfg(test)] use …;` — attribute consumed by a
            // brace-less item.
            ";" if test_region_end.is_none() => {
                pending_test_attr = false;
            }
            "#" => {
                // Scan the attribute group for `test` (covers both
                // `#[cfg(test)]` and `#[test]`; `#[cfg(not(test))]` is
                // rejected by checking for `not`).
                if let Some((end, is_test)) = scan_attr(&code, i) {
                    if is_test && test_region_end.is_none() {
                        pending_test_attr = true;
                    }
                    i = end;
                    continue;
                }
            }
            _ => {}
        }

        let in_test = test_region_end.is_some();
        if !in_test && t.kind == TokenKind::Ident {
            panic_in_lib(rel, &code, i, findings);
            partial_cmp_unwrap(rel, &code, i, findings);
            if deterministic && (t.text == "HashMap" || t.text == "HashSet") {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: t.line,
                    lint: "hash-iteration",
                    message: format!(
                        "{} in a deterministic search/report path: iteration order is \
                         per-process random and breaks bit-identical artifacts; use \
                         BTreeMap/BTreeSet or a sorted Vec",
                        t.text
                    ),
                });
            }
            if !clock_allowed {
                wall_clock(rel, &code, i, findings);
            }
        }
        i += 1;
    }
}

/// Scans an attribute starting at `#` (position `i` in `code`); returns
/// `(index after the closing bracket, attribute mentions test)`.
fn scan_attr(code: &[&Token], i: usize) -> Option<(usize, bool)> {
    let mut j = i + 1;
    if code.get(j).is_some_and(|t| t.text == "!") {
        j += 1; // inner attribute `#![…]`
    }
    if code.get(j).is_none_or(|t| t.text != "[") {
        return None;
    }
    let mut depth = 0u32;
    let mut is_test = false;
    let mut negated = false;
    for (k, t) in code.iter().enumerate().skip(j) {
        match t.text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return Some((k + 1, is_test && !negated));
                }
            }
            "test" => is_test = true,
            "not" => negated = true,
            _ => {}
        }
    }
    None
}

/// `panic-in-lib`: `.unwrap()`, `.expect(`, `panic!`, `todo!`,
/// `unimplemented!`. (`unreachable!` is deliberately permitted: it marks
/// statically-impossible branches, which a typed error would only
/// obscure.)
fn panic_in_lib(rel: &str, code: &[&Token], i: usize, findings: &mut Vec<Finding>) {
    let t = code[i];
    let dotted = i > 0 && code[i - 1].text == ".";
    let hit = match t.text.as_str() {
        "unwrap" | "expect" if dotted => {
            matches!(code.get(i + 1), Some(n) if n.text == "(")
        }
        "panic" | "todo" | "unimplemented" => {
            matches!(code.get(i + 1), Some(n) if n.text == "!")
        }
        _ => false,
    };
    if hit {
        findings.push(Finding {
            file: rel.to_string(),
            line: t.line,
            lint: "panic-in-lib",
            message: format!(
                "`{}` in library code: return a typed error (ConfigError / \
                 UnsupportedConfig / SimError), or document the invariant and \
                 suppress with fmlint::allow",
                if matches!(t.text.as_str(), "unwrap" | "expect") {
                    format!(".{}(…)", t.text)
                } else {
                    format!("{}!", t.text)
                }
            ),
        });
    }
}

/// `partial-cmp-unwrap`: `partial_cmp(…)` whose balanced call
/// parentheses are immediately followed by `.unwrap(` / `.expect(`.
fn partial_cmp_unwrap(rel: &str, code: &[&Token], i: usize, findings: &mut Vec<Finding>) {
    if code[i].text != "partial_cmp" {
        return;
    }
    if code.get(i + 1).is_none_or(|t| t.text != "(") {
        return;
    }
    let mut depth = 0u32;
    let mut j = i + 1;
    while j < code.len() {
        match code[j].text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        j += 1;
    }
    let chained_panic = code.get(j + 1).is_some_and(|t| t.text == ".")
        && code
            .get(j + 2)
            .is_some_and(|t| t.text == "unwrap" || t.text == "expect");
    if chained_panic {
        findings.push(Finding {
            file: rel.to_string(),
            line: code[i].line,
            lint: "partial-cmp-unwrap",
            message: "partial_cmp().unwrap() panics on NaN; use f64::total_cmp \
                      (see perfmodel::ord for the search stack's helpers)"
                .to_string(),
        });
    }
}

/// `wall-clock`: `Instant::now` / `SystemTime::now` / `env::var{,s,_os}`.
fn wall_clock(rel: &str, code: &[&Token], i: usize, findings: &mut Vec<Finding>) {
    let hit = path_call(code, i, "Instant", "now")
        || path_call(code, i, "SystemTime", "now")
        || ["var", "vars", "var_os"]
            .iter()
            .any(|f| path_call(code, i, "env", f));
    if hit {
        findings.push(Finding {
            file: rel.to_string(),
            line: code[i].line,
            lint: "wall-clock",
            message: format!(
                "`{}::{}` in library code: model results must be pure functions \
                 of their inputs; timing/config reads belong in search_stats, \
                 bench or the CLI layer",
                code[i].text,
                code[i + 3].text
            ),
        });
    }
}

/// `crate-attrs`: the crate root must carry both hardening attributes.
fn crate_attrs(rel: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    for (outer, inner) in [("deny", "missing_docs"), ("forbid", "unsafe_code")] {
        if !has_inner_attr(tokens, outer, inner) {
            findings.push(Finding {
                file: rel.to_string(),
                line: 1,
                lint: "crate-attrs",
                message: format!(
                    "crate root is missing `#![{outer}({inner})]` (workspace hardening \
                     baseline; see crates/fmcheck docs)"
                ),
            });
        }
    }
}

/// Exact token-sequence check for `#![outer(inner)]`.
fn has_inner_attr(tokens: &[Token], outer: &str, inner: &str) -> bool {
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| t.kind != TokenKind::Comment)
        .collect();
    code.windows(7).any(|w| {
        w[0].text == "#"
            && w[1].text == "!"
            && w[2].text == "["
            && w[3].text == outer
            && w[4].text == "("
            && w[5].text == inner
            && w[6].text == ")"
    })
}

/// `vendor-safety`: every `unsafe` token needs a `// SAFETY:` comment at
/// most [`SAFETY_COMMENT_WINDOW`] lines above it.
const SAFETY_COMMENT_WINDOW: u32 = 3;

fn vendor_safety(rel: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    let safety_lines: BTreeSet<u32> = tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Comment && t.text.contains("SAFETY:"))
        .map(|t| t.line)
        .collect();
    for t in tokens {
        if t.kind == TokenKind::Ident && t.text == "unsafe" {
            let lo = t.line.saturating_sub(SAFETY_COMMENT_WINDOW);
            let documented = safety_lines.range(lo..=t.line).next().is_some();
            if !documented {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: t.line,
                    lint: "vendor-safety",
                    message: "unsafe without a `// SAFETY:` comment within 3 lines; \
                              document the invariant the block relies on"
                        .to_string(),
                });
            }
        }
    }
}

/// Aggregates findings into the `(lint, file) -> count` map the baseline
/// ratchet compares against.
pub fn count_by_lint_and_file(findings: &[Finding]) -> BTreeMap<(String, String), u64> {
    let mut counts = BTreeMap::new();
    for f in findings {
        *counts
            .entry((f.lint.to_string(), f.file.clone()))
            .or_insert(0) += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lints_of(rel: &str, src: &str) -> Vec<(&'static str, u32)> {
        lint_source(rel, src)
            .into_iter()
            .map(|f| (f.lint, f.line))
            .collect()
    }

    const LIB: &str = "crates/demo/src/thing.rs";

    #[test]
    fn unwrap_in_lib_is_flagged() {
        let found = lints_of(LIB, "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }");
        assert_eq!(found, vec![("panic-in-lib", 1)]);
    }

    #[test]
    fn panic_macros_are_flagged() {
        let src = "fn a() { panic!(\"boom\") }\nfn b() { todo!() }\nfn c() { unimplemented!() }";
        let found = lints_of(LIB, src);
        assert_eq!(
            found,
            vec![
                ("panic-in-lib", 1),
                ("panic-in-lib", 2),
                ("panic-in-lib", 3)
            ]
        );
    }

    #[test]
    fn unreachable_is_permitted() {
        assert!(lints_of(LIB, "fn f() { unreachable!(\"statically impossible\") }").is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "\
fn lib() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { None::<u32>.unwrap(); panic!(\"fine in tests\"); }
}";
        assert!(lints_of(LIB, src).is_empty());
        // Test-profile files are exempt wholesale.
        assert!(lints_of("crates/demo/tests/it.rs", "fn f() { x.unwrap() }").is_empty());
        assert!(lints_of("crates/demo/examples/e.rs", "fn f() { x.unwrap() }").is_empty());
        assert!(lints_of("crates/demo/src/bin/cli.rs", "fn f() { x.unwrap() }").is_empty());
        assert!(lints_of("fmbench/src/main.rs", "fn f() { Instant::now() }").is_empty());
    }

    #[test]
    fn code_after_test_module_is_linted_again() {
        let src = "\
#[cfg(test)]
mod tests { fn t() { x.unwrap(); } }
pub fn after() { y.unwrap(); }";
        assert_eq!(lints_of(LIB, src), vec![("panic-in-lib", 3)]);
    }

    #[test]
    fn cfg_not_test_is_still_linted() {
        let src = "#[cfg(not(test))]\nmod m { fn f() { x.unwrap(); } }";
        assert_eq!(lints_of(LIB, src), vec![("panic-in-lib", 2)]);
    }

    #[test]
    fn partial_cmp_unwrap_is_flagged_total_cmp_is_not() {
        let src = "fn f(a: f64, b: f64) { let _ = a.partial_cmp(&b).unwrap(); }";
        let found = lint_source(LIB, src);
        // Both the chained unwrap and the partial_cmp pattern fire.
        assert!(found.iter().any(|f| f.lint == "partial-cmp-unwrap"));
        let ok = "fn f(a: f64, b: f64) { let _ = a.total_cmp(&b); }";
        assert!(lint_source(LIB, ok).is_empty());
        // partial_cmp without a chained panic is allowed (e.g. an
        // explicit None branch).
        let handled = "fn f(a: f64, b: f64) -> bool { a.partial_cmp(&b).is_some() }";
        assert!(lint_source(LIB, handled).is_empty());
    }

    #[test]
    fn hash_iteration_only_in_deterministic_paths() {
        let src = "use std::collections::HashMap;\npub fn f() { let m: HashMap<u32, u32> = HashMap::new(); }";
        let det = lint_source("crates/report/src/table.rs", src);
        assert!(det.iter().all(|f| f.lint == "hash-iteration"));
        assert_eq!(det.len(), 3, "{det:?}"); // use + type + constructor
        assert!(lint_source("crates/demo/src/other.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_is_flagged_outside_allowlist() {
        let src = "fn f() { let _ = std::time::Instant::now(); }";
        assert_eq!(lints_of(LIB, src), vec![("wall-clock", 1)]);
        assert!(lint_source("crates/perfmodel/src/partition/cache.rs", src).is_empty());
        assert!(lint_source("crates/bench/src/harness.rs", src).is_empty());
        let env = "fn f() { let _ = std::env::var(\"X\"); }";
        assert_eq!(lints_of(LIB, env), vec![("wall-clock", 1)]);
    }

    #[test]
    fn crate_attrs_required_on_roots() {
        let bare = "//! Docs.\npub fn f() {}";
        let found = lints_of("crates/demo/src/lib.rs", bare);
        assert_eq!(found, vec![("crate-attrs", 1), ("crate-attrs", 1)]);
        let hardened = "//! Docs.\n#![deny(missing_docs)]\n#![forbid(unsafe_code)]\npub fn f() {}";
        assert!(lints_of("crates/demo/src/lib.rs", hardened).is_empty());
        // Non-root files don't need the attributes.
        assert!(lints_of(LIB, bare).is_empty());
        // The facade root is a crate root too.
        assert_eq!(lints_of("src/lib.rs", bare).len(), 2);
    }

    #[test]
    fn vendor_safety_requires_safety_comment() {
        let undocumented = "pub fn f() { unsafe { core::hint::unreachable_unchecked() } }";
        let found = lints_of("vendor/demo/src/lib.rs", undocumented);
        assert_eq!(found, vec![("vendor-safety", 1)]);
        let documented =
            "// SAFETY: caller guarantees the index is in bounds.\npub fn f() { unsafe { g() } }";
        assert!(lints_of("vendor/demo/src/lib.rs", documented).is_empty());
        // Vendor profile is otherwise relaxed: unwraps are fine.
        assert!(lints_of("vendor/demo/src/lib.rs", "fn f() { x.unwrap() }").is_empty());
    }

    #[test]
    fn suppressions_standalone_and_trailing() {
        let standalone = "\
// fmlint::allow(panic-in-lib, reason = \"documented invariant\")
pub fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert!(lints_of(LIB, standalone).is_empty());
        let trailing = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() } // fmlint::allow(panic-in-lib, reason = \"documented\")";
        assert!(lints_of(LIB, trailing).is_empty());
        // A standalone marker does NOT reach past the next source line.
        let too_far = "\
// fmlint::allow(panic-in-lib, reason = \"first line only\")
pub fn ok() {}
pub fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        let found = lints_of(LIB, too_far);
        assert!(found.contains(&("panic-in-lib", 3)), "{found:?}");
    }

    #[test]
    fn suppression_without_reason_is_malformed() {
        let src = "// fmlint::allow(panic-in-lib)\npub fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        let found = lints_of(LIB, src);
        assert!(found.contains(&("malformed-suppression", 1)), "{found:?}");
        // And the finding itself is NOT suppressed.
        assert!(found.contains(&("panic-in-lib", 2)), "{found:?}");
    }

    #[test]
    fn suppression_of_unknown_lint_is_malformed() {
        let src = "// fmlint::allow(no-such-lint, reason = \"typo\")\npub fn f() {}";
        let found = lints_of(LIB, src);
        assert_eq!(found, vec![("malformed-suppression", 1)]);
    }

    #[test]
    fn doc_comments_describing_markers_are_not_markers() {
        let src = "\
//! Suppress with `// fmlint::allow(panic-in-lib, reason = \"…\")`.
/// Mentions fmlint::allow(<lint>, reason = \"…\") in prose.
pub fn f() {}";
        assert!(lints_of(LIB, src).is_empty());
    }

    #[test]
    fn unused_suppression_is_reported() {
        let src = "// fmlint::allow(panic-in-lib, reason = \"stale\")\npub fn f() {}";
        let found = lints_of(LIB, src);
        assert_eq!(found, vec![("unused-suppression", 1)]);
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = r#"
pub fn f() -> &'static str {
    // this comment says unwrap() and panic!
    "a string with unwrap() and Instant::now and HashMap"
}"#;
        assert!(lint_source("crates/report/src/table.rs", src).is_empty());
    }

    #[test]
    fn counts_aggregate_by_lint_and_file() {
        let src = "fn a() { x.unwrap(); y.unwrap(); panic!(\"z\") }";
        let counts = count_by_lint_and_file(&lint_source(LIB, src));
        assert_eq!(
            counts.get(&("panic-in-lib".to_string(), LIB.to_string())),
            Some(&3)
        );
    }
}
