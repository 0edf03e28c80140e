//! Per-file analysis context shared by all rules: the token stream, a mask of
//! test-only code regions (`#[cfg(test)]` modules and `#[test]` functions are
//! exempt from library-code rules), and the parsed inline allow annotations.
//!
//! The escape-hatch grammar is a line or block comment whose text starts,
//! after the comment sigil, with
//!
//! ```text
//! fedco-audit: allow(rule-id): <non-empty reason>
//! ```
//!
//! placed either at the end of the offending line or on the line(s)
//! immediately above it. Annotations that start with the `fedco-audit`
//! marker but do not parse — unknown rule id, missing reason — are
//! themselves reported, so a typo can never silently disable a rule.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{lex, Token, TokenKind};
use crate::source::SourceFile;

/// A malformed allow annotation: where it is and what is wrong with it.
#[derive(Debug, Clone)]
pub struct AllowDiag {
    /// 1-based line of the annotation comment.
    pub line: u32,
    /// 1-based column of the annotation comment.
    pub col: u32,
    /// Human-readable description of the parse failure.
    pub why: String,
}

/// Everything a rule needs to inspect one file.
#[derive(Debug)]
pub struct FileContext<'a> {
    /// Classification metadata for the file under analysis.
    pub file: &'a SourceFile,
    /// The full token stream, comments included.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of the non-comment tokens, in order.
    pub code: Vec<usize>,
    /// Malformed allow annotations found while building the context.
    pub allow_diags: Vec<AllowDiag>,
    test_mask: Vec<bool>,
    allows: BTreeMap<u32, BTreeSet<String>>,
}

impl<'a> FileContext<'a> {
    /// Lexes `src` and builds the context for `file`. `known_rules` is the
    /// set of rule ids an allow annotation may name.
    pub fn build(file: &'a SourceFile, src: &str, known_rules: &[&str]) -> FileContext<'a> {
        let tokens = lex(src);
        let code: Vec<usize> = (0..tokens.len())
            .filter(|&i| !tokens[i].is_comment())
            .collect();
        let test_mask = mark_test_regions(&tokens, &code);
        let (allows, allow_diags) = collect_allows(&tokens, known_rules);
        FileContext {
            file,
            tokens,
            code,
            allow_diags,
            test_mask,
            allows,
        }
    }

    /// Number of code (non-comment) tokens.
    pub fn code_len(&self) -> usize {
        self.code.len()
    }

    /// The `k`-th code token.
    pub fn code_tok(&self, k: usize) -> &Token {
        &self.tokens[self.code[k]]
    }

    /// Whether the `k`-th code token lies inside test-only code
    /// (`#[cfg(test)]` item or `#[test]` function).
    pub fn in_test_code(&self, k: usize) -> bool {
        self.test_mask[self.code[k]]
    }

    /// Whether findings of `rule` on `line` are suppressed by a well-formed
    /// allow annotation.
    pub fn is_allowed(&self, rule: &str, line: u32) -> bool {
        self.allows.get(&line).is_some_and(|set| set.contains(rule))
    }
}

/// Parses every comment for the `fedco-audit:` marker, returning the
/// line → allowed-rules map and the diagnostics for malformed annotations.
fn collect_allows(
    tokens: &[Token],
    known_rules: &[&str],
) -> (BTreeMap<u32, BTreeSet<String>>, Vec<AllowDiag>) {
    let mut allows: BTreeMap<u32, BTreeSet<String>> = BTreeMap::new();
    let mut diags = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        let body = match tok.kind {
            TokenKind::LineComment => tok.text.strip_prefix("//").unwrap_or(&tok.text),
            TokenKind::BlockComment => {
                let t = tok.text.strip_prefix("/*").unwrap_or(&tok.text);
                t.strip_suffix("*/").unwrap_or(t)
            }
            _ => continue,
        };
        let body = body.trim();
        if !body.starts_with("fedco-audit") {
            continue;
        }
        match parse_allow(body, known_rules) {
            Ok(rule) => {
                // The annotation covers every line the comment touches …
                let comment_lines = tok.text.matches('\n').count() as u32;
                for l in tok.line..=tok.line + comment_lines {
                    allows.entry(l).or_default().insert(rule.clone());
                }
                // … and the line of the next code token after it, so a
                // standalone comment guards the statement below.
                if let Some(next) = tokens[i + 1..].iter().find(|t| !t.is_comment()) {
                    allows.entry(next.line).or_default().insert(rule);
                }
            }
            Err(why) => diags.push(AllowDiag {
                line: tok.line,
                col: tok.col,
                why,
            }),
        }
    }
    (allows, diags)
}

/// Parses `fedco-audit: allow(rule-id): reason`, returning the rule id.
fn parse_allow(body: &str, known_rules: &[&str]) -> Result<String, String> {
    let rest = body
        .strip_prefix("fedco-audit")
        .unwrap_or(body)
        .trim_start();
    let rest = rest
        .strip_prefix(':')
        .ok_or_else(|| "expected `:` after `fedco-audit`".to_string())?
        .trim_start();
    let rest = rest
        .strip_prefix("allow")
        .ok_or_else(|| "expected `allow(rule-id)`".to_string())?
        .trim_start();
    let rest = rest
        .strip_prefix('(')
        .ok_or_else(|| "expected `(` after `allow`".to_string())?;
    let (rule, rest) = rest
        .split_once(')')
        .ok_or_else(|| "unclosed `allow(` — expected `)`".to_string())?;
    let rule = rule.trim();
    if !known_rules.contains(&rule) {
        return Err(format!("unknown rule id `{rule}`"));
    }
    let reason = rest
        .trim_start()
        .strip_prefix(':')
        .ok_or_else(|| "expected `: <reason>` after `allow(rule-id)`".to_string())?
        .trim();
    if reason.is_empty() {
        return Err("empty reason — justify the allow".to_string());
    }
    Ok(rule.to_string())
}

/// Marks tokens that belong to test-only items: any item annotated with an
/// attribute mentioning `test` (e.g. `#[cfg(test)]`, `#[test]`) — except
/// negated `cfg(not(test))` forms — is exempt, from the attribute through
/// the end of the item (brace-matched block or terminating `;`; a struct
/// field's, field initializer's or tuple variant's `,`) — and a whole file
/// that opens with `#![cfg(test)]`.
fn mark_test_regions(tokens: &[Token], code: &[usize]) -> Vec<bool> {
    // A module file that opens with `#![cfg(test)]` is test code throughout.
    let opening = code.iter().take(8).map(|&t| tokens[t].text.as_str());
    if opening.eq(["#", "!", "[", "cfg", "(", "test", ")", "]"]) {
        return vec![true; tokens.len()];
    }
    let mut mask = vec![false; tokens.len()];
    let mut k = 0usize;
    while k < code.len() {
        if !(tokens[code[k]].is_punct('#') && k + 1 < code.len()) {
            k += 1;
            continue;
        }
        // Other inner attributes `#![…]` are never test markers.
        let open = if tokens[code[k + 1]].is_punct('[') {
            k + 1
        } else {
            k += 1;
            continue;
        };
        let Some(close) = match_bracket(tokens, code, open, '[', ']') else {
            k += 1;
            continue;
        };
        let attr = &code[open..=close];
        let mentions_test = attr.iter().any(|&t| tokens[t].is_ident("test"));
        let negated = attr.iter().any(|&t| tokens[t].is_ident("not"));
        if !mentions_test || negated {
            k = close + 1;
            continue;
        }
        // Skip any further attributes, then mark through the end of the item.
        let mut j = close + 1;
        while j + 1 < code.len()
            && tokens[code[j]].is_punct('#')
            && tokens[code[j + 1]].is_punct('[')
        {
            match match_bracket(tokens, code, j + 1, '[', ']') {
                Some(c) => j = c + 1,
                None => break,
            }
        }
        let end = field_end(tokens, code, j)
            .or_else(|| tuple_variant_end(tokens, code, j))
            .or_else(|| item_end(tokens, code, j))
            .unwrap_or(code.len() - 1);
        for &t in &code[k..=end.min(code.len() - 1)] {
            mask[t] = true;
        }
        k = end + 1;
    }
    mask
}

/// Index (into `code`) of the bracket matching `code[open]`.
fn match_bracket(tokens: &[Token], code: &[usize], open: usize, o: char, c: char) -> Option<usize> {
    let mut depth = 0usize;
    for (k, &t) in code.iter().enumerate().skip(open) {
        if tokens[t].is_punct(o) {
            depth += 1;
        } else if tokens[t].is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Index (into `code`) of the last token of the struct field or field
/// initializer starting at `code[k]`, if one starts there (`[pub[(…)]] name:`
/// or a shorthand `name,` / `name }`): its `,`, or its last token before the
/// `}` that closes the struct. Angle brackets are not tracked, so a comma of
/// a generic field type ends it early and leaves the tail unmarked.
fn field_end(tokens: &[Token], code: &[usize], mut k: usize) -> Option<usize> {
    let tok = |k: usize| code.get(k).map(|&t| &tokens[t]);
    if tok(k)?.is_ident("pub") {
        k += 1;
        if tok(k)?.is_punct('(') {
            k = match_bracket(tokens, code, k, '(', ')')? + 1;
        }
    }
    let (name, next) = (tok(k)?, tok(k + 1)?);
    let typed = next.is_punct(':') && !tok(k + 2).is_some_and(|t| t.is_punct(':'));
    if name.kind != TokenKind::Ident || !(typed || next.is_punct(',') || next.is_punct('}')) {
        return None;
    }
    let mut depth = 0usize;
    for (j, &t) in code.iter().enumerate().skip(k) {
        let t = &tokens[t];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            if depth == 0 {
                return Some(j - 1);
            }
            depth -= 1;
        } else if depth == 0 && t.is_punct(',') {
            return Some(j);
        }
    }
    Some(code.len() - 1)
}

/// Index (into `code`) of the last token of the tuple variant starting at
/// `code[k]`, if one starts there (`Name(…)` followed by `,` or `}`): its
/// `,`, or its `)` before the `}` that closes the enum.
fn tuple_variant_end(tokens: &[Token], code: &[usize], k: usize) -> Option<usize> {
    let tok = |k: usize| code.get(k).map(|&t| &tokens[t]);
    if tok(k)?.kind != TokenKind::Ident || !tok(k + 1)?.is_punct('(') {
        return None;
    }
    let close = match_bracket(tokens, code, k + 1, '(', ')')?;
    let after = tok(close + 1)?;
    if after.is_punct(',') {
        Some(close + 1)
    } else if after.is_punct('}') {
        Some(close)
    } else {
        None
    }
}

/// Index (into `code`) of the last token of the item starting at `code[k]`:
/// either a `;` before any brace opens, or the brace matching the first `{`
/// — both outside `(…)` and `[…]`, so the `;` of an array type `[u8; 3]`
/// does not end the item.
fn item_end(tokens: &[Token], code: &[usize], k: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, &t) in code.iter().enumerate().skip(k) {
        let t = &tokens[t];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth = depth.saturating_sub(1);
        } else if depth == 0 && t.is_punct(';') {
            return Some(j);
        } else if depth == 0 && t.is_punct('{') {
            return match_bracket(tokens, code, j, '{', '}');
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_for<'a>(file: &'a SourceFile, src: &str) -> FileContext<'a> {
        FileContext::build(file, src, &["wall-clock", "panic-surface"])
    }

    fn lib_file() -> SourceFile {
        SourceFile::from_rel_path("crates/sim/src/fake.rs")
    }

    #[test]
    fn cfg_test_module_is_masked() {
        let f = lib_file();
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}\nfn tail() {}";
        let ctx = ctx_for(&f, src);
        let unwrap_k = (0..ctx.code_len())
            .find(|&k| ctx.code_tok(k).is_ident("unwrap"))
            .expect("unwrap token");
        assert!(ctx.in_test_code(unwrap_k));
        let tail_k = (0..ctx.code_len())
            .find(|&k| ctx.code_tok(k).is_ident("tail"))
            .expect("tail token");
        assert!(!ctx.in_test_code(tail_k));
    }

    #[test]
    fn test_fn_with_extra_attrs_is_masked() {
        let f = lib_file();
        let src = "#[test]\n#[should_panic]\nfn boom() { panic!(\"x\") }\nfn lib() {}";
        let ctx = ctx_for(&f, src);
        let panic_k = (0..ctx.code_len())
            .find(|&k| ctx.code_tok(k).is_ident("panic"))
            .expect("panic token");
        assert!(ctx.in_test_code(panic_k));
        let lib_k = (0..ctx.code_len())
            .find(|&k| ctx.code_tok(k).is_ident("lib"))
            .expect("lib token");
        assert!(!ctx.in_test_code(lib_k));
    }

    #[test]
    fn cfg_not_test_is_not_masked() {
        let f = lib_file();
        let src = "#[cfg(not(test))]\nfn shipping() { x.unwrap(); }";
        let ctx = ctx_for(&f, src);
        let k = (0..ctx.code_len())
            .find(|&k| ctx.code_tok(k).is_ident("unwrap"))
            .expect("unwrap token");
        assert!(!ctx.in_test_code(k));
    }

    #[test]
    fn a_file_that_opens_with_cfg_test_is_masked_whole() {
        let f = lib_file();
        let ctx = ctx_for(&f, "//! docs\n#![cfg(test)]\nfn helper() { x.unwrap(); }");
        assert!((0..ctx.code_len()).all(|k| ctx.in_test_code(k)));
        let ctx = ctx_for(&f, "#![cfg(not(test))]\nfn shipped() {}");
        assert!((0..ctx.code_len()).all(|k| !ctx.in_test_code(k)));
    }

    #[test]
    fn a_test_only_field_masks_itself_only() {
        let f = lib_file();
        let src = "struct S {\n #[cfg(test)]\n pub(crate) probe: (u8, u8),\n kept: u8,\n}\n\
                   impl S { fn new() -> S { S { kept: 1, #[cfg(test)] probe: (0, 0) } } }";
        let ctx = ctx_for(&f, src);
        let masked = |name: &str| {
            (0..ctx.code_len())
                .filter(|&k| ctx.code_tok(k).is_ident(name))
                .map(|k| ctx.in_test_code(k))
                .collect::<Vec<_>>()
        };
        assert_eq!(masked("probe"), [true, true]);
        assert_eq!(masked("kept"), [false, false]);
        assert_eq!(masked("new"), [false]);
    }

    #[test]
    fn a_test_fn_returning_an_array_is_masked_through_its_body() {
        let f = lib_file();
        let src = "#[cfg(test)]\nfn f() -> [u8; 3] {\n x.unwrap();\n [0; 3]\n}\nfn tail() {}";
        let ctx = ctx_for(&f, src);
        let unwrap_k = (0..ctx.code_len())
            .find(|&k| ctx.code_tok(k).is_ident("unwrap"))
            .expect("unwrap token");
        assert!(ctx.in_test_code(unwrap_k));
        let tail_k = (0..ctx.code_len())
            .find(|&k| ctx.code_tok(k).is_ident("tail"))
            .expect("tail token");
        assert!(!ctx.in_test_code(tail_k));
    }

    #[test]
    fn a_test_only_tuple_variant_masks_itself_only() {
        let f = lib_file();
        let src = "enum E {\n #[cfg(test)]\n Probe(u8, [u8; 2]),\n Kept,\n}\n\
                   enum F { Also, #[cfg(test)] Last(u8) }\n\
                   fn shipped() { x.unwrap(); }";
        let ctx = ctx_for(&f, src);
        let masked = |name: &str| {
            (0..ctx.code_len())
                .filter(|&k| ctx.code_tok(k).is_ident(name))
                .map(|k| ctx.in_test_code(k))
                .collect::<Vec<_>>()
        };
        assert_eq!(masked("Probe"), [true]);
        assert_eq!(masked("Last"), [true]);
        assert_eq!(masked("Kept"), [false]);
        assert_eq!(masked("F"), [false]);
        assert_eq!(masked("shipped"), [false]);
        assert_eq!(masked("unwrap"), [false]);
    }

    #[test]
    fn trailing_allow_covers_its_line() {
        let f = lib_file();
        let src = "let t = now(); // fedco-audit: allow(wall-clock): timing only\n";
        let ctx = ctx_for(&f, src);
        assert!(ctx.is_allowed("wall-clock", 1));
        assert!(!ctx.is_allowed("panic-surface", 1));
        assert!(ctx.allow_diags.is_empty());
    }

    #[test]
    fn standalone_allow_covers_next_code_line() {
        let f = lib_file();
        let src = "// fedco-audit: allow(panic-surface): infallible by construction\n\nlet v = x.unwrap();\n";
        let ctx = ctx_for(&f, src);
        assert!(ctx.is_allowed("panic-surface", 3));
    }

    #[test]
    fn stacked_allows_cover_the_same_line() {
        let f = lib_file();
        let src = "// fedco-audit: allow(wall-clock): a\n// fedco-audit: allow(panic-surface): b\ncode();\n";
        let ctx = ctx_for(&f, src);
        assert!(ctx.is_allowed("wall-clock", 3));
        assert!(ctx.is_allowed("panic-surface", 3));
    }

    #[test]
    fn malformed_allows_are_diagnosed() {
        let f = lib_file();
        let cases = [
            "// fedco-audit: allow(no-such-rule): reason\n",
            "// fedco-audit: allow(wall-clock)\n",
            "// fedco-audit: allow(wall-clock):   \n",
            "// fedco-audit: wall-clock is fine here\n",
        ];
        for src in cases {
            let ctx = ctx_for(&f, src);
            assert_eq!(ctx.allow_diags.len(), 1, "src: {src}");
            assert!(!ctx.is_allowed("wall-clock", 1), "src: {src}");
        }
    }

    #[test]
    fn doc_comments_and_prose_mentions_are_ignored() {
        let f = lib_file();
        let src = "/// fedco-audit: allow(wall-clock): doc comments do not count\n// see fedco-audit docs\nfn f() {}\n";
        let ctx = ctx_for(&f, src);
        assert!(ctx.allow_diags.is_empty());
        assert!(!ctx.is_allowed("wall-clock", 3));
    }
}
