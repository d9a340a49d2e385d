//! A dependency-free token lexer for the semantic analyzer.
//!
//! The lexer runs over [`strip_source`](crate::source::strip_source)
//! output — comments and literal *contents* are already blanked, but
//! the stripper preserves byte offsets 1:1 with the original text, so
//! every token carries a byte range that is valid in both views.
//!
//! The token model is deliberately small: identifiers, numbers, string
//! and char literals, lifetimes and single-character punctuation.
//! Multi-character operators (`::`, `->`, `=>`) are left as punctuation
//! sequences; the item extractor matches them positionally.

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`fn`, `impl`, `select`).
    Ident,
    /// A numeric literal (`0`, `1_000`, `0xff`, `1.5e3`).
    Num,
    /// A string literal, quotes included. The *raw* source slice holds
    /// the original contents; the stripped slice holds blanks.
    Str,
    /// A char literal (`'x'`), quotes included.
    Char,
    /// A lifetime (`'a`) — kept distinct so char detection stays exact.
    Lifetime,
    /// One punctuation byte (`{`, `[`, `:`, `!`, …).
    Punct(u8),
}

/// One token with its byte range and 1-based source line.
#[derive(Debug, Clone, Copy)]
pub struct Tok {
    /// Token kind.
    pub kind: TokKind,
    /// Byte offset of the first byte (valid in raw and stripped text).
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line number of the token's first byte.
    pub line: u32,
}

impl Tok {
    /// The token's text in `src` (pass the stripped text for code
    /// tokens, the raw text to recover string literal contents).
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start..self.end]
    }
}

/// Lexes stripped source into tokens. Whitespace is skipped; blanked
/// comment regions lex as nothing (they are all spaces).
pub fn lex(stripped: &str) -> Vec<Tok> {
    let b = stripped.as_bytes();
    let mut toks = Vec::with_capacity(stripped.len() / 4);
    let mut line: u32 = 1;
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'"' => {
                // Stripped strings keep their delimiting quotes.
                let start = i;
                i += 1;
                while i < b.len() && b[i] != b'"' {
                    if b[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
                i = (i + 1).min(b.len());
                toks.push(Tok {
                    kind: TokKind::Str,
                    start,
                    end: i,
                    line,
                });
            }
            b'\'' => {
                // `'x'`-shaped (blanked) char literal vs `'a` lifetime:
                // the stripper blanked char contents, so a char literal
                // is `'` + blanks + `'`; a lifetime is `'` + ident.
                let start = i;
                let mut j = i + 1;
                while j < b.len() && b[j] == b' ' {
                    j += 1;
                }
                if j < b.len() && b[j] == b'\'' && j > i + 1 {
                    i = j + 1;
                    toks.push(Tok {
                        kind: TokKind::Char,
                        start,
                        end: i,
                        line,
                    });
                } else if j < b.len() && (b[j].is_ascii_alphabetic() || b[j] == b'_') {
                    i = j + 1;
                    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                        i += 1;
                    }
                    toks.push(Tok {
                        kind: TokKind::Lifetime,
                        start,
                        end: i,
                        line,
                    });
                } else {
                    // Stray quote (blanked literal edge) — skip it.
                    i += 1;
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Ident,
                    start,
                    end: i,
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || b[i] == b'.')
                {
                    // `1..n` is a range, not part of the number.
                    if b[i] == b'.' && b.get(i + 1) == Some(&b'.') {
                        break;
                    }
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Num,
                    start,
                    end: i,
                    line,
                });
            }
            _ => {
                toks.push(Tok {
                    kind: TokKind::Punct(c),
                    start: i,
                    end: i + 1,
                    line,
                });
                i += 1;
            }
        }
    }
    toks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::strip_source;

    fn kinds(src: &str) -> Vec<TokKind> {
        lex(&strip_source(src)).iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_idents_nums_puncts() {
        let toks = lex("fn f(x: u32) { x[0] }");
        let texts: Vec<&str> = toks
            .iter()
            .map(|t| t.text("fn f(x: u32) { x[0] }"))
            .collect();
        assert_eq!(
            texts,
            vec!["fn", "f", "(", "x", ":", "u32", ")", "{", "x", "[", "0", "]", "}"]
        );
    }

    #[test]
    fn lifetimes_and_chars_are_distinct() {
        let raw = "fn f<'a>(x: &'a str) -> char { 'x' }";
        let toks = lex(&strip_source(raw));
        let lifetimes = toks.iter().filter(|t| t.kind == TokKind::Lifetime).count();
        let chars = toks.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!((lifetimes, chars), (2, 1));
    }

    #[test]
    fn comments_lex_to_nothing() {
        assert_eq!(kinds("// HashMap\n/* thread_rng */"), Vec::<TokKind>::new());
    }

    #[test]
    fn lines_are_tracked() {
        let toks = lex("a\nb\n  c");
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 3]);
    }

    #[test]
    fn numbers_stop_before_ranges() {
        let raw = "for i in 0..n { }";
        let toks = lex(raw);
        let texts: Vec<&str> = toks.iter().map(|t| t.text(raw)).collect();
        assert_eq!(texts, vec!["for", "i", "in", "0", ".", ".", "n", "{", "}"]);
    }
}
