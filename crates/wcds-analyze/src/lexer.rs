//! A small, comment- and string-aware Rust lexer.
//!
//! The lint engine must never flag a `unwrap()` that lives inside a
//! string literal or a doc comment. Rather than parse Rust properly,
//! this module produces a **masked** copy of a source file: identical
//! length and line structure, but with every comment, string, char and
//! byte literal blanked to spaces. Pattern scans then run on the mask,
//! where every remaining character is real code.
//!
//! Handled: line comments (`//`, `///`, `//!`), nested block comments,
//! string literals with escapes, raw strings `r#"…"#` (any number of
//! hashes), byte strings `b"…"` / `br#"…"#`, char and byte-char
//! literals, and the char-vs-lifetime ambiguity (`'a'` vs `<'a>`).

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `src` into its code mask: same character count and newline
/// positions as the input, every comment/string/char-literal character
/// replaced by a space.
pub fn lex(src: &str) -> String {
    let chars: Vec<char> = src.chars().collect();
    let mut masked = String::with_capacity(src.len());
    let mut i = 0usize;

    // pushes `n` blanks, preserving any newlines in the consumed range
    let blank = |masked: &mut String, chars: &[char], start: usize, end: usize| {
        for &c in chars.iter().take(end).skip(start) {
            masked.push(if c == '\n' { '\n' } else { ' ' });
        }
    };

    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        let prev_ident = i > 0 && is_ident(chars[i - 1]);
        match c {
            '/' if next == Some('/') => {
                let start = i;
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
                blank(&mut masked, &chars, start, i);
            }
            '/' if next == Some('*') => {
                let start = i;
                let mut depth = 1u32;
                i += 2;
                while i < chars.len() && depth > 0 {
                    if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                blank(&mut masked, &chars, start, i);
            }
            '"' => {
                let start = i;
                i = skip_string(&chars, i);
                blank(&mut masked, &chars, start, i);
            }
            'r' | 'b' if !prev_ident => {
                // maybe a raw/byte literal prefix: r", r#", b", br#", b'
                if let Some(end) = skip_prefixed_literal(&chars, i) {
                    blank(&mut masked, &chars, i, end);
                    i = end;
                } else {
                    masked.push(c);
                    i += 1;
                }
            }
            '\'' => {
                // char literal or lifetime?
                let is_char = match next {
                    Some('\\') => true,
                    Some(_) => chars.get(i + 2) == Some(&'\''),
                    None => false,
                };
                if is_char {
                    let start = i;
                    i += 1; // opening quote
                    if chars.get(i) == Some(&'\\') {
                        i += 1; // the escape marker; skip the escaped char below
                        if matches!(chars.get(i), Some('x')) {
                            i += 2;
                        } else if matches!(chars.get(i), Some('u')) {
                            while i < chars.len() && chars[i] != '\'' {
                                i += 1;
                            }
                            i = i.saturating_sub(1);
                        }
                    }
                    i += 1; // the char itself
                    if chars.get(i) == Some(&'\'') {
                        i += 1; // closing quote
                    }
                    blank(&mut masked, &chars, start, i);
                } else {
                    // lifetime: keep the tick as code
                    masked.push('\'');
                    i += 1;
                }
            }
            _ => {
                masked.push(c);
                i += 1;
            }
        }
    }
    masked
}

/// Skips a plain (escaped) string starting at the opening `"` at `i`;
/// returns the index one past the closing quote.
fn skip_string(chars: &[char], mut i: usize) -> usize {
    i += 1;
    while i < chars.len() {
        match chars[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// At an `r` or `b` that may start a raw/byte literal: returns the end
/// index of the literal, or `None` if it is just an identifier.
fn skip_prefixed_literal(chars: &[char], start: usize) -> Option<usize> {
    let mut i = start + 1;
    if chars.get(start) == Some(&'b') {
        match chars.get(i) {
            Some('\'') => {
                // byte char b'x' or b'\n'
                i += 1;
                if chars.get(i) == Some(&'\\') {
                    i += 1;
                }
                i += 1;
                if chars.get(i) == Some(&'\'') {
                    return Some(i + 1);
                }
                return None;
            }
            Some('"') => return Some(skip_string(chars, i)),
            Some('r') => i += 1,
            _ => return None,
        }
    }
    // raw part: zero or more #, then "
    let mut hashes = 0usize;
    while chars.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    if chars.get(i) != Some(&'"') {
        return None;
    }
    i += 1;
    // scan for `"` followed by `hashes` hashes
    while i < chars.len() {
        if chars[i] == '"' {
            let mut j = i + 1;
            let mut seen = 0usize;
            while seen < hashes && chars.get(j) == Some(&'#') {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return Some(j);
            }
        }
        i += 1;
    }
    Some(i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let src = "let x = \"unwrap()\"; // unwrap()\nlet y = 1; /* unwrap() */ z();\n";
        let masked = lex(src);
        assert!(!masked.contains("unwrap"));
        assert!(masked.contains("let x ="));
        assert!(masked.contains("z()"));
        assert_eq!(masked.chars().filter(|&c| c == '\n').count(), 2);
    }

    #[test]
    fn raw_and_byte_strings_are_blanked() {
        let src = r####"let a = r#"x.unwrap()"#; let b = b"unwrap"; let c = br##"expect("q")"##;"####;
        let masked = lex(src);
        assert!(!masked.contains("unwrap"));
        assert!(!masked.contains("expect"));
        assert!(masked.contains("let a ="));
        assert!(masked.contains("let c ="));
    }

    #[test]
    fn char_vs_lifetime() {
        let src = "fn f<'a>(x: &'a str) -> char { let c = '\\''; let d = 'x'; c }";
        let masked = lex(src);
        assert!(masked.contains("<'a>"));
        assert!(masked.contains("&'a str"));
        assert!(!masked.contains("'x'"));
        assert_eq!(masked.len(), src.len());
    }

    #[test]
    fn multiline_strings_preserve_line_numbers() {
        let src = "let s = \"line one\nline two\";\nnext();\n";
        let masked = lex(src);
        assert_eq!(masked.chars().filter(|&c| c == '\n').count(), 3);
        // `next()` must still land on line 3
        let lines: Vec<&str> = masked.lines().collect();
        assert!(lines[2].contains("next()"));
    }

    #[test]
    fn identifier_starting_with_r_or_b_is_not_a_literal() {
        let src = "let rng = r_value + b_flag; let raw = rbuf;";
        let masked = lex(src);
        assert_eq!(masked, src);
    }
}
