//! The lint's one tokenizer.
//!
//! Every analysis reads this token stream, directly or through the per-line
//! metadata [`crate::source`] builds from it: raw strings with hash fences,
//! nested block comments, byte strings, `'a'` char literals vs `'a`
//! lifetimes, and float literals vs `..` range punctuation are all cases
//! where a line regex misclassifies. The lexer produces a flat stream of
//! spanned tokens with comments and whitespace removed; literal *contents*
//! are dropped (a string is one [`Tok::Str`] token), so downstream passes
//! can never match inside them. The comments it skips come back beside the
//! stream, for the `lint:` directives.
//!
//! The lexer is lossy in exactly the ways the analyses can afford: it does
//! not preserve literal values, and it treats keywords as ordinary
//! identifiers.

/// A lexed token kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (`fn`, `impl`, `HashMap`, ...). Raw
    /// identifiers (`r#match`) are unescaped to their plain name.
    Ident(String),
    /// A lifetime such as `'a` or `'static` (without the quote).
    Lifetime(String),
    /// A character or byte literal (`'x'`, `b'\n'`); contents dropped.
    Char,
    /// A string literal of any flavour (`"…"`, `r#"…"#`, `b"…"`, `br"…"`);
    /// contents dropped.
    Str,
    /// An integer literal (`42`, `0xff`, `1_000u64`, tuple index `0`).
    Int,
    /// A float literal (`1.5`, `1.`, `1e3`, `2f32`).
    Float,
    /// An operator or separator, multi-character forms joined (`::`, `->`,
    /// `==`, `..=`, ...).
    Punct(&'static str),
    /// An opening delimiter: `(`, `[`, or `{`.
    Open(char),
    /// A closing delimiter: `)`, `]`, or `}`.
    Close(char),
}

/// One token with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token kind (and payload, for identifiers/lifetimes).
    pub kind: Tok,
    /// 1-based source line.
    pub line: usize,
    /// 1-based column (in characters).
    pub col: usize,
}

impl Token {
    /// The identifier name, if this token is one.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            Tok::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// True when this token is the identifier, punctuation or delimiter
    /// spelled `text`.
    pub fn is(&self, text: &str) -> bool {
        match &self.kind {
            Tok::Ident(s) => s == text,
            Tok::Punct(p) => *p == text,
            Tok::Open(c) | Tok::Close(c) => text.chars().eq([*c]),
            _ => false,
        }
    }
}

/// True when `tokens` starts with tokens spelled `words`, in order.
pub fn spells(tokens: &[Token], words: &[&str]) -> bool {
    words.len() <= tokens.len() && tokens.iter().zip(words).all(|(t, w)| t.is(w))
}

/// A comment the lexer skipped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: usize,
    /// The text after `//` or between `/*` and `*/`, doc marker included;
    /// a block comment's text keeps its newlines and drops nested `/*`
    /// `*/` pairs.
    pub text: String,
}

/// Multi-character operators, longest first so joining is greedy.
const JOINED: [&str; 25] = [
    "..=", "<<=", ">>=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "..", "<<",
    ">>", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "=",
];

/// Single-character operators that are not in [`JOINED`]'s first column.
const SINGLES: &str = "+-*/%^&|!<>=.,;:#?@~$";

struct Cursor {
    chars: Vec<char>,
    i: usize,
    line: usize,
    col: usize,
}

impl Cursor {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.i).copied();
        if let Some(c) = c {
            self.i += 1;
            if c == '\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += 1;
            }
        }
        c
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }
}

/// Lexes `source` into a token stream plus the comments it skipped, both in
/// source order. Unterminated literals or comments end at end-of-file; the
/// lexer never fails.
pub fn lex(source: &str) -> (Vec<Token>, Vec<Comment>) {
    let mut cur = Cursor {
        chars: source.chars().collect(),
        i: 0,
        line: 1,
        col: 1,
    };
    let mut out: Vec<Token> = Vec::new();
    let mut comments: Vec<Comment> = Vec::new();
    while let Some(c) = cur.peek(0) {
        let (line, col) = (cur.line, cur.col);
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        // Comments, doc comments included.
        if c == '/' && matches!(cur.peek(1), Some('/' | '*')) {
            let line_comment = cur.peek(1) == Some('/');
            cur.bump_n(2);
            let mut text = String::new();
            if line_comment {
                while let Some(c) = cur.peek(0).filter(|&c| c != '\n') {
                    text.push(c);
                    cur.bump();
                }
            } else {
                let mut depth = 1usize;
                while depth > 0 {
                    match (cur.peek(0), cur.peek(1)) {
                        (Some('*'), Some('/')) => {
                            depth -= 1;
                            cur.bump_n(2);
                        }
                        (Some('/'), Some('*')) => {
                            depth += 1;
                            cur.bump_n(2);
                        }
                        (Some(_), _) => text.extend(cur.bump()),
                        (None, _) => break,
                    }
                }
            }
            comments.push(Comment { line, text });
            continue;
        }
        // String-ish prefixes: r"", r#""#, b"", br"", b'', and raw idents.
        if c == 'r' || c == 'b' {
            if let Some(tok) = lex_prefixed(&mut cur) {
                out.push(Token {
                    kind: tok,
                    line,
                    col,
                });
                continue;
            }
        }
        if c == '"' {
            cur.bump();
            consume_string_body(&mut cur);
            out.push(Token {
                kind: Tok::Str,
                line,
                col,
            });
            continue;
        }
        if c == '\'' {
            let kind = lex_quote(&mut cur);
            out.push(Token { kind, line, col });
            continue;
        }
        if c.is_ascii_digit() {
            let after_dot = out.last().map(|t| t.is(".")).unwrap_or(false);
            let kind = lex_number(&mut cur, after_dot);
            out.push(Token { kind, line, col });
            continue;
        }
        if is_ident_start(c) {
            let name = lex_ident(&mut cur);
            out.push(Token {
                kind: Tok::Ident(name),
                line,
                col,
            });
            continue;
        }
        match c {
            '(' | '[' | '{' => {
                cur.bump();
                out.push(Token {
                    kind: Tok::Open(c),
                    line,
                    col,
                });
            }
            ')' | ']' | '}' => {
                cur.bump();
                out.push(Token {
                    kind: Tok::Close(c),
                    line,
                    col,
                });
            }
            _ => {
                // `.` followed by a digit could open a float only at the
                // start of an expression; Rust itself requires a leading
                // digit, so treat `.` uniformly as punctuation.
                let mut matched = None;
                for op in JOINED {
                    let len = op.chars().count();
                    if (0..len).all(|k| cur.peek(k) == op.chars().nth(k)) {
                        matched = Some((op, len));
                        break;
                    }
                }
                if let Some((op, len)) = matched {
                    cur.bump_n(len);
                    out.push(Token {
                        kind: Tok::Punct(op),
                        line,
                        col,
                    });
                } else if SINGLES.contains(c) {
                    cur.bump();
                    out.push(Token {
                        kind: Tok::Punct(single_punct(c)),
                        line,
                        col,
                    });
                } else {
                    // Unknown character (unlikely in valid Rust): skip.
                    cur.bump();
                }
            }
        }
    }
    (out, comments)
}

/// Interns single-character punctuation as `&'static str`.
fn single_punct(c: char) -> &'static str {
    match c {
        '+' => "+",
        '-' => "-",
        '*' => "*",
        '/' => "/",
        '%' => "%",
        '^' => "^",
        '&' => "&",
        '|' => "|",
        '!' => "!",
        '<' => "<",
        '>' => ">",
        '=' => "=",
        '.' => ".",
        ',' => ",",
        ';' => ";",
        ':' => ":",
        '#' => "#",
        '?' => "?",
        '@' => "@",
        '~' => "~",
        _ => "$",
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn lex_ident(cur: &mut Cursor) -> String {
    let mut s = String::new();
    while let Some(c) = cur.peek(0) {
        if is_ident_continue(c) {
            s.push(c);
            cur.bump();
        } else {
            break;
        }
    }
    s
}

/// Handles `r`/`b`-prefixed literals and raw identifiers. Returns `None`
/// when the `r`/`b` is just the start of an ordinary identifier.
fn lex_prefixed(cur: &mut Cursor) -> Option<Tok> {
    let c = cur.peek(0)?;
    if c == 'b' {
        match cur.peek(1) {
            Some('"') => {
                cur.bump_n(2);
                consume_string_body(cur);
                return Some(Tok::Str);
            }
            Some('\'') => {
                cur.bump(); // the `b`; lex_quote consumes from the quote
                cur.bump(); // the `'`
                consume_char_body(cur);
                return Some(Tok::Char);
            }
            Some('r') => {
                let mut j = 2;
                let mut hashes = 0;
                while cur.peek(j) == Some('#') {
                    hashes += 1;
                    j += 1;
                }
                if cur.peek(j) == Some('"') {
                    cur.bump_n(j + 1);
                    consume_raw_string_body(cur, hashes);
                    return Some(Tok::Str);
                }
                return None;
            }
            _ => return None,
        }
    }
    // c == 'r'
    let mut j = 1;
    let mut hashes = 0;
    while cur.peek(j) == Some('#') {
        hashes += 1;
        j += 1;
    }
    if cur.peek(j) == Some('"') {
        cur.bump_n(j + 1);
        consume_raw_string_body(cur, hashes);
        return Some(Tok::Str);
    }
    if hashes == 1 && cur.peek(j).map(is_ident_start).unwrap_or(false) {
        // Raw identifier r#match — strip the prefix and lex the name.
        cur.bump_n(2);
        let name = lex_ident(cur);
        return Some(Tok::Ident(name));
    }
    None
}

/// Consumes a double-quoted string body (opening quote already consumed),
/// honouring `\` escapes; strings may span lines.
fn consume_string_body(cur: &mut Cursor) {
    while let Some(c) = cur.bump() {
        match c {
            '\\' => {
                cur.bump();
            }
            '"' => break,
            _ => {}
        }
    }
}

/// Consumes a raw string body terminated by `"` + `hashes` `#`s.
fn consume_raw_string_body(cur: &mut Cursor, hashes: usize) {
    while let Some(c) = cur.bump() {
        if c == '"' && (0..hashes).all(|k| cur.peek(k) == Some('#')) {
            cur.bump_n(hashes);
            break;
        }
    }
}

/// Consumes a char-literal body (opening quote already consumed).
fn consume_char_body(cur: &mut Cursor) {
    while let Some(c) = cur.bump() {
        match c {
            '\\' => {
                cur.bump();
            }
            '\'' => break,
            _ => {}
        }
    }
}

/// At a `'`: distinguishes char literals from lifetimes.
///
/// * `'\…'` → char (escape).
/// * `'x'` (ident-ish char then `'`) → char.
/// * `'a`, `'static`, `'_` without a closing quote → lifetime.
/// * anything else (`'('`, `'.'`, ...) → char.
fn lex_quote(cur: &mut Cursor) -> Tok {
    cur.bump(); // the opening quote
    match cur.peek(0) {
        Some('\\') => {
            consume_char_body(cur);
            Tok::Char
        }
        Some(c) if is_ident_start(c) || c.is_ascii_digit() => {
            if cur.peek(1) == Some('\'') {
                cur.bump_n(2);
                Tok::Char
            } else {
                let name = lex_ident(cur);
                Tok::Lifetime(name)
            }
        }
        Some(_) => {
            consume_char_body(cur);
            Tok::Char
        }
        None => Tok::Char,
    }
}

/// Lexes a number starting at a digit. `after_dot` marks tuple-index
/// position (`pair.0.1`): there the token is always a plain integer and a
/// following `.` starts another field access, never a float.
fn lex_number(cur: &mut Cursor, after_dot: bool) -> Tok {
    // Radix prefixes are always integers (hex `e` is a digit, not exponent).
    if cur.peek(0) == Some('0') && matches!(cur.peek(1), Some('x' | 'o' | 'b' | 'X' | 'O' | 'B')) {
        cur.bump_n(2);
        while cur
            .peek(0)
            .map(|c| c.is_ascii_hexdigit() || c == '_')
            .unwrap_or(false)
        {
            cur.bump();
        }
        consume_suffix(cur);
        return Tok::Int;
    }
    consume_digits(cur);
    if after_dot {
        // Tuple index: `x.0.1` is Int(0) `.` Int(1), never a float.
        return Tok::Int;
    }
    let mut float = false;
    if cur.peek(0) == Some('.') {
        match cur.peek(1) {
            // `1..2` is a range; `1.max()` is a method call on an integer.
            Some('.') => {}
            Some(c) if is_ident_start(c) => {}
            // `1.5`, `1.`, `1.)` — all floats.
            _ => {
                float = true;
                cur.bump();
                consume_digits(cur);
            }
        }
    }
    if matches!(cur.peek(0), Some('e' | 'E')) {
        let (s1, s2) = (cur.peek(1), cur.peek(2));
        let exp = match s1 {
            Some(c) if c.is_ascii_digit() => true,
            Some('+' | '-') => s2.map(|c| c.is_ascii_digit()).unwrap_or(false),
            _ => false,
        };
        if exp {
            float = true;
            cur.bump(); // e
            if matches!(cur.peek(0), Some('+' | '-')) {
                cur.bump();
            }
            consume_digits(cur);
        }
    }
    let suffix = consume_suffix(cur);
    if suffix.starts_with('f') {
        float = true;
    }
    if float {
        Tok::Float
    } else {
        Tok::Int
    }
}

fn consume_digits(cur: &mut Cursor) {
    while cur
        .peek(0)
        .map(|c| c.is_ascii_digit() || c == '_')
        .unwrap_or(false)
    {
        cur.bump();
    }
}

/// Consumes a literal suffix (`u32`, `f64`, `usize`, ...) and returns it.
fn consume_suffix(cur: &mut Cursor) -> String {
    let mut s = String::new();
    while let Some(c) = cur.peek(0) {
        if is_ident_continue(c) {
            s.push(c);
            cur.bump();
        } else {
            break;
        }
    }
    s
}

/// Renders a token stream in the compact one-token-per-line format used by
/// the golden-file tests: `LINE:COL KIND[ PAYLOAD]`.
pub fn dump(tokens: &[Token]) -> String {
    let mut out = String::new();
    for t in tokens {
        let desc = match &t.kind {
            Tok::Ident(s) => format!("Ident {s}"),
            Tok::Lifetime(s) => format!("Lifetime {s}"),
            Tok::Char => "Char".to_string(),
            Tok::Str => "Str".to_string(),
            Tok::Int => "Int".to_string(),
            Tok::Float => "Float".to_string(),
            Tok::Punct(p) => format!("Punct {p}"),
            Tok::Open(c) => format!("Open {c}"),
            Tok::Close(c) => format!("Close {c}"),
        };
        out.push_str(&format!("{}:{} {}\n", t.line, t.col, desc));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).0.into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn idents_and_puncts() {
        assert_eq!(
            kinds("fn f(x: u8) -> u8 { x }"),
            vec![
                Tok::Ident("fn".into()),
                Tok::Ident("f".into()),
                Tok::Open('('),
                Tok::Ident("x".into()),
                Tok::Punct(":"),
                Tok::Ident("u8".into()),
                Tok::Close(')'),
                Tok::Punct("->"),
                Tok::Ident("u8".into()),
                Tok::Open('{'),
                Tok::Ident("x".into()),
                Tok::Close('}'),
            ]
        );
    }

    #[test]
    fn float_vs_range() {
        assert_eq!(kinds("1.5"), vec![Tok::Float]);
        assert_eq!(kinds("1."), vec![Tok::Float]);
        assert_eq!(kinds("1e3"), vec![Tok::Float]);
        assert_eq!(kinds("1.5e-3"), vec![Tok::Float]);
        assert_eq!(kinds("2f32"), vec![Tok::Float]);
        assert_eq!(kinds("1..2"), vec![Tok::Int, Tok::Punct(".."), Tok::Int]);
        assert_eq!(kinds("1..=2"), vec![Tok::Int, Tok::Punct("..="), Tok::Int]);
        assert_eq!(kinds("0xff"), vec![Tok::Int]);
        assert_eq!(kinds("1_000u64"), vec![Tok::Int]);
    }

    #[test]
    fn tuple_index_is_not_a_float() {
        assert_eq!(
            kinds("pair.0.1"),
            vec![
                Tok::Ident("pair".into()),
                Tok::Punct("."),
                Tok::Int,
                Tok::Punct("."),
                Tok::Int,
            ]
        );
    }

    #[test]
    fn integer_method_call_is_not_a_float() {
        assert_eq!(
            kinds("1.max(2)"),
            vec![
                Tok::Int,
                Tok::Punct("."),
                Tok::Ident("max".into()),
                Tok::Open('('),
                Tok::Int,
                Tok::Close(')'),
            ]
        );
    }

    #[test]
    fn char_vs_lifetime() {
        assert_eq!(kinds("'a'"), vec![Tok::Char]);
        assert_eq!(kinds("'a"), vec![Tok::Lifetime("a".into())]);
        assert_eq!(kinds("'static"), vec![Tok::Lifetime("static".into())]);
        assert_eq!(kinds("'\\''"), vec![Tok::Char]);
        assert_eq!(kinds("b'x'"), vec![Tok::Char]);
        assert_eq!(
            kinds("<'a, 'b>"),
            vec![
                Tok::Punct("<"),
                Tok::Lifetime("a".into()),
                Tok::Punct(","),
                Tok::Lifetime("b".into()),
                Tok::Punct(">"),
            ]
        );
    }

    #[test]
    fn string_flavours_collapse_to_one_token() {
        assert_eq!(kinds("\"a\\\"b\""), vec![Tok::Str]);
        assert_eq!(kinds("r\"no escape\""), vec![Tok::Str]);
        assert_eq!(kinds("r#\"with \" quote\"#"), vec![Tok::Str]);
        assert_eq!(kinds("br##\"double \"# fence\"##"), vec![Tok::Str]);
        assert_eq!(kinds("b\"bytes\""), vec![Tok::Str]);
        // Nothing inside a literal leaks out as tokens.
        assert_eq!(
            kinds("f(r#\"Instant::now() 1.5\"#)"),
            vec![
                Tok::Ident("f".into()),
                Tok::Open('('),
                Tok::Str,
                Tok::Close(')'),
            ]
        );
    }

    #[test]
    fn raw_ident_is_unescaped() {
        assert_eq!(kinds("r#match"), vec![Tok::Ident("match".into())]);
    }

    #[test]
    fn nested_block_comments_are_skipped() {
        assert_eq!(
            kinds("a /* x /* y */ z */ b"),
            vec![Tok::Ident("a".into()), Tok::Ident("b".into())]
        );
    }

    #[test]
    fn comments_come_back_with_line_and_text() {
        let (toks, comments) =
            lex("a // note\n/// doc\n/*! inner\n/* x */ y */ b //// plain\n/** */");
        assert_eq!(toks.len(), 2);
        let got: Vec<(usize, &str)> = comments.iter().map(|c| (c.line, c.text.as_str())).collect();
        assert_eq!(
            got,
            vec![
                (1, " note"),
                (2, "/ doc"),
                (3, "! inner\n x  y "),
                (4, "// plain"),
                (5, "* "),
            ]
        );
    }

    #[test]
    fn spells_matches_token_sequences() {
        let (toks, _) = lex("#[cfg(test)] x.unwrap()");
        assert!(spells(&toks, &["#", "[", "cfg", "(", "test", ")", "]"]));
        assert!(spells(&toks[7..], &["x", ".", "unwrap", "(", ")"]));
        assert!(!spells(&toks[7..], &["x", ".", "expect"]));
        assert!(!spells(&toks[10..], &[")", ")"]));
    }

    #[test]
    fn spans_are_one_based() {
        let (toks, _) = lex("x\n  y");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }
}
