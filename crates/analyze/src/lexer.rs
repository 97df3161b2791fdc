//! A small hand-rolled Rust lexer: just enough syntax awareness to
//! lint mechanically without `syn` or the compiler.
//!
//! The lexer produces three views of a source file:
//!
//! * a **code view** — the original text with every comment, string
//!   literal and char literal blanked to spaces (newlines preserved),
//!   so token scans never match inside prose or data;
//! * a **test map** — per-line flags marking every line that belongs
//!   to a `#[cfg(test)]` / `#[test]` item (attribute through closing
//!   brace), so lints can exempt test code;
//! * the **line comments**, with their text, from which lints read
//!   `// lint: <tag>` waivers and `// lock-order: A < B` declarations.
//!
//! Handled syntax: line comments (`//`, `///`, `//!`), nested block
//! comments, plain/byte strings with escapes, raw (byte) strings with
//! any number of `#`s, char and byte-char literals, and the char
//! literal vs. lifetime ambiguity (`'a'` vs `'a`). That is everything
//! token scanning needs; full expression parsing is deliberately out
//! of scope.

/// One `//` comment, with the text after the slashes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LineComment {
    /// 1-based line the comment starts on.
    pub line: usize,
    /// Comment text after `//` (and after any further `/` or `!`),
    /// trimmed.
    pub text: String,
    /// Whether the comment is alone on its line (only whitespace
    /// before the slashes). Standalone waivers cover the line below;
    /// trailing waivers cover only their own line.
    pub standalone: bool,
}

/// A lexed source file: code view plus side tables.
#[derive(Clone, Debug)]
pub struct Lexed {
    /// The code view: byte-for-byte the input, with comments and
    /// string/char literal contents replaced by spaces.
    pub code: String,
    /// `test_lines[i]` is true when 1-based line `i + 1` lies inside a
    /// `#[cfg(test)]` or `#[test]` item.
    pub test_lines: Vec<bool>,
    /// Every `//` comment in the file, in order.
    pub comments: Vec<LineComment>,
}

impl Lexed {
    /// 1-based line number of byte `offset` in the code view.
    pub fn line_of(&self, offset: usize) -> usize {
        self.code
            .as_bytes()
            .iter()
            .take(offset)
            .filter(|&&b| b == b'\n')
            .count()
            + 1
    }

    /// Whether 1-based line `line` is test code.
    pub fn is_test_line(&self, line: usize) -> bool {
        self.test_lines
            .get(line.saturating_sub(1))
            .copied()
            .unwrap_or(false)
    }

    /// The waiver covering `line` with one of `accepted` tags, if any:
    /// a trailing waiver covers its own line; a standalone waiver (a
    /// comment alone on its line) covers the line immediately below.
    /// Returns the 1-based line of the waiver comment itself and the
    /// matched tag — what a lint records as a [`crate::Suppression`]
    /// so the waiver-hygiene pass can tell used waivers from stale
    /// ones.
    pub fn waiver_match(&self, line: usize, accepted: &[&str]) -> Option<(usize, String)> {
        for c in &self.comments {
            let covers = if c.standalone {
                c.line + 1 == line
            } else {
                c.line == line
            };
            if !covers {
                continue;
            }
            let Some(rest) = c.text.strip_prefix("lint:") else {
                continue;
            };
            let spec = rest.split("--").next().unwrap_or("");
            for tag in spec.split(',').map(str::trim) {
                if accepted.contains(&tag) {
                    return Some((c.line, tag.to_string()));
                }
            }
        }
        None
    }
}

/// Lexes one source file.
pub fn lex(source: &str) -> Lexed {
    let bytes = source.as_bytes();
    let mut code = bytes.to_vec();
    let mut comments = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;

    // Blank byte `j` in the code view unless it is a newline.
    let blank = |code: &mut [u8], j: usize| {
        if code[j] != b'\n' {
            code[j] = b' ';
        }
    };

    while i < bytes.len() {
        let b = bytes[i];
        if b == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        // Line comment.
        if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
            let start = i;
            let standalone = bytes[..i]
                .iter()
                .rev()
                .take_while(|&&c| c != b'\n')
                .all(|c| c.is_ascii_whitespace());
            while i < bytes.len() && bytes[i] != b'\n' {
                blank(&mut code, i);
                i += 1;
            }
            let raw = &source[start + 2..i];
            let text = raw.trim_start_matches(['/', '!']).trim().to_string();
            comments.push(LineComment {
                line,
                text,
                standalone,
            });
            continue;
        }
        // Block comment, nested.
        if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
            let mut depth = 0usize;
            while i < bytes.len() {
                if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    blank(&mut code, i);
                    blank(&mut code, i + 1);
                    i += 2;
                } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    blank(&mut code, i);
                    blank(&mut code, i + 1);
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    blank(&mut code, i);
                    i += 1;
                }
            }
            continue;
        }
        // Raw (byte) string: r"...", r#"..."#, br"...", br#"..."#.
        if b == b'r' || b == b'b' {
            let prev_ident = i > 0 && is_ident_byte(bytes[i - 1]);
            if !prev_ident {
                if let Some(len) = raw_string_len(&bytes[i..]) {
                    for (j, &rb) in bytes.iter().enumerate().skip(i).take(len) {
                        if rb == b'\n' {
                            line += 1;
                        }
                        blank(&mut code, j);
                    }
                    i += len;
                    continue;
                }
            }
        }
        // Plain (byte) string.
        if b == b'"' {
            blank(&mut code, i);
            i += 1;
            while i < bytes.len() {
                match bytes[i] {
                    b'\\' => {
                        blank(&mut code, i);
                        if i + 1 < bytes.len() {
                            if bytes[i + 1] == b'\n' {
                                line += 1;
                            }
                            blank(&mut code, i + 1);
                        }
                        i += 2;
                    }
                    b'"' => {
                        blank(&mut code, i);
                        i += 1;
                        break;
                    }
                    c => {
                        if c == b'\n' {
                            line += 1;
                        }
                        blank(&mut code, i);
                        i += 1;
                    }
                }
            }
            continue;
        }
        // Char literal vs. lifetime.
        if b == b'\'' {
            let is_char = match bytes.get(i + 1) {
                Some(b'\\') => true,
                Some(&c) => {
                    // `'x'` is a char; `'x` (no closing quote within a
                    // couple of bytes) is a lifetime. Multi-byte chars
                    // ('\u{...}' aside) close within 5 bytes.
                    (1..=4).any(|k| {
                        bytes.get(i + 1 + k) == Some(&b'\'')
                            && (k == 1 || !c.is_ascii() || !is_ident_byte(c))
                    })
                }
                None => false,
            };
            if is_char {
                blank(&mut code, i);
                i += 1;
                if bytes.get(i) == Some(&b'\\') {
                    blank(&mut code, i);
                    i += 1;
                    // Escape body (possibly \u{..}): blank until the
                    // closing quote.
                    while i < bytes.len() && bytes[i] != b'\'' {
                        blank(&mut code, i);
                        i += 1;
                    }
                } else {
                    while i < bytes.len() && bytes[i] != b'\'' {
                        blank(&mut code, i);
                        i += 1;
                    }
                }
                if i < bytes.len() {
                    blank(&mut code, i);
                    i += 1;
                }
            } else {
                // Lifetime: skip the quote and the identifier.
                i += 1;
                while i < bytes.len() && is_ident_byte(bytes[i]) {
                    i += 1;
                }
            }
            continue;
        }
        i += 1;
    }

    let code = String::from_utf8(code).unwrap_or_default();
    let test_lines = mark_test_lines(&code);
    Lexed {
        code,
        test_lines,
        comments,
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Length of a raw string literal starting at `b` (`r`/`br` prefix
/// included), or `None` when `b` does not start one.
fn raw_string_len(b: &[u8]) -> Option<usize> {
    let mut i = 0usize;
    if b.first() == Some(&b'b') {
        i += 1;
    }
    if b.get(i) != Some(&b'r') {
        return None;
    }
    i += 1;
    let mut hashes = 0usize;
    while b.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    if b.get(i) != Some(&b'"') {
        return None;
    }
    i += 1;
    // Scan for `"` followed by `hashes` hashes.
    while i < b.len() {
        if b[i] == b'"'
            && b.get(i + 1..i + 1 + hashes)
                .is_some_and(|s| s.iter().all(|&h| h == b'#'))
        {
            return Some(i + 1 + hashes);
        }
        i += 1;
    }
    Some(b.len())
}

/// Marks every line belonging to a `#[cfg(test)]` / `#[test]` item.
/// Works on the code view, where brace matching is reliable.
fn mark_test_lines(code: &str) -> Vec<bool> {
    let n_lines = code.lines().count().max(code.ends_with('\n') as usize);
    let mut marks = vec![false; n_lines.max(1)];
    let bytes = code.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] != b'#' {
            i += 1;
            continue;
        }
        let Some((attr, attr_end)) = parse_attribute(bytes, i) else {
            i += 1;
            continue;
        };
        if !attribute_is_test(&attr) {
            i = attr_end;
            continue;
        }
        // Found a test attribute: the item extends past any further
        // attributes to the matching `}` of its first brace, or to the
        // first top-level `;` for brace-less items.
        let start_line = line_of_offset(bytes, i);
        let mut j = attr_end;
        loop {
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            if bytes.get(j) == Some(&b'#') {
                if let Some((_, e)) = parse_attribute(bytes, j) {
                    j = e;
                    continue;
                }
            }
            break;
        }
        let mut depth = 0usize;
        let mut end = bytes.len();
        while j < bytes.len() {
            match bytes[j] {
                b'{' => depth += 1,
                b'}' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        end = j + 1;
                        break;
                    }
                }
                b';' if depth == 0 => {
                    end = j + 1;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let end_line = line_of_offset(bytes, end.saturating_sub(1));
        for l in start_line..=end_line {
            if let Some(m) = marks.get_mut(l - 1) {
                *m = true;
            }
        }
        i = end;
    }
    marks
}

/// Parses an attribute starting at `#`: returns its inner text and the
/// offset just past the closing `]`.
fn parse_attribute(bytes: &[u8], start: usize) -> Option<(String, usize)> {
    let mut i = start + 1;
    if bytes.get(i) == Some(&b'!') {
        i += 1;
    }
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    if bytes.get(i) != Some(&b'[') {
        return None;
    }
    let open = i;
    let mut depth = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'[' => depth += 1,
            b']' => {
                depth -= 1;
                if depth == 0 {
                    let inner = String::from_utf8_lossy(&bytes[open + 1..i]).into_owned();
                    return Some((inner, i + 1));
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Whether an attribute body marks test-only code: `test`, or a
/// `cfg(...)` whose predicate mentions the `test` flag.
fn attribute_is_test(attr: &str) -> bool {
    let flat: String = attr.chars().filter(|c| !c.is_whitespace()).collect();
    if flat == "test" {
        return true;
    }
    if !flat.starts_with("cfg(") {
        return false;
    }
    // Word-boundary search for `test` inside the predicate.
    let b = flat.as_bytes();
    flat.match_indices("test").any(|(p, _)| {
        let before_ok = p == 0 || !is_ident_byte(b[p - 1]);
        let after = p + 4;
        let after_ok = after >= b.len() || !is_ident_byte(b[after]);
        before_ok && after_ok
    })
}

fn line_of_offset(bytes: &[u8], offset: usize) -> usize {
    bytes.iter().take(offset).filter(|&&b| b == b'\n').count() + 1
}

/// Finds word-boundary occurrences of `needle` in the code view,
/// returning 1-based lines. A match is word-bounded when the bytes
/// around it are not identifier bytes — so `HashMap` does not match
/// `MyHashMapLike`, while punctuation-delimited needles like
/// `.unwrap()` match exactly.
pub fn find_token_lines(lexed: &Lexed, needle: &str) -> Vec<usize> {
    let code = lexed.code.as_bytes();
    let first_is_ident = needle
        .as_bytes()
        .first()
        .copied()
        .is_some_and(is_ident_byte);
    let last_is_ident = needle.as_bytes().last().copied().is_some_and(is_ident_byte);
    let mut lines = Vec::new();
    for (pos, _) in lexed.code.match_indices(needle) {
        if first_is_ident && pos > 0 && is_ident_byte(code[pos - 1]) {
            continue;
        }
        let end = pos + needle.len();
        if last_is_ident && end < code.len() && is_ident_byte(code[end]) {
            continue;
        }
        lines.push(lexed.line_of(pos));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked() {
        let src = "let x = \"HashMap\"; // HashMap here\nlet y = 1; /* HashMap */ let z = 'H';\n";
        let l = lex(src);
        assert!(!l.code.contains("HashMap"), "code view: {}", l.code);
        assert_eq!(l.comments.len(), 1);
        assert_eq!(l.comments[0].text, "HashMap here");
        // Structure (offsets/newlines) is preserved.
        assert_eq!(l.code.len(), src.len());
        assert_eq!(l.code.lines().count(), 2);
    }

    #[test]
    fn raw_strings_and_escapes_are_blanked() {
        let src = r####"let a = r#"unwrap() "quoted" inside"#; let b = "esc \" .unwrap()"; let c = b"x.unwrap()";"####;
        let l = lex(src);
        assert!(!l.code.contains("unwrap"), "code view: {}", l.code);
    }

    #[test]
    fn lifetimes_survive_char_literals_do_not() {
        let src = "fn f<'a>(x: &'a str) -> char { let c = 'x'; let d = '\\n'; let e = '{'; c }";
        let l = lex(src);
        assert!(l.code.contains("<'a>"), "lifetime kept: {}", l.code);
        assert!(l.code.contains("&'a str"));
        assert!(!l.code.contains("'x'"), "char blanked: {}", l.code);
        assert!(l.code.contains('{'), "braces outside chars kept");
        // The '{' char literal must not unbalance brace matching.
        let opens = l.code.matches('{').count();
        let closes = l.code.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn cfg_test_items_are_marked_to_their_closing_brace() {
        let src = "\
fn live() {
    x.unwrap();
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        y.unwrap();
    }
}

fn live_again() {}
";
        let l = lex(src);
        assert!(!l.is_test_line(2), "live code is not test");
        assert!(l.is_test_line(5), "attribute line is test");
        assert!(l.is_test_line(9), "body is test");
        assert!(l.is_test_line(11), "closing brace is test");
        assert!(!l.is_test_line(13), "code after the mod is live");
    }

    #[test]
    fn test_attribute_variants_are_recognized() {
        assert!(attribute_is_test("test"));
        assert!(attribute_is_test("cfg(test)"));
        assert!(attribute_is_test("cfg(all(test, unix))"));
        assert!(attribute_is_test("cfg(any(test, fuzzing))"));
        assert!(!attribute_is_test("cfg(feature = \"latest\")"));
        assert!(!attribute_is_test("cfg(unix)"));
        assert!(!attribute_is_test("derive(Debug)"));
    }

    #[test]
    fn waivers_cover_their_line_and_the_next() {
        let src = "\
// lint: poison-loud -- frame path fails fast
let a = m.lock().expect(\"poisoned\");
let b = m.lock().expect(\"poisoned\"); // lint: poison-loud, hot-path
let c = m.lock().expect(\"poisoned\");
";
        let l = lex(src);
        let waived = |line, tags| l.waiver_match(line, tags).is_some();
        assert_eq!(
            l.waiver_match(2, &["poison-loud"]),
            Some((1, "poison-loud".into()))
        );
        assert!(waived(3, &["hot-path"]));
        assert!(waived(3, &["poison-loud"]));
        assert!(!waived(4, &["poison-loud"]), "line 4 has no waiver");
        assert!(!waived(2, &["format-const"]), "wrong tag rejected");
    }

    #[test]
    fn token_search_is_word_bounded() {
        let src =
            "use std::collections::HashMap;\nstruct MyHashMapLike;\nlet m: HashMap<u32, u8>;\n";
        let l = lex(src);
        assert_eq!(find_token_lines(&l, "HashMap"), vec![1, 3]);
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let src = "/* outer /* inner */ still comment */ fn f() {}";
        let l = lex(src);
        assert!(l.code.contains("fn f()"));
        assert!(!l.code.contains("outer"));
        assert!(!l.code.contains("still"));
    }
}
