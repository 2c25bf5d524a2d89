//! A minimal TOML reader for scenario specs.
//!
//! The build environment vendors its dependencies, and none of them parse
//! TOML — so the scenario engine carries its own reader for the subset the
//! spec schema uses, producing the same [`Value`] tree `serde_json` works on
//! (specs deserialize through the exact same `Deserialize` impls either way):
//!
//! * `[table]`, `[dotted.table]` and `[[array.of.tables]]` headers,
//! * bare / quoted / dotted keys,
//! * basic (`"…"` with escapes) and literal (`'…'`) strings,
//! * integers (with `_` separators), floats, booleans,
//! * arrays (multi-line allowed) and inline tables,
//! * `#` comments.
//!
//! Dates, multi-line strings and exotic escapes are not part of the schema
//! and are rejected with a line-numbered error rather than misparsed. So is
//! nesting deeper than `MAX_NESTING` (32): arrays and inline tables parse
//! recursively, and an unbounded document would overflow the stack.

use serde::Value;

/// The deepest nesting the reader accepts, counted separately for nested
/// arrays/inline tables and for the segments of one dotted key. The spec
/// schema needs at most 3.
const MAX_NESTING: usize = 32;

/// A parsed TOML document.
#[derive(Debug)]
pub struct Document {
    /// The document as a [`Value::Map`] tree.
    pub value: Value,
    /// The key path and line of every `[[array.of.tables]]` header, in
    /// document order, however the header spells its keys (`[[ a ]]`,
    /// `[["a"]]`). The value tree carries no spans, so this is how errors
    /// about an array entry point into the file.
    pub array_headers: Vec<(Vec<String>, usize)>,
}

/// Parses a TOML document.
pub fn parse(input: &str) -> Result<Document, String> {
    let mut parser = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
        line: 1,
        depth: 0,
    };
    let mut root = Value::Map(Vec::new());
    let mut array_headers = Vec::new();
    // Path of the table currently being filled by key/value lines.
    let mut current: Vec<String> = Vec::new();
    loop {
        parser.skip_trivia();
        let Some(b) = parser.peek() else { break };
        if b == b'[' {
            parser.advance();
            let array_of_tables = parser.peek() == Some(b'[');
            if array_of_tables {
                parser.advance();
            }
            let path = parser.parse_key_path()?;
            parser.expect(b']')?;
            if array_of_tables {
                parser.expect(b']')?;
            }
            parser.end_of_line()?;
            if array_of_tables {
                let (parent_path, leaf) = path.split_at(path.len() - 1);
                let parent = navigate(&mut root, parent_path, parser.line)?;
                push_array_table(parent, &leaf[0], parser.line)?;
                array_headers.push((path.clone(), parser.line));
            } else {
                navigate(&mut root, &path, parser.line)?;
            }
            current = path;
        } else {
            let path = parser.parse_key_path()?;
            parser.expect(b'=')?;
            let value = parser.parse_value()?;
            parser.end_of_line()?;
            let table = navigate(&mut root, &current, parser.line)?;
            insert_at(table, &path, value, parser.line)?;
        }
    }
    Ok(Document {
        value: root,
        array_headers,
    })
}

/// Walks `path` from `root`, creating empty tables as needed, entering the
/// **last** element of any array-of-tables on the way (standard TOML
/// resolution). Returns the table at the end of the path.
fn navigate<'a>(
    root: &'a mut Value,
    path: &[String],
    line: usize,
) -> Result<&'a mut Value, String> {
    let mut node = root;
    for seg in path {
        // Enter the newest element when the cursor sits on an array of tables.
        if let Value::Seq(items) = node {
            node = items
                .last_mut()
                .ok_or_else(|| format!("line {line}: empty array of tables"))?;
        }
        let Value::Map(entries) = node else {
            return Err(format!("line {line}: `{seg}` is not a table"));
        };
        if !entries.iter().any(|(k, _)| k == seg) {
            entries.push((seg.clone(), Value::Map(Vec::new())));
        }
        let idx = entries
            .iter()
            .position(|(k, _)| k == seg)
            .expect("just ensured the key exists");
        node = &mut entries[idx].1;
    }
    if let Value::Seq(items) = node {
        node = items
            .last_mut()
            .ok_or_else(|| format!("line {line}: empty array of tables"))?;
    }
    match node {
        Value::Map(_) => Ok(node),
        _ => Err(format!("line {line}: path does not name a table")),
    }
}

/// Appends a fresh table to the array of tables `key` inside `parent`.
fn push_array_table(parent: &mut Value, key: &str, line: usize) -> Result<(), String> {
    let Value::Map(entries) = parent else {
        return Err(format!("line {line}: parent of `{key}` is not a table"));
    };
    match entries.iter_mut().find(|(k, _)| k == key) {
        Some((_, Value::Seq(items))) => {
            items.push(Value::Map(Vec::new()));
            Ok(())
        }
        Some(_) => Err(format!(
            "line {line}: `{key}` is already defined and is not an array of tables"
        )),
        None => {
            entries.push((key.to_string(), Value::Seq(vec![Value::Map(Vec::new())])));
            Ok(())
        }
    }
}

/// Inserts `value` at (possibly dotted) `path` inside `table`, creating
/// intermediate tables; duplicate keys are an error.
fn insert_at(table: &mut Value, path: &[String], value: Value, line: usize) -> Result<(), String> {
    let (leaf, parents) = path.split_last().expect("keys are never empty");
    let target = navigate(table, parents, line)?;
    let Value::Map(entries) = target else {
        unreachable!("navigate returns tables");
    };
    if entries.iter().any(|(k, _)| k == leaf) {
        return Err(format!("line {line}: duplicate key `{leaf}`"));
    }
    entries.push((leaf.clone(), value));
    Ok(())
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    /// Arrays and inline tables currently open around the cursor.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// The character at the cursor, decoded for error messages (a non-ASCII
    /// byte printed `as char` would read as Latin-1).
    fn peek_char(&self) -> char {
        self.input
            .get(self.pos..)
            .and_then(|rest| rest.chars().next())
            .unwrap_or(char::REPLACEMENT_CHARACTER)
    }

    fn nesting_error(&self) -> String {
        format!("line {}: nesting deeper than {MAX_NESTING}", self.line)
    }

    fn advance(&mut self) {
        if self.peek() == Some(b'\n') {
            self.line += 1;
        }
        self.pos += 1;
    }

    /// Skips spaces and tabs (not newlines).
    fn skip_spaces(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.advance();
        }
    }

    /// Skips whitespace, newlines and comments — the between-statements state.
    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(b' ' | b'\t' | b'\n' | b'\r') => self.advance(),
                Some(b'#') => self.skip_comment(),
                _ => break,
            }
        }
    }

    fn skip_comment(&mut self) {
        while let Some(b) = self.peek() {
            if b == b'\n' {
                break;
            }
            self.advance();
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_spaces();
        if self.peek() == Some(b) {
            self.advance();
            Ok(())
        } else {
            Err(format!("line {}: expected `{}`", self.line, b as char))
        }
    }

    /// Requires the rest of the line to be blank (or a comment).
    fn end_of_line(&mut self) -> Result<(), String> {
        self.skip_spaces();
        match self.peek() {
            None | Some(b'\n') => Ok(()),
            Some(b'\r') => Ok(()),
            Some(b'#') => {
                self.skip_comment();
                Ok(())
            }
            Some(_) => Err(format!(
                "line {}: unexpected `{}` after value",
                self.line,
                self.peek_char()
            )),
        }
    }

    /// Parses a dotted key path (`a.b."c d"`).
    fn parse_key_path(&mut self) -> Result<Vec<String>, String> {
        let mut path = Vec::new();
        loop {
            if path.len() == MAX_NESTING {
                return Err(self.nesting_error());
            }
            self.skip_spaces();
            path.push(self.parse_key()?);
            self.skip_spaces();
            if self.peek() == Some(b'.') {
                self.advance();
            } else {
                return Ok(path);
            }
        }
    }

    fn parse_key(&mut self) -> Result<String, String> {
        match self.peek() {
            Some(b'"') => self.parse_basic_string(),
            Some(b'\'') => self.parse_literal_string(),
            Some(b) if b.is_ascii_alphanumeric() || b == b'_' || b == b'-' => {
                let start = self.pos;
                while matches!(self.peek(), Some(b) if b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
                {
                    self.advance();
                }
                Ok(std::str::from_utf8(&self.bytes[start..self.pos])
                    .expect("ASCII key")
                    .to_string())
            }
            _ => Err(format!("line {}: expected a key", self.line)),
        }
    }

    fn parse_value(&mut self) -> Result<Value, String> {
        self.skip_spaces();
        match self.peek() {
            Some(b'"') => self.parse_basic_string().map(Value::Str),
            Some(b'\'') => self.parse_literal_string().map(Value::Str),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_inline_table),
            Some(b't' | b'f') => self.parse_bool(),
            Some(b) if b == b'-' || b == b'+' || b.is_ascii_digit() => self.parse_number(),
            _ => Err(format!("line {}: expected a value", self.line)),
        }
    }

    /// Runs a recursive `parse` one nesting level deeper, refusing to go
    /// past `MAX_NESTING`.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_NESTING {
            return Err(self.nesting_error());
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_bool(&mut self) -> Result<Value, String> {
        for (lit, val) in [("true", true), ("false", false)] {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                return Ok(Value::Bool(val));
            }
        }
        Err(format!("line {}: invalid literal", self.line))
    }

    fn parse_number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'_' | b'-' | b'+' => self.advance(),
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.advance();
                }
                _ => break,
            }
        }
        let text: String = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ASCII number")
            .chars()
            .filter(|c| *c != '_')
            .collect();
        let err =
            |e: &dyn std::fmt::Display| format!("line {}: invalid number `{text}`: {e}", self.line);
        if is_float {
            text.parse::<f64>().map(Value::F64).map_err(|e| err(&e))
        } else if text.starts_with('-') {
            text.parse::<i64>().map(Value::I64).map_err(|e| err(&e))
        } else {
            text.parse::<u64>().map(Value::U64).map_err(|e| err(&e))
        }
    }

    fn parse_basic_string(&mut self) -> Result<String, String> {
        self.advance(); // opening quote
        let mut out = String::new();
        loop {
            match self.peek() {
                None | Some(b'\n') => {
                    return Err(format!("line {}: unterminated string", self.line))
                }
                Some(b'"') => {
                    self.advance();
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.advance();
                    let esc = self
                        .peek()
                        .ok_or_else(|| format!("line {}: unterminated escape", self.line))?;
                    out.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        _ => {
                            return Err(format!(
                                "line {}: unsupported escape `\\{}`",
                                self.line,
                                self.peek_char()
                            ))
                        }
                    });
                    self.advance();
                }
                Some(_) => {
                    // Consume one UTF-8 sequence.
                    let start = self.pos;
                    self.advance();
                    while matches!(self.peek(), Some(b) if (b & 0xC0) == 0x80) {
                        self.advance();
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|e| format!("line {}: invalid utf-8: {e}", self.line))?,
                    );
                }
            }
        }
    }

    fn parse_literal_string(&mut self) -> Result<String, String> {
        self.advance(); // opening quote
        let start = self.pos;
        loop {
            match self.peek() {
                None | Some(b'\n') => {
                    return Err(format!("line {}: unterminated string", self.line))
                }
                Some(b'\'') => {
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|e| format!("line {}: invalid utf-8: {e}", self.line))?
                        .to_string();
                    self.advance();
                    return Ok(s);
                }
                Some(_) => self.advance(),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, String> {
        self.advance(); // `[`
        let mut items = Vec::new();
        loop {
            self.skip_trivia();
            if self.peek() == Some(b']') {
                self.advance();
                return Ok(Value::Seq(items));
            }
            items.push(self.parse_value()?);
            self.skip_trivia();
            match self.peek() {
                Some(b',') => self.advance(),
                Some(b']') => {}
                _ => return Err(format!("line {}: expected `,` or `]`", self.line)),
            }
        }
    }

    fn parse_inline_table(&mut self) -> Result<Value, String> {
        self.advance(); // `{`
        let mut table = Value::Map(Vec::new());
        loop {
            self.skip_spaces();
            if self.peek() == Some(b'}') {
                self.advance();
                return Ok(table);
            }
            let path = self.parse_key_path()?;
            self.expect(b'=')?;
            let value = self.parse_value()?;
            insert_at(&mut table, &path, value, self.line)?;
            self.skip_spaces();
            match self.peek() {
                Some(b',') => self.advance(),
                Some(b'}') => {}
                _ => return Err(format!("line {}: expected `,` or `}}`", self.line)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::value_get;

    fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
        value_get(v.as_map().expect("table"), key).expect(key)
    }

    #[test]
    fn parses_scalars_tables_and_comments() {
        let doc = r#"
# a scenario
name = "demo"          # inline comment
seed = 42
ratio = 0.5
negative = -3
big = 1_000_000
on = true
label = 'literal #not a comment'

[adversary]
mode = "online"

[adversary.train]
train_sessions = 2
"#;
        let v = parse(doc).expect("parses").value;
        assert_eq!(get(&v, "name"), &Value::Str("demo".into()));
        assert_eq!(get(&v, "seed"), &Value::U64(42));
        assert_eq!(get(&v, "ratio"), &Value::F64(0.5));
        assert_eq!(get(&v, "negative"), &Value::I64(-3));
        assert_eq!(get(&v, "big"), &Value::U64(1_000_000));
        assert_eq!(get(&v, "on"), &Value::Bool(true));
        assert_eq!(
            get(&v, "label"),
            &Value::Str("literal #not a comment".into())
        );
        let adversary = get(&v, "adversary");
        assert_eq!(get(adversary, "mode"), &Value::Str("online".into()));
        assert_eq!(
            get(get(adversary, "train"), "train_sessions"),
            &Value::U64(2)
        );
    }

    #[test]
    fn parses_arrays_of_tables_with_nested_members() {
        let doc = r#"
[[stations]]
app = "bt"
count = 4

[[stations.defense]]
stage = "morphing"

[[stations.defense]]
stage = "reshape"
algorithm = "or"

[[stations]]
app = "video"
defense = "padding"
"#;
        let v = parse(doc).expect("parses").value;
        let stations = get(&v, "stations").as_seq().expect("array of tables");
        assert_eq!(stations.len(), 2);
        assert_eq!(get(&stations[0], "count"), &Value::U64(4));
        let defense = get(&stations[0], "defense").as_seq().expect("nested array");
        assert_eq!(defense.len(), 2);
        assert_eq!(get(&defense[1], "algorithm"), &Value::Str("or".into()));
        assert_eq!(get(&stations[1], "defense"), &Value::Str("padding".into()));
    }

    #[test]
    fn parses_inline_tables_arrays_and_dotted_keys() {
        let doc = r#"
window.secs = 5.0
events = [ { at_secs = 10.0, kind = "splice" }, { at_secs = 20.0, kind = "depart" } ]
sizes = [
    1, 2,
    3, # trailing
]
"#;
        let v = parse(doc).expect("parses").value;
        assert_eq!(get(get(&v, "window"), "secs"), &Value::F64(5.0));
        let events = get(&v, "events").as_seq().expect("array");
        assert_eq!(get(&events[1], "kind"), &Value::Str("depart".into()));
        assert_eq!(
            get(&v, "sizes"),
            &Value::Seq(vec![Value::U64(1), Value::U64(2), Value::U64(3)])
        );
    }

    #[test]
    fn rejects_malformed_documents_with_line_numbers() {
        assert!(parse("key = ").is_err());
        assert!(parse("= 3").is_err());
        assert!(parse("a = 1\na = 2").unwrap_err().contains("line 2"));
        assert!(parse("a = \"unterminated").is_err());
        assert!(parse("[t]\nx = 1 garbage").is_err());
        assert!(parse("a = 2020-01-01").is_err(), "dates are not supported");
    }

    #[test]
    fn deep_nesting_is_a_line_numbered_error_not_a_stack_overflow() {
        let deep_key = vec!["a"; 1_000_000].join(".");
        for doc in [
            format!("name = {}", "[".repeat(100_000)),
            format!("name = {}", "{a = ".repeat(100_000)),
            format!("{deep_key} = 1"),
            format!("[{deep_key}]"),
            format!("y = {}", "[".repeat(MAX_NESTING + 1)),
        ] {
            let err = parse(&format!("x = 1\n\n{doc}")).expect_err("nesting past the limit");
            assert!(err.starts_with("line 3: nesting deeper than 32"), "{err}");
        }
        // The limit itself still parses.
        let at_limit = format!("a = {}{}", "[".repeat(MAX_NESTING), "]".repeat(MAX_NESTING));
        assert!(parse(&at_limit).is_ok());
        let key_at_limit = format!("{} = 1", vec!["a"; MAX_NESTING].join("."));
        assert!(parse(&key_at_limit).is_ok());
    }

    #[test]
    fn errors_quote_the_offending_character_decoded() {
        let err = parse("a = 1 é = 1").unwrap_err();
        assert_eq!(err, "line 1: unexpected `é` after value");
        let err = parse("a = \"\\é\"").unwrap_err();
        assert_eq!(err, "line 1: unsupported escape `\\é`");
    }
}
