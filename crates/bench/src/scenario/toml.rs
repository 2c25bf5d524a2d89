//! A minimal TOML reader for scenario specs, and the typed field reader the
//! spec schema is read through.
//!
//! The build environment vendors its dependencies, and none of them parse
//! TOML — so the scenario engine carries its own reader for the subset the
//! spec schema uses. [`parse`] turns text into a [`Table`] tree that records
//! the line of every key and table:
//!
//! * `[table]`, `[dotted.table]` and `[[array.of.tables]]` headers,
//! * bare / quoted / dotted keys,
//! * basic (`"…"` with escapes) and literal (`'…'`) strings,
//! * integers (with `_` separators) and floats,
//! * arrays (multi-line allowed) and inline tables,
//! * `#` comments.
//!
//! Booleans, dates, multi-line strings, `nan`, `inf` and exotic escapes are
//! not part of the schema and are rejected with a line-numbered error
//! rather than misparsed (a spec writes infinity as `1e400`). So is nesting
//! deeper than `MAX_NESTING` (32): arrays and inline tables parse
//! recursively, and an unbounded document would overflow the stack.
//!
//! The schema in [`spec`](super::spec) reads the tree through `Fields`,
//! whose getters mark each key they read, so an unknown key is rejected
//! without a list of allowed ones. [`Lines`] keeps a loaded element's key
//! lines for `ScenarioSpec::build`. Every spec error reads `path:line: key:
//! message`; [`parse`] starts its errors at the line, and
//! [`load_spec`](super::load_spec) puts the path in front.

use std::fmt::{self, Display};

/// The deepest nesting the reader accepts, counted separately for nested
/// arrays/inline tables and for the segments of one dotted key. The spec
/// schema needs at most 3.
const MAX_NESTING: usize = 32;

/// A TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string.
    Str(String),
    /// An integer. Every `i64` and `u64` fits, so a value outside its key's
    /// range is an error that names the key, not a syntax error.
    Int(i128),
    /// A float.
    Float(f64),
    /// An array.
    Array(Vec<Value>),
    /// A `[table]`, an `[[array.of.tables]]` entry or an inline table.
    Table(Table),
}

/// How an error quotes a value: scalars as written (`-1.0`, `1e300`,
/// `"bt"`), arrays and tables by kind.
impl Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Int(n) => write!(f, "{n}"),
            Value::Float(x) => write!(f, "{x:?}"),
            Value::Array(_) => f.write_str("an array"),
            Value::Table(_) => f.write_str("a table"),
        }
    }
}

/// A table of a parsed document; [`parse`] returns the root.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// The line of the header, key or `{` that opened the table; 1 for the
    /// root.
    pub line: usize,
    /// `(key, line, value)` in document order.
    pub entries: Vec<(String, usize, Value)>,
}

impl Table {
    fn new(line: usize) -> Self {
        Table {
            line,
            entries: Vec::new(),
        }
    }
}

/// Parses a TOML document into its root table.
pub fn parse(input: &str) -> Result<Table, String> {
    let mut parser = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
        line: 1,
        depth: 0,
    };
    let mut root = Table::new(1);
    // Path of the table currently being filled by key/value lines.
    let mut current: Vec<String> = Vec::new();
    loop {
        parser.skip_trivia();
        let Some(b) = parser.peek() else { break };
        let line = parser.line;
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
                let (leaf, parent_path) = path.split_last().expect("keys are never empty");
                push_array_table(navigate(&mut root, parent_path, line)?, leaf, line)?;
            } else {
                navigate(&mut root, &path, line)?;
            }
            current = path;
        } else {
            let path = parser.parse_key_path()?;
            parser.expect(b'=')?;
            let value = parser.parse_value()?;
            parser.end_of_line()?;
            insert_at(navigate(&mut root, &current, line)?, &path, value, line)?;
        }
    }
    Ok(root)
}

/// Walks `path` from `table`, creating empty tables as needed, entering the
/// **last** element of any array of tables on the way (standard TOML
/// resolution). Returns the table at the end of the path.
fn navigate<'a>(
    mut table: &'a mut Table,
    path: &[String],
    line: usize,
) -> Result<&'a mut Table, String> {
    for seg in path {
        let index = match table.entries.iter().position(|(k, ..)| k == seg) {
            Some(index) => index,
            None => {
                let fresh = Value::Table(Table::new(line));
                table.entries.push((seg.clone(), line, fresh));
                table.entries.len() - 1
            }
        };
        table = match &mut table.entries[index].2 {
            Value::Table(t) => t,
            Value::Array(items) => match items.last_mut() {
                Some(Value::Table(t)) => t,
                _ => return Err(format!("{line}: `{seg}` is not a table")),
            },
            _ => return Err(format!("{line}: `{seg}` is not a table")),
        };
    }
    Ok(table)
}

/// Appends a fresh table to the array of tables `key` inside `parent`.
fn push_array_table(parent: &mut Table, key: &str, line: usize) -> Result<(), String> {
    let fresh = Value::Table(Table::new(line));
    match parent.entries.iter_mut().find(|(k, ..)| k == key) {
        Some((.., Value::Array(items))) => items.push(fresh),
        Some(_) => {
            return Err(format!(
                "{line}: `{key}` is already defined and is not an array of tables"
            ))
        }
        None => parent
            .entries
            .push((key.to_string(), line, Value::Array(vec![fresh]))),
    }
    Ok(())
}

/// Inserts `value` at (possibly dotted) `path` inside `table`, creating
/// intermediate tables; duplicate keys are an error.
fn insert_at(table: &mut Table, path: &[String], value: Value, line: usize) -> Result<(), String> {
    let (leaf, parents) = path.split_last().expect("keys are never empty");
    let target = navigate(table, parents, line)?;
    if target.entries.iter().any(|(k, ..)| k == leaf) {
        return Err(format!("{line}: duplicate key `{leaf}`"));
    }
    target.entries.push((leaf.clone(), line, value));
    Ok(())
}

/// A type a spec field reads as.
pub(crate) trait FromValue: Sized {
    /// Reads `value`, or says what was expected instead.
    fn from_value(value: &Value) -> Result<Self, String>;
}

impl FromValue for f64 {
    fn from_value(value: &Value) -> Result<Self, String> {
        match *value {
            Value::Float(x) => Ok(x),
            Value::Int(n) => Ok(n as f64),
            ref other => Err(format!("expected a number, found {other}")),
        }
    }
}

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl FromValue for $t {
            fn from_value(value: &Value) -> Result<Self, String> {
                match *value {
                    Value::Int(n) => <$t>::try_from(n).map_err(|_| {
                        format!("expected an integer from 0 to {}, found {n}", <$t>::MAX)
                    }),
                    ref other => Err(format!("expected an integer, found {other}")),
                }
            }
        }
    )*};
}
unsigned!(u64, usize);

impl FromValue for String {
    fn from_value(value: &Value) -> Result<Self, String> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            other => Err(format!("expected a string, found {other}")),
        }
    }
}

/// Reads one table of a spec file into typed fields. Each getter marks its
/// key read and cites the key's line when the value does not convert;
/// [`finish`](Self::finish) rejects the keys no getter read.
#[derive(Debug)]
pub(crate) struct Fields<'a> {
    file: &'a str,
    table: &'a Table,
    read: Vec<bool>,
}

impl<'a> Fields<'a> {
    /// A reader of `table`, citing `file` in its errors.
    pub fn new(file: &'a str, table: &'a Table) -> Self {
        let read = vec![false; table.entries.len()];
        Fields { file, table, read }
    }

    /// The lines of the table's keys, for [`Lines::cite`].
    pub fn lines(&self) -> Lines {
        let mut keys = Vec::new();
        record(&mut keys, "", self.table);
        let (file, line) = (self.file.to_string(), self.table.line);
        Lines { file, line, keys }
    }

    /// `file:line: key: message`, at the line of `key` (of the table when
    /// the key is absent).
    pub fn error(&self, key: &str, message: impl Display) -> String {
        self.lines().cite(key, message)
    }

    /// The value of `key`, marked read.
    pub fn value(&mut self, key: &str) -> Option<&'a Value> {
        let index = self.table.entries.iter().position(|(k, ..)| k == key)?;
        self.read[index] = true;
        Some(&self.table.entries[index].2)
    }

    /// The value of `key`; `None` when it is absent.
    pub fn optional<T: FromValue>(&mut self, key: &str) -> Result<Option<T>, String> {
        let value = self.value(key).map(T::from_value);
        value.transpose().map_err(|e| self.error(key, e))
    }

    /// The value of `key`, which must be present.
    pub fn required<T: FromValue>(&mut self, key: &str) -> Result<T, String> {
        let value = self.optional(key)?;
        value.ok_or_else(|| self.error(key, "missing"))
    }

    /// The string of `key` converted by `parse`; `None` when it is absent.
    pub fn parse<T>(
        &mut self,
        key: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        let value = self.optional::<String>(key)?.as_deref().map(parse);
        value.transpose().map_err(|e| self.error(key, e))
    }

    /// The sub-table `key` read by `read`; `None` when it is absent.
    pub fn table<T>(
        &mut self,
        key: &str,
        read: impl FnOnce(&mut Fields<'a>) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        let value = self.value(key);
        value.map(|value| self.nested(key, value, read)).transpose()
    }

    /// Every table of the array of tables `key`, each read by `read`; empty
    /// when the key is absent.
    pub fn tables<T>(
        &mut self,
        key: &str,
        mut read: impl FnMut(&mut Fields<'a>) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        match self.value(key) {
            None => Ok(Vec::new()),
            Some(Value::Array(items)) => items
                .iter()
                .map(|item| self.nested(key, item, &mut read))
                .collect(),
            Some(other) => Err(self.error(key, format!("expected tables, found {other}"))),
        }
    }

    /// Reads `value`, the table (or a table of the array) at `key`, with
    /// `read`, then rejects its unread keys.
    pub fn nested<T>(
        &self,
        key: &str,
        value: &'a Value,
        read: impl FnOnce(&mut Fields<'a>) -> Result<T, String>,
    ) -> Result<T, String> {
        let Value::Table(table) = value else {
            return Err(self.error(key, format!("expected a table, found {value}")));
        };
        let mut fields = Fields::new(self.file, table);
        let read = read(&mut fields)?;
        fields.finish()?;
        Ok(read)
    }

    /// Rejects the first key no getter read.
    pub fn finish(&self) -> Result<(), String> {
        match self.read.iter().position(|read| !read) {
            Some(index) => Err(self.error(&self.table.entries[index].0, "unknown key")),
            None => Ok(()),
        }
    }
}

/// Records every key of `table` and of the tables inside it under its dotted
/// path (`adversary.train.window_secs`, `defense[1].size`).
fn record(keys: &mut Vec<(String, usize)>, prefix: &str, table: &Table) {
    for (key, line, value) in &table.entries {
        let path = format!("{prefix}{key}");
        match value {
            Value::Table(t) => record(keys, &format!("{path}."), t),
            Value::Array(items) => {
                for (i, item) in items.iter().enumerate() {
                    if let Value::Table(t) = item {
                        record(keys, &format!("{path}[{i}]."), t);
                    }
                }
            }
            _ => {}
        }
        keys.push((path, *line));
    }
}

/// The file and lines a spec element (the scenario, a station group, an
/// event) was read from, so that a value check after loading can cite the
/// key it rejects. Empty for an element built in code.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Lines {
    file: String,
    line: usize,
    keys: Vec<(String, usize)>,
}

impl Lines {
    /// An error about `key`, a dotted path inside the element: `file:line:
    /// leaf: message` for a loaded element (at the element's own line when
    /// the key is absent), `key: message` for one built in code.
    pub fn cite(&self, key: &str, message: impl Display) -> String {
        if self.file.is_empty() {
            return format!("{key}: {message}");
        }
        let line = self.keys.iter().find(|(k, _)| k == key);
        let line = line.map_or(self.line, |k| k.1);
        let leaf = key.rsplit('.').next().unwrap_or(key);
        format!("{}:{line}: {leaf}: {message}", self.file)
    }
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

    /// An error at the cursor's line.
    fn error(&self, message: impl Display) -> String {
        format!("{}: {message}", self.line)
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
            Err(self.error(format_args!("expected `{}`", b as char)))
        }
    }

    /// Requires the rest of the line to be blank (or a comment).
    fn end_of_line(&mut self) -> Result<(), String> {
        self.skip_spaces();
        match self.peek() {
            None | Some(b'\n' | b'\r') => Ok(()),
            Some(b'#') => {
                self.skip_comment();
                Ok(())
            }
            Some(_) => Err(self.error(format_args!(
                "unexpected `{}` after value",
                self.peek_char()
            ))),
        }
    }

    /// Parses a dotted key path (`a.b."c d"`).
    fn parse_key_path(&mut self) -> Result<Vec<String>, String> {
        let mut path = Vec::new();
        loop {
            if path.len() == MAX_NESTING {
                return Err(self.error(format_args!("nesting deeper than {MAX_NESTING}")));
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
            Some(b'"' | b'\'') => self.parse_string(),
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
            _ => Err(self.error("expected a key")),
        }
    }

    fn parse_value(&mut self) -> Result<Value, String> {
        self.skip_spaces();
        match self.peek() {
            Some(b'"' | b'\'') => self.parse_string().map(Value::Str),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_inline_table),
            Some(b) if b == b'-' || b == b'+' || b.is_ascii_digit() => self.parse_number(),
            _ => Err(self.error("expected a value")),
        }
    }

    /// Runs a recursive `parse` one nesting level deeper, refusing to go
    /// past `MAX_NESTING`.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_NESTING {
            return Err(self.error(format_args!("nesting deeper than {MAX_NESTING}")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
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
        let err = |e: &dyn Display| self.error(format_args!("invalid number `{text}`: {e}"));
        if is_float {
            text.parse::<f64>().map(Value::Float).map_err(|e| err(&e))
        } else {
            text.parse::<i128>().map(Value::Int).map_err(|e| err(&e))
        }
    }

    /// Parses a basic (`"…"`, with escapes) or a literal (`'…'`) string.
    fn parse_string(&mut self) -> Result<String, String> {
        let quote = self.peek();
        self.advance();
        let mut out = String::new();
        loop {
            let c = match self.peek() {
                None | Some(b'\n') => return Err(self.error("unterminated string")),
                b if b == quote => {
                    self.advance();
                    return Ok(out);
                }
                Some(b'\\') if quote == Some(b'"') => {
                    self.advance();
                    match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        None => return Err(self.error("unterminated escape")),
                        Some(_) => {
                            let c = self.peek_char();
                            return Err(self.error(format_args!("unsupported escape `\\{c}`")));
                        }
                    }
                }
                Some(_) => self.peek_char(),
            };
            // An escape is one ASCII byte, like the character it stands for.
            out.push(c);
            self.pos += c.len_utf8();
        }
    }

    fn parse_array(&mut self) -> Result<Value, String> {
        self.advance(); // `[`
        let mut items = Vec::new();
        loop {
            self.skip_trivia();
            if self.peek() == Some(b']') {
                self.advance();
                return Ok(Value::Array(items));
            }
            items.push(self.parse_value()?);
            self.skip_trivia();
            match self.peek() {
                Some(b',') => self.advance(),
                Some(b']') => {}
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn parse_inline_table(&mut self) -> Result<Value, String> {
        self.advance(); // `{`
        let mut table = Table::new(self.line);
        loop {
            self.skip_spaces();
            if self.peek() == Some(b'}') {
                self.advance();
                return Ok(Value::Table(table));
            }
            let line = self.line;
            let path = self.parse_key_path()?;
            self.expect(b'=')?;
            let value = self.parse_value()?;
            insert_at(&mut table, &path, value, line)?;
            self.skip_spaces();
            match self.peek() {
                Some(b',') => self.advance(),
                Some(b'}') => {}
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get<'a>(table: &'a Table, key: &str) -> &'a Value {
        &table.entries.iter().find(|(k, ..)| k == key).expect(key).2
    }

    fn table(value: &Value) -> &Table {
        match value {
            Value::Table(t) => t,
            other => panic!("not a table: {other:?}"),
        }
    }

    fn array(value: &Value) -> &[Value] {
        match value {
            Value::Array(items) => items,
            other => panic!("not an array: {other:?}"),
        }
    }

    /// The line `key` was written on in `table`.
    fn line_of(table: &Table, key: &str) -> usize {
        table.entries.iter().find(|(k, ..)| k == key).expect(key).1
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
label = 'literal #not a comment'

[adversary]
mode = "online"

[adversary.train]
train_sessions = 2
"#;
        let root = parse(doc).expect("parses");
        assert_eq!(get(&root, "name"), &Value::Str("demo".into()));
        assert_eq!(get(&root, "seed"), &Value::Int(42));
        assert_eq!(get(&root, "ratio"), &Value::Float(0.5));
        assert_eq!(get(&root, "negative"), &Value::Int(-3));
        assert_eq!(get(&root, "big"), &Value::Int(1_000_000));
        assert_eq!(
            get(&root, "label"),
            &Value::Str("literal #not a comment".into())
        );
        let adversary = table(get(&root, "adversary"));
        assert_eq!(get(adversary, "mode"), &Value::Str("online".into()));
        let train = table(get(adversary, "train"));
        assert_eq!(get(train, "train_sessions"), &Value::Int(2));
        // Every key and table knows its line.
        assert_eq!(line_of(&root, "name"), 3);
        assert_eq!((adversary.line, line_of(adversary, "mode")), (10, 11));
        assert_eq!((train.line, line_of(train, "train_sessions")), (13, 14));
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
        let root = parse(doc).expect("parses");
        let stations = array(get(&root, "stations"));
        assert_eq!(stations.len(), 2);
        assert_eq!(get(table(&stations[0]), "count"), &Value::Int(4));
        let defense = array(get(table(&stations[0]), "defense"));
        assert_eq!(defense.len(), 2);
        assert_eq!(
            get(table(&defense[1]), "algorithm"),
            &Value::Str("or".into())
        );
        assert_eq!(
            get(table(&stations[1]), "defense"),
            &Value::Str("padding".into())
        );
        // Each entry of an array of tables opens on its header's line.
        assert_eq!(table(&stations[1]).line, 13);
        assert_eq!(table(&defense[1]).line, 9);
        assert_eq!(line_of(table(&defense[1]), "algorithm"), 11);
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
        let root = parse(doc).expect("parses");
        assert_eq!(get(table(get(&root, "window")), "secs"), &Value::Float(5.0));
        let events = array(get(&root, "events"));
        assert_eq!(get(table(&events[1]), "kind"), &Value::Str("depart".into()));
        assert_eq!(
            get(&root, "sizes"),
            &Value::Array(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
        );
        // A multi-line value sits on its key's line.
        assert_eq!(line_of(&root, "sizes"), 4);
    }

    #[test]
    fn rejects_malformed_documents_with_line_numbers() {
        assert!(parse("key = ").is_err());
        assert!(parse("= 3").is_err());
        assert!(parse("a = 1\na = 2")
            .unwrap_err()
            .starts_with("2: duplicate key `a`"));
        assert!(parse("a = \"unterminated").is_err());
        assert!(parse("[t]\nx = 1 garbage").is_err());
        assert!(parse("a = 2020-01-01").is_err(), "dates are not supported");
        assert!(parse("a = true").is_err(), "no spec key is a boolean");
        for literal in ["nan", "inf", "-nan", "+inf"] {
            let err = parse(&format!("\na = {literal}")).unwrap_err();
            assert!(err.starts_with("2: "), "{literal}: {err}");
        }
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
            assert!(err.starts_with("3: nesting deeper than 32"), "{err}");
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
        assert_eq!(err, "1: unexpected `é` after value");
        let err = parse("a = \"\\é\"").unwrap_err();
        assert_eq!(err, "1: unsupported escape `\\é`");
    }

    #[test]
    fn lines_cite_a_key_by_file_and_line_or_by_its_path() {
        let root =
            parse("[[stations]]\napp = 'bt'\n[[stations.defense]]\nsize = 0\n").expect("parses");
        let lines = Fields::new("f.toml", &root).lines();
        let err = lines.cite("stations[0].defense[0].size", "bad");
        assert_eq!(err, "f.toml:4: size: bad");
        // A key the file leaves out is cited at the element's own line.
        assert_eq!(lines.cite("seed", "bad"), "f.toml:1: seed: bad");
        // Built in code, the key path stands in for the line.
        let err = Lines::default().cite("adversary.train.window_secs", "bad");
        assert_eq!(err, "adversary.train.window_secs: bad");
    }
}
