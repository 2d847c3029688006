//! Minimal XML reading/writing used by the interchange formats.
//!
//! SDF3 exchanges models as XML; the paper's flow contribution is a
//! *common input format* consumed by both the mapping and the platform
//! generation tools (§2). This module implements the small XML subset those
//! formats need — elements, attributes, nesting; no namespaces, mixed
//! content, CDATA or processing instructions — with no external
//! dependencies.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// An XML element tree.
#[derive(Debug, Clone)]
pub struct Element {
    /// Tag name.
    pub name: String,
    /// Attributes in stable (sorted) order.
    pub attrs: BTreeMap<String, String>,
    /// Child elements.
    pub children: Vec<Element>,
    /// 1-based source line of the opening tag; 0 for built elements.
    pub line: usize,
}

/// Source position is diagnostic metadata: two trees are equal when
/// their names, attributes and children agree, wherever they were
/// parsed from.
impl PartialEq for Element {
    fn eq(&self, other: &Element) -> bool {
        self.name == other.name && self.attrs == other.attrs && self.children == other.children
    }
}

impl Eq for Element {}

impl Element {
    /// Creates an element with no attributes or children.
    pub fn new(name: impl Into<String>) -> Element {
        Element {
            name: name.into(),
            attrs: BTreeMap::new(),
            children: Vec::new(),
            line: 0,
        }
    }

    /// Adds an attribute (builder style).
    pub fn attr(mut self, key: impl Into<String>, value: impl ToString) -> Element {
        self.attrs.insert(key.into(), value.to_string());
        self
    }

    /// Adds a child (builder style).
    pub fn child(mut self, child: Element) -> Element {
        self.children.push(child);
        self
    }

    /// Looks up an attribute.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.attrs.get(key).map(|s| s.as_str())
    }

    /// Looks up a required attribute.
    ///
    /// # Errors
    ///
    /// [`XmlError::MissingAttr`] when absent.
    pub fn req(&self, key: &str) -> Result<&str, XmlError> {
        self.get(key)
            .ok_or_else(|| XmlError::MissingAttr(self.name.clone(), key.to_string(), self.line))
    }

    /// Parses a required attribute as an integer type.
    ///
    /// # Errors
    ///
    /// [`XmlError::MissingAttr`] / [`XmlError::BadValue`].
    pub fn req_u64(&self, key: &str) -> Result<u64, XmlError> {
        self.req_int(key)
    }

    /// [`Element::req_u64`] for any integer type `T`: a value out of `T`'s
    /// range is a [`XmlError::BadValue`], never a truncation.
    pub fn req_int<T: std::str::FromStr>(&self, key: &str) -> Result<T, XmlError> {
        self.req(key)?
            .parse()
            .map_err(|_| XmlError::BadValue(self.name.clone(), key.to_string(), self.line))
    }

    /// Children with the given tag name.
    pub fn find_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> {
        self.children.iter().filter(move |c| c.name == name)
    }

    /// First child with the given tag name.
    pub fn find(&self, name: &str) -> Option<&Element> {
        self.children.iter().find(|c| c.name == name)
    }

    /// Renders the tree as indented XML.
    pub fn to_xml(&self) -> String {
        let mut out = String::from("<?xml version=\"1.0\"?>\n");
        self.render(&mut out, 0);
        out
    }

    fn render(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        let _ = write!(out, "{pad}<{}", self.name);
        for (k, v) in &self.attrs {
            let _ = write!(out, " {k}=\"{}\"", escape(v));
        }
        if self.children.is_empty() {
            out.push_str("/>\n");
        } else {
            out.push_str(">\n");
            for c in &self.children {
                c.render(out, depth + 1);
            }
            let _ = writeln!(out, "{pad}</{}>", self.name);
        }
    }
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

fn unescape(s: &str) -> String {
    s.replace("&quot;", "\"")
        .replace("&gt;", ">")
        .replace("&lt;", "<")
        .replace("&amp;", "&")
}

/// Parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlError {
    /// Malformed syntax; the message carries line/column context.
    Syntax(String),
    /// Closing tag does not match the open element: (open, close, line).
    Mismatch(String, String, usize),
    /// Required attribute missing: (element, attribute, line).
    MissingAttr(String, String, usize),
    /// Attribute value failed to parse: (element, attribute, line).
    BadValue(String, String, usize),
    /// Structural problem above the XML level (wrong root, unknown refs).
    Semantic(String),
}

/// ` (line N)` when the position is known, nothing for built elements.
fn at_line(line: &usize) -> String {
    if *line == 0 {
        String::new()
    } else {
        format!(" (line {line})")
    }
}

impl std::fmt::Display for XmlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XmlError::Syntax(m) => write!(f, "xml syntax error: {m}"),
            XmlError::Mismatch(open, close, line) => {
                write!(
                    f,
                    "mismatched tags: <{open}> closed by </{close}>{}",
                    at_line(line)
                )
            }
            XmlError::MissingAttr(e, a, line) => {
                write!(f, "element <{e}>{} misses attribute `{a}`", at_line(line))
            }
            XmlError::BadValue(e, a, line) => {
                write!(f, "element <{e}>{}: bad value for `{a}`", at_line(line))
            }
            XmlError::Semantic(m) => write!(f, "invalid document: {m}"),
        }
    }
}

impl std::error::Error for XmlError {}

/// Parses a document into its root element.
///
/// # Errors
///
/// [`XmlError`] on malformed input.
pub fn parse(input: &str) -> Result<Element, XmlError> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
        counted: 0,
        newlines: 0,
        line_start: 0,
    };
    p.skip_prolog()?;
    let root = p.element()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(XmlError::Syntax(format!(
            "trailing content at {}",
            p.position()
        )));
    }
    Ok(root)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Newlines are counted up to `counted`, which only moves forward, as
    /// `pos` does: `newlines` of them lie before it, the last one ending
    /// at `line_start`. Every position query is then linear overall.
    counted: usize,
    newlines: usize,
    line_start: usize,
}

impl<'a> Parser<'a> {
    /// Counts the newlines up to the current position.
    fn count_lines(&mut self) {
        let end = self.pos.min(self.bytes.len());
        for (i, &b) in self.bytes[self.counted..end].iter().enumerate() {
            if b == b'\n' {
                self.newlines += 1;
                self.line_start = self.counted + i + 1;
            }
        }
        self.counted = end;
    }

    /// 1-based line of the current position.
    fn line(&mut self) -> usize {
        self.count_lines();
        1 + self.newlines
    }

    /// `line L, column C` of the current position, for syntax errors; the
    /// column counts bytes.
    fn position(&mut self) -> String {
        let line = self.line();
        let col = 1 + self.counted - self.line_start;
        format!("line {line}, column {col}")
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn skip_prolog(&mut self) -> Result<(), XmlError> {
        self.skip_ws();
        loop {
            let (what, close) = if self.rest().starts_with("<?") {
                ("declaration", "?>")
            } else if self.rest().starts_with("<!--") {
                ("comment", "-->")
            } else {
                return Ok(());
            };
            let Some(end) = self.rest().find(close) else {
                return Err(XmlError::Syntax(format!("unterminated {what}")));
            };
            self.pos += end + close.len();
            self.skip_ws();
        }
    }

    /// The input from the current position. The parser only stops after
    /// an ASCII byte or at a found `<`, so `pos` is a character boundary
    /// and no revalidation of the tail is needed.
    fn rest(&self) -> &'a str {
        self.input.get(self.pos..).unwrap_or("")
    }

    fn expect(&mut self, c: u8) -> Result<(), XmlError> {
        if self.pos < self.bytes.len() && self.bytes[self.pos] == c {
            self.pos += 1;
            Ok(())
        } else {
            Err(XmlError::Syntax(format!(
                "expected `{}` at {}",
                c as char,
                self.position()
            )))
        }
    }

    fn name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while self.pos < self.bytes.len()
            && (self.bytes[self.pos].is_ascii_alphanumeric()
                || matches!(self.bytes[self.pos], b'_' | b'-' | b':' | b'.'))
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(XmlError::Syntax(format!(
                "expected a name at {}",
                self.position()
            )));
        }
        Ok(String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned())
    }

    fn element(&mut self) -> Result<Element, XmlError> {
        self.skip_ws();
        let open_line = self.line();
        self.expect(b'<')?;
        let name = self.name()?;
        let mut el = Element::new(&name);
        el.line = open_line;
        loop {
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b'/') => {
                    self.pos += 1;
                    self.expect(b'>')?;
                    return Ok(el);
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let key = self.name()?;
                    self.skip_ws();
                    self.expect(b'=')?;
                    self.skip_ws();
                    self.expect(b'"')?;
                    let start = self.pos;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] != b'"' {
                        self.pos += 1;
                    }
                    let raw = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
                    self.expect(b'"')?;
                    el.attrs.insert(key, unescape(&raw));
                }
                None => {
                    return Err(XmlError::Syntax("unexpected end of input".into()));
                }
            }
        }
        // Children until the closing tag.
        loop {
            self.skip_ws();
            if self.rest().starts_with("<!--") {
                if let Some(end) = self.rest().find("-->") {
                    self.pos += end + 3;
                    continue;
                }
                return Err(XmlError::Syntax("unterminated comment".into()));
            }
            if self.rest().starts_with("</") {
                let close_line = self.line();
                self.pos += 2;
                let close = self.name()?;
                self.skip_ws();
                self.expect(b'>')?;
                if close != name {
                    return Err(XmlError::Mismatch(name, close, close_line));
                }
                return Ok(el);
            }
            if self.rest().starts_with('<') {
                el.children.push(self.element()?);
            } else {
                // Text content is not part of the interchange subset; skip
                // up to the next tag.
                match self.rest().find('<') {
                    Some(off) if off > 0 => self.pos += off,
                    _ => return Err(XmlError::Syntax("unexpected end of element".into())),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested() {
        let doc = Element::new("root")
            .attr("name", "demo")
            .child(
                Element::new("child")
                    .attr("value", "42")
                    .child(Element::new("leaf")),
            )
            .child(Element::new("child").attr("value", "43"));
        let xml = doc.to_xml();
        let parsed = parse(&xml).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn attribute_escaping() {
        let doc = Element::new("e").attr("text", "a<b & \"c\" > d");
        let parsed = parse(&doc.to_xml()).unwrap();
        assert_eq!(parsed.get("text"), Some("a<b & \"c\" > d"));
    }

    #[test]
    fn queries() {
        let doc = Element::new("root")
            .child(Element::new("a").attr("n", "1"))
            .child(Element::new("b"))
            .child(Element::new("a").attr("n", "2"));
        assert_eq!(doc.find_all("a").count(), 2);
        assert_eq!(doc.find("b").unwrap().name, "b");
        assert!(doc.find("c").is_none());
        assert_eq!(doc.find("a").unwrap().req_u64("n").unwrap(), 1);
    }

    #[test]
    fn prolog_and_comments_skipped() {
        let xml =
            "<?xml version=\"1.0\"?>\n<!-- hello -->\n<root>\n<!-- inner -->\n<leaf/>\n</root>";
        let parsed = parse(xml).unwrap();
        assert_eq!(parsed.name, "root");
        assert_eq!(parsed.children.len(), 1);
    }

    #[test]
    fn errors() {
        assert!(matches!(
            parse("<a><b></a>"),
            Err(XmlError::Mismatch(_, _, _))
        ));
        assert!(matches!(parse("<a"), Err(XmlError::Syntax(_))));
        assert!(matches!(parse("<a/><b/>"), Err(XmlError::Syntax(_))));
        // An unterminated prolog item is an error, not an endless loop.
        for (doc, what) in [
            ("<?xml version=\"1.0\"", "declaration"),
            ("<!-- x", "comment"),
        ] {
            let e = parse(doc).unwrap_err().to_string();
            assert_eq!(e, format!("xml syntax error: unterminated {what}"));
        }
        let e = Element::new("x");
        assert!(matches!(e.req("k"), Err(XmlError::MissingAttr(_, _, _))));
        let e = Element::new("x").attr("k", "notanumber");
        assert!(matches!(e.req_u64("k"), Err(XmlError::BadValue(_, _, _))));
    }

    #[test]
    fn errors_carry_line_numbers() {
        // Parsed elements remember their opening-tag line...
        let doc = parse("<root>\n  <child/>\n  <child\n    deep=\"1\"/>\n</root>").unwrap();
        assert_eq!(doc.line, 1);
        assert_eq!(doc.children[0].line, 2);
        assert_eq!(doc.children[1].line, 3);
        // ...and attribute errors report them.
        let e = doc.children[1].req("missing").unwrap_err();
        assert_eq!(
            e.to_string(),
            "element <child> (line 3) misses attribute `missing`"
        );
        // Syntax errors report line and column.
        let e = parse("<root>\n  <bad att></root>").unwrap_err();
        assert_eq!(
            e.to_string(),
            "xml syntax error: expected `=` at line 2, column 11"
        );
        // Mismatches report the closing tag's line.
        let e = parse("<a>\n<b>\n</c>\n</a>").unwrap_err();
        assert_eq!(
            e.to_string(),
            "mismatched tags: <b> closed by </c> (line 3)"
        );
        // Hand-built elements have no position and none is printed.
        let e = Element::new("x").req("k").unwrap_err();
        assert_eq!(e.to_string(), "element <x> misses attribute `k`");
    }

    #[test]
    fn positions_past_ten_thousand_lines_are_exact() {
        // 10,000 leaves on lines 2..=10,001, then an attribute without
        // `=` on line 10,002.
        let mut xml = String::from("<root>\n");
        for i in 0..10_000 {
            let _ = writeln!(xml, "  <leaf n=\"{i}\"/>");
        }
        let doc = parse(&format!("{xml}</root>")).unwrap();
        assert!(doc.children.iter().zip(2..).all(|(c, line)| c.line == line));
        let e = parse(&format!("{xml}    <bad att></root>")).unwrap_err();
        assert_eq!(
            e.to_string(),
            "xml syntax error: expected `=` at line 10002, column 13"
        );
        let e = parse(&format!("{xml}<a>\n</b>\n</root>")).unwrap_err();
        assert_eq!(
            e.to_string(),
            "mismatched tags: <a> closed by </b> (line 10003)"
        );
    }

    #[test]
    fn whitespace_tolerant() {
        let xml = "  <root   a = \"1\"  >  <leaf\n/>  </root>  ";
        let parsed = parse(xml).unwrap();
        assert_eq!(parsed.get("a"), Some("1"));
        assert_eq!(parsed.children.len(), 1);
    }
}
