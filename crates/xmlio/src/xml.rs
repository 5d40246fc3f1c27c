//! A small XML subset: document tree, recursive-descent parser and writer.
//!
//! Supported: the XML prolog, elements, attributes, text content, comments
//! and the five predefined entities. Not supported (and not needed for
//! configuration files): namespaces, DOCTYPE, CDATA, processing
//! instructions other than the prolog.

use std::fmt::Write as _;

use crate::error::XmlError;

/// An XML element.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element {
    /// Tag name.
    pub name: String,
    /// Attributes in document order.
    pub attributes: Vec<(String, String)>,
    /// Child elements in document order.
    pub children: Vec<Element>,
    /// Concatenated text content directly inside this element (trimmed).
    pub text: String,
}

impl Element {
    /// Creates an element with a tag name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// Adds an attribute (builder style).
    #[must_use]
    pub fn attr(mut self, name: impl Into<String>, value: impl ToString) -> Self {
        self.attributes.push((name.into(), value.to_string()));
        self
    }

    /// Adds a child element (builder style).
    #[must_use]
    pub fn child(mut self, child: Element) -> Self {
        self.children.push(child);
        self
    }

    /// Adds several children (builder style).
    #[must_use]
    pub fn children(mut self, children: impl IntoIterator<Item = Element>) -> Self {
        self.children.extend(children);
        self
    }

    /// Looks up an attribute value.
    #[must_use]
    pub fn attribute(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Looks up a required attribute.
    ///
    /// # Errors
    ///
    /// Returns a schema error naming the element when absent.
    pub fn require_attribute(&self, name: &str) -> Result<&str, XmlError> {
        self.attribute(name)
            .ok_or_else(|| XmlError::schema(&self.name, format!("missing attribute {name:?}")))
    }

    /// Parses a required integer attribute.
    ///
    /// # Errors
    ///
    /// Returns a schema error when absent or non-numeric.
    pub fn require_i64(&self, name: &str) -> Result<i64, XmlError> {
        let raw = self.require_attribute(name)?;
        raw.parse().map_err(|_| {
            XmlError::schema(
                &self.name,
                format!("attribute {name:?} is not an integer: {raw:?}"),
            )
        })
    }

    /// Child elements with the given tag name.
    pub fn find_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> {
        self.children.iter().filter(move |c| c.name == name)
    }

    /// The first child element with the given tag name.
    #[must_use]
    pub fn find(&self, name: &str) -> Option<&Element> {
        self.children.iter().find(|c| c.name == name)
    }

    /// The first child with the given tag name, as a schema requirement.
    ///
    /// # Errors
    ///
    /// Returns a schema error when absent.
    pub fn require(&self, name: &str) -> Result<&Element, XmlError> {
        self.find(name)
            .ok_or_else(|| XmlError::schema(&self.name, format!("missing child <{name}>")))
    }

    /// Serializes the element (with an XML prolog) to a string.
    #[must_use]
    pub fn to_xml(&self) -> String {
        let mut out = String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
        self.write_into(&mut out, 0);
        out
    }

    fn write_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        let _ = write!(out, "<{}", self.name);
        for (n, v) in &self.attributes {
            let _ = write!(out, " {n}=\"{}\"", escape(v));
        }
        if self.children.is_empty() && self.text.is_empty() {
            out.push_str("/>\n");
            return;
        }
        out.push('>');
        if !self.text.is_empty() {
            out.push_str(&escape(&self.text));
        }
        if !self.children.is_empty() {
            out.push('\n');
            for c in &self.children {
                c.write_into(out, depth + 1);
            }
            for _ in 0..depth {
                out.push_str("  ");
            }
        }
        let _ = writeln!(out, "</{}>", self.name);
    }
}

/// Escapes the five predefined XML entities.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            _ => out.push(c),
        }
    }
    out
}

/// Parses an XML document into its root element.
///
/// # Errors
///
/// Returns [`XmlError::Parse`] with a line/column position on malformed
/// input.
pub fn parse(input: &str) -> Result<Element, XmlError> {
    let mut p = Parser::new(input);
    p.skip_prolog_and_misc()?;
    let root = p.parse_element()?;
    p.skip_ws_and_comments()?;
    if !p.at_end() {
        return Err(p.error("trailing content after the root element"));
    }
    Ok(root)
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
    line: usize,
    line_start: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Self {
            input,
            pos: 0,
            line: 1,
            line_start: 0,
        }
    }

    fn error(&self, message: impl Into<String>) -> XmlError {
        XmlError::Parse {
            line: self.line,
            column: self.pos - self.line_start + 1,
            message: message.into(),
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.input.len()
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.line_start = self.pos;
        }
        Some(c)
    }

    /// Consumes input up to (not including) the next byte that `stop`
    /// accepts, or to the end. Every stop byte the callers pass is ASCII,
    /// so the run ends on a UTF-8 boundary and multi-byte characters are
    /// copied whole.
    fn take_until(&mut self, stop: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        while self.peek().is_some_and(|c| !stop(c)) {
            self.bump();
        }
        &self.input[start..self.pos]
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input.as_bytes()[self.pos..].starts_with(s.as_bytes())
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.starts_with(s) {
            for _ in 0..s.len() {
                self.bump();
            }
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), XmlError> {
        if self.eat(s) {
            Ok(())
        } else {
            Err(self.error(format!("expected {s:?}")))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }

    fn skip_ws_and_comments(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                self.skip_comment()?;
            } else {
                return Ok(());
            }
        }
    }

    fn skip_comment(&mut self) -> Result<(), XmlError> {
        self.expect("<!--")?;
        while !self.at_end() {
            if self.eat("-->") {
                return Ok(());
            }
            self.bump();
        }
        Err(self.error("unterminated comment"))
    }

    fn skip_prolog_and_misc(&mut self) -> Result<(), XmlError> {
        self.skip_ws();
        if self.starts_with("<?xml") {
            while !self.at_end() {
                if self.eat("?>") {
                    break;
                }
                self.bump();
            }
        }
        self.skip_ws_and_comments()
    }

    fn parse_name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') {
                self.bump();
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.error("expected a name"));
        }
        Ok(String::from_utf8_lossy(&self.input.as_bytes()[start..self.pos]).into_owned())
    }

    fn parse_entity(&mut self) -> Result<char, XmlError> {
        // Called after '&' was consumed.
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == b';' {
                let name = &self.input.as_bytes()[start..self.pos];
                self.bump();
                return match name {
                    b"lt" => Ok('<'),
                    b"gt" => Ok('>'),
                    b"amp" => Ok('&'),
                    b"quot" => Ok('"'),
                    b"apos" => Ok('\''),
                    _ => Err(self.error(format!(
                        "unknown entity &{};",
                        String::from_utf8_lossy(name)
                    ))),
                };
            }
            if !c.is_ascii_alphanumeric() && c != b'#' {
                break;
            }
            self.bump();
        }
        Err(self.error("unterminated entity"))
    }

    fn parse_attr_value(&mut self) -> Result<String, XmlError> {
        let quote = self
            .bump()
            .filter(|c| *c == b'"' || *c == b'\'')
            .ok_or_else(|| self.error("expected a quoted attribute value"))?;
        let mut out = String::new();
        loop {
            out.push_str(self.take_until(|c| c == quote || c == b'&'));
            match self.bump() {
                None => return Err(self.error("unterminated attribute value")),
                Some(b'&') => out.push(self.parse_entity()?),
                Some(_) => return Ok(out),
            }
        }
    }

    fn parse_element(&mut self) -> Result<Element, XmlError> {
        self.expect("<")?;
        let name = self.parse_name()?;
        let mut element = Element::new(name);

        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.expect("/>")?;
                    return Ok(element);
                }
                Some(b'>') => {
                    self.bump();
                    break;
                }
                Some(_) => {
                    let attr_name = self.parse_name()?;
                    self.skip_ws();
                    self.expect("=")?;
                    self.skip_ws();
                    let value = self.parse_attr_value()?;
                    element.attributes.push((attr_name, value));
                }
                None => return Err(self.error("unterminated start tag")),
            }
        }

        // Content.
        let mut text = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error(format!("unterminated element <{}>", element.name))),
                Some(b'<') => {
                    if self.starts_with("<!--") {
                        self.skip_comment()?;
                    } else if self.starts_with("</") {
                        self.expect("</")?;
                        let close = self.parse_name()?;
                        if close != element.name {
                            return Err(self.error(format!(
                                "mismatched closing tag </{close}> for <{}>",
                                element.name
                            )));
                        }
                        self.skip_ws();
                        self.expect(">")?;
                        element.text = text.trim().to_string();
                        return Ok(element);
                    } else {
                        element.children.push(self.parse_element()?);
                    }
                }
                Some(b'&') => {
                    self.bump();
                    text.push(self.parse_entity()?);
                }
                Some(_) => text.push_str(self.take_until(|c| c == b'<' || c == b'&')),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_document() {
        let e = parse("<root/>").unwrap();
        assert_eq!(e.name, "root");
        assert!(e.children.is_empty());
    }

    #[test]
    fn parses_prolog_attributes_and_nesting() {
        let doc = r#"<?xml version="1.0"?>
<config version="2">
  <!-- a comment -->
  <item name="a" value="1"/>
  <item name="b" value="2">text here</item>
</config>"#;
        let e = parse(doc).unwrap();
        assert_eq!(e.name, "config");
        assert_eq!(e.attribute("version"), Some("2"));
        let items: Vec<_> = e.find_all("item").collect();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].attribute("name"), Some("a"));
        assert_eq!(items[1].text, "text here");
    }

    #[test]
    fn entities_roundtrip() {
        let original = Element::new("e").attr("v", "a<b&c>\"d'");
        let xml = original.to_xml();
        let parsed = parse(&xml).unwrap();
        assert_eq!(parsed.attribute("v"), Some("a<b&c>\"d'"));
    }

    #[test]
    fn text_entities_parse() {
        let e = parse("<t>&lt;hello &amp; bye&gt;</t>").unwrap();
        assert_eq!(e.text, "<hello & bye>");
    }

    #[test]
    fn reports_position_on_error() {
        let err = parse("<a>\n  <b>\n</a>").unwrap_err();
        match err {
            XmlError::Parse { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_mismatched_tags() {
        let err = parse("<a></b>").unwrap_err();
        assert!(err.to_string().contains("mismatched"));
    }

    #[test]
    fn rejects_trailing_content() {
        let err = parse("<a/><b/>").unwrap_err();
        assert!(err.to_string().contains("trailing"));
    }

    #[test]
    fn rejects_unknown_entity() {
        let err = parse("<a>&nope;</a>").unwrap_err();
        assert!(err.to_string().contains("unknown entity"));
    }

    #[test]
    fn require_helpers() {
        let e = parse(r#"<a n="5" s="x"><kid/></a>"#).unwrap();
        assert_eq!(e.require_i64("n").unwrap(), 5);
        assert!(e.require_i64("s").is_err());
        assert!(e.require_i64("missing").is_err());
        assert!(e.require("kid").is_ok());
        assert!(e.require("nothing").is_err());
    }

    #[test]
    fn writer_indents_nested_elements() {
        let e = Element::new("a").child(Element::new("b").child(Element::new("c")));
        let xml = e.to_xml();
        assert!(xml.contains("\n  <b>"));
        assert!(xml.contains("\n    <c/>"));
    }
}
