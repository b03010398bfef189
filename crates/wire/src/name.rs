//! Domain names.
//!
//! A [`Name`] is one shared, immutable buffer holding the name's
//! uncompressed wire form — length-prefixed labels, then the root octet —
//! stored lowercase (DNS names compare case-insensitively; LDplayer
//! normalizes on construction so that zone lookups and trace matching are
//! plain byte comparisons). Cloning a name bumps a reference count.
//!
//! A [`NameRef`] is a borrowed name in the same form: the whole of a
//! `Name`, or any suffix of one starting at a label boundary (so
//! `example.com` inside `www.example.com` is a `&NameRef` into the same
//! buffer). It has the same `Eq`, `Hash` and `Ord` as `Name`, and `Name`
//! borrows as `NameRef`, so maps keyed by `Name` are searched with a
//! `&NameRef` and walking a name's ancestors allocates nothing. A
//! [`NameBuf`] holds a name assembled on the stack, for lookups of names
//! that exist nowhere else (a wildcard `*.<encloser>`).

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::str::FromStr;
use std::sync::{Arc, OnceLock};

use crate::error::WireError;

/// Maximum length of a single label in octets (RFC 1035 §2.3.4).
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum length of a name in wire form, including the root length octet.
pub const MAX_NAME_LEN: usize = 255;

/// A fully-qualified domain name.
///
/// Display form always includes the trailing dot (`.` for the root,
/// `example.com.` otherwise), matching zone-file conventions. Reading
/// methods come from [`NameRef`] through `Deref`.
#[derive(Clone)]
pub struct Name(Arc<[u8]>);

/// A borrowed name: valid, lowercase, uncompressed wire form.
#[repr(transparent)]
pub struct NameRef([u8]);

/// A name assembled in a stack buffer.
pub struct NameBuf {
    bytes: [u8; MAX_NAME_LEN],
    /// Wire length, including the root octet.
    len: usize,
}

impl NameRef {
    /// Views `wire` as a name. Callers guarantee the form: labels of 1–63
    /// lowercase octets, each after its length octet, then a 0 octet that
    /// ends the slice, 255 octets at most.
    fn from_wire(wire: &[u8]) -> &NameRef {
        // SAFETY: `NameRef` is `repr(transparent)` over `[u8]`, so the two
        // unsized types share layout and pointer metadata.
        unsafe { &*(wire as *const [u8] as *const NameRef) }
    }

    /// The uncompressed wire form, root octet included.
    pub fn as_wire(&self) -> &[u8] {
        &self.0
    }

    /// Number of labels (0 for the root).
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// True for the root name.
    pub fn is_root(&self) -> bool {
        self.0.len() <= 1
    }

    /// Iterates over labels from leftmost (most specific) to rightmost.
    pub fn labels(&self) -> impl Iterator<Item = &[u8]> + Clone {
        Labels { wire: &self.0 }
    }

    /// The leftmost label, if any.
    pub fn first_label(&self) -> Option<&[u8]> {
        self.labels().next()
    }

    /// Length of the wire encoding (uncompressed), including the root octet.
    pub fn wire_len(&self) -> usize {
        self.0.len()
    }

    /// The immediate parent (`example.com` → `com`); `None` for the root.
    pub fn parent(&self) -> Option<&NameRef> {
        let first = self.first_label()?;
        self.0.get(1 + first.len()..).map(NameRef::from_wire)
    }

    /// The suffix made of the rightmost `keep_rightmost` labels; `None`
    /// when the name has fewer labels.
    pub fn suffix(&self, keep_rightmost: usize) -> Option<&NameRef> {
        let skip = self.label_count().checked_sub(keep_rightmost)?;
        let mut at: &NameRef = self;
        for _ in 0..skip {
            at = at.parent()?;
        }
        Some(at)
    }

    /// True if `self` is equal to or a subdomain of `ancestor`
    /// (`www.example.com` is within `example.com` and `.`).
    pub fn is_subdomain_of(&self, ancestor: &NameRef) -> bool {
        let mut at: &NameRef = self;
        while at.wire_len() > ancestor.wire_len() {
            match at.parent() {
                Some(p) => at = p,
                None => return false,
            }
        }
        at.0 == ancestor.0
    }

    /// True if the leftmost label is `*`.
    pub fn is_wildcard(&self) -> bool {
        self.first_label() == Some(b"*".as_ref())
    }

    /// Canonical DNS ordering (RFC 4034 §6.1): compare label sequences
    /// right-to-left. Used for NSEC chains and sorted zone walks.
    pub fn canonical_cmp(&self, other: &NameRef) -> Ordering {
        let (mut a_at, mut b_at) = ([0u8; MAX_LABELS], [0u8; MAX_LABELS]);
        let (mut i, mut j) = (
            label_starts(&self.0, &mut a_at),
            label_starts(&other.0, &mut b_at),
        );
        let (na, nb) = (i, j);
        while i > 0 && j > 0 {
            i -= 1;
            j -= 1;
            match label_at(&self.0, a_at[i]).cmp(label_at(&other.0, b_at[j])) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        na.cmp(&nb)
    }

    /// An owned copy (one allocation, none for the root).
    pub fn to_name(&self) -> Name {
        if self.is_root() {
            return Name::root();
        }
        Name(Arc::from(&self.0))
    }
}

/// The label whose length octet is at offset `at`.
fn label_at(wire: &[u8], at: u8) -> &[u8] {
    let at = usize::from(at);
    &wire[at + 1..at + 1 + usize::from(wire[at])]
}

/// Room for every label of a name: at most 127 one-octet labels fit in
/// 255 octets.
const MAX_LABELS: usize = MAX_NAME_LEN / 2 + 1;

/// Fills `out` with the offset of each label's length octet, leftmost
/// first, and returns the label count.
fn label_starts(wire: &[u8], out: &mut [u8; MAX_LABELS]) -> usize {
    let mut n = 0;
    let mut at = 0usize;
    while let (Some(&len), Some(slot)) = (wire.get(at), out.get_mut(n)) {
        if len == 0 {
            break;
        }
        // Offsets inside a name stay below MAX_NAME_LEN.
        *slot = at as u8; // ldp-lint: allow(r2) -- at < 255 inside a name
        n += 1;
        at += 1 + usize::from(len);
    }
    n
}

/// Iterator over a name's labels, leftmost first.
#[derive(Clone)]
struct Labels<'a> {
    wire: &'a [u8],
}

impl<'a> Iterator for Labels<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let len = usize::from(*self.wire.first()?);
        if len == 0 {
            return None;
        }
        let label = self.wire.get(1..1 + len)?;
        self.wire = self.wire.get(1 + len..)?;
        Some(label)
    }
}

impl PartialEq for NameRef {
    fn eq(&self, other: &NameRef) -> bool {
        self.0 == other.0
    }
}

impl Eq for NameRef {}

impl Hash for NameRef {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl PartialOrd for NameRef {
    fn partial_cmp(&self, other: &NameRef) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for NameRef {
    /// Label-wise lexicographic from the leftmost label: each label
    /// compares as bytes, and on a common prefix the name with fewer
    /// labels sorts first.
    fn cmp(&self, other: &NameRef) -> Ordering {
        let mut a = self.labels();
        let mut b = other.labels();
        loop {
            match (a.next(), b.next()) {
                (None, None) => return Ordering::Equal,
                (None, Some(_)) => return Ordering::Less,
                (Some(_), None) => return Ordering::Greater,
                (Some(x), Some(y)) => match x.cmp(y) {
                    Ordering::Equal => continue,
                    ord => return ord,
                },
            }
        }
    }
}

impl fmt::Display for NameRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return f.write_str(".");
        }
        for l in self.labels() {
            for &b in l {
                match b {
                    b'.' | b'\\' => write!(f, "\\{}", b as char)?,
                    0x21..=0x7e => write!(f, "{}", b as char)?,
                    _ => write!(f, "\\{b:03}")?,
                }
            }
            f.write_str(".")?;
        }
        Ok(())
    }
}

impl fmt::Debug for NameRef {
    // Names read better unquoted in test output.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl NameBuf {
    /// The root name, and the start of a name being built.
    pub(crate) fn root() -> NameBuf {
        NameBuf {
            bytes: [0; MAX_NAME_LEN],
            len: 1,
        }
    }

    /// Assembles raw labels, lowercased. Empty labels are rejected, as are
    /// labels over 63 octets and names over 255.
    pub(crate) fn from_labels<I, L>(labels: I) -> Result<NameBuf, WireError>
    where
        I: IntoIterator<Item = L>,
        L: AsRef<[u8]>,
    {
        let mut out = NameBuf::root();
        for l in labels {
            let l = l.as_ref();
            if l.is_empty() {
                return Err(WireError::BadText("empty label".into()));
            }
            if l.len() > MAX_LABEL_LEN {
                return Err(WireError::LabelTooLong(l.len()));
            }
            out.push_label(l);
        }
        out.finish()
    }

    /// Parses dotted text form (see [`Name::parse`]).
    pub(crate) fn parse(text: &str) -> Result<NameBuf, WireError> {
        if text == "." || text.is_empty() {
            return Ok(NameBuf::root());
        }
        let bytes = text.as_bytes();
        let mut out = NameBuf::root();
        // Octets read so far of the label being parsed.
        let mut label_len = 0usize;
        // The first label over 63 octets, reported once the text parses.
        let mut too_long: Option<usize> = None;
        let mut i = 0;
        while i < bytes.len() {
            let (byte, step) = match bytes[i] {
                b'\\' => {
                    if i + 1 >= bytes.len() {
                        return Err(WireError::BadText(format!("dangling escape in {text:?}")));
                    }
                    let c = bytes[i + 1];
                    if !c.is_ascii_digit() {
                        (c, 2)
                    } else {
                        if i + 3 >= bytes.len()
                            || !bytes[i + 2].is_ascii_digit()
                            || !bytes[i + 3].is_ascii_digit()
                        {
                            return Err(WireError::BadText(format!(
                                "bad \\ddd escape in {text:?}"
                            )));
                        }
                        let v = u32::from(bytes[i + 1] - b'0') * 100
                            + u32::from(bytes[i + 2] - b'0') * 10
                            + u32::from(bytes[i + 3] - b'0');
                        let byte = u8::try_from(v).map_err(|_| {
                            WireError::BadText(format!("\\ddd escape out of range in {text:?}"))
                        })?;
                        (byte, 4)
                    }
                }
                b'.' => {
                    if label_len == 0 {
                        return Err(WireError::BadText(format!("empty label in {text:?}")));
                    }
                    out.close_label(label_len, &mut too_long);
                    label_len = 0;
                    i += 1;
                    continue;
                }
                c => (c, 1),
            };
            // The label's octets follow its length octet at `len - 1`.
            if let Some(slot) = out.bytes.get_mut(out.len + label_len) {
                *slot = byte.to_ascii_lowercase();
            }
            label_len += 1;
            i += step;
        }
        if label_len > 0 {
            out.close_label(label_len, &mut too_long);
        }
        if let Some(len) = too_long {
            return Err(WireError::LabelTooLong(len));
        }
        out.finish()
    }

    /// Ends a label of `label_len` octets written after the length octet
    /// at `len - 1`; a label over 63 octets is noted in `too_long` (the
    /// first one only).
    fn close_label(&mut self, label_len: usize, too_long: &mut Option<usize>) {
        match u8::try_from(label_len) {
            Ok(len) if label_len <= MAX_LABEL_LEN => {
                if let Some(slot) = self.bytes.get_mut(self.len - 1) {
                    *slot = len;
                }
            }
            _ => {
                too_long.get_or_insert(label_len);
            }
        }
        self.len += 1 + label_len;
    }

    /// `label` followed by the labels of `suffix` (`*` + `example.com`
    /// → `*.example.com`).
    pub fn prepend(label: &[u8], suffix: &NameRef) -> Result<NameBuf, WireError> {
        NameBuf::from_labels(std::iter::once(label).chain(suffix.labels()))
    }

    /// Appends a label of 1–63 octets, lowercased. While a name is being
    /// built, `len` counts the octets it needs, root octet included, even
    /// past the buffer, so [`NameBuf::finish`] can report the full length.
    pub(crate) fn push_label(&mut self, label: &[u8]) {
        let at = self.len - 1;
        self.len += 1 + label.len();
        if let (Some(dst), Ok(len)) = (
            self.bytes.get_mut(at..self.len - 1),
            u8::try_from(label.len()),
        ) {
            dst[0] = len;
            for (d, s) in dst[1..].iter_mut().zip(label) {
                *d = s.to_ascii_lowercase();
            }
        }
    }

    /// Ends a name built label by label: writes the root octet, or fails
    /// when the labels need more than 255 octets.
    pub(crate) fn finish(mut self) -> Result<NameBuf, WireError> {
        if self.len > MAX_NAME_LEN {
            return Err(WireError::NameTooLong(self.len));
        }
        self.bytes[self.len - 1] = 0;
        Ok(self)
    }
}

impl Deref for NameBuf {
    type Target = NameRef;

    fn deref(&self) -> &NameRef {
        NameRef::from_wire(&self.bytes[..self.len])
    }
}

impl fmt::Debug for NameBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&**self, f)
    }
}

impl Name {
    /// The root name (`.`); shared, so this never allocates.
    pub fn root() -> Self {
        static ROOT: OnceLock<Name> = OnceLock::new();
        ROOT.get_or_init(|| Name(Arc::from(&[0u8][..]))).clone()
    }

    /// Builds a name from raw labels. Labels are lowercased; empty labels are
    /// rejected, as are labels over 63 octets.
    pub fn from_labels<I, L>(labels: I) -> Result<Self, WireError>
    where
        I: IntoIterator<Item = L>,
        L: AsRef<[u8]>,
    {
        NameBuf::from_labels(labels).map(|b| b.to_name())
    }

    /// Parses dotted text form. Accepts an optional trailing dot. `"."` and
    /// `""` both denote the root. Backslash escapes (`\.` and `\ddd`) are
    /// supported as in zone files.
    pub fn parse(text: &str) -> Result<Self, WireError> {
        NameBuf::parse(text).map(|b| b.to_name())
    }

    /// The immediate parent (`example.com` → `com`) as an owned name;
    /// `None` for the root. [`NameRef::parent`] borrows instead.
    pub fn parent(&self) -> Option<Name> {
        NameRef::parent(self).map(NameRef::to_name)
    }

    /// The rightmost `keep_rightmost` labels as an owned name (`None` when
    /// there are fewer). [`NameRef::suffix`] borrows instead.
    pub fn ancestor(&self, keep_rightmost: usize) -> Option<Name> {
        self.suffix(keep_rightmost).map(NameRef::to_name)
    }

    /// Prepends a label (`www` + `example.com` → `www.example.com`).
    pub fn prepend(&self, label: &[u8]) -> Result<Name, WireError> {
        NameBuf::prepend(label, self).map(|b| b.to_name())
    }

    /// Concatenates `self` (as the left part) with `suffix`
    /// (`www` ⊕ `example.com` → `www.example.com`).
    pub fn concat(&self, suffix: &NameRef) -> Result<Name, WireError> {
        Name::from_labels(self.labels().chain(suffix.labels()))
    }

    /// Replaces the leftmost label with `*`, used for wildcard synthesis.
    pub fn to_wildcard(&self) -> Option<Name> {
        let parent = NameRef::parent(self)?;
        Name::from_labels(std::iter::once(&b"*"[..]).chain(parent.labels())).ok()
    }
}

impl Default for Name {
    fn default() -> Self {
        Name::root()
    }
}

impl Deref for Name {
    type Target = NameRef;

    fn deref(&self) -> &NameRef {
        NameRef::from_wire(&self.0)
    }
}

impl Borrow<NameRef> for Name {
    fn borrow(&self) -> &NameRef {
        self
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl Eq for Name {}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        NameRef::hash(self, state);
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> Ordering {
        NameRef::cmp(self, other)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&**self, f)
    }
}

impl fmt::Debug for Name {
    // Names read better unquoted in test output.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromStr for Name {
    type Err = WireError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Name::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn root_roundtrip() {
        assert_eq!(Name::root().to_string(), ".");
        assert_eq!(n("."), Name::root());
        assert_eq!(n(""), Name::root());
        assert!(Name::root().is_root());
        assert_eq!(Name::root().wire_len(), 1);
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(n("Example.COM").to_string(), "example.com.");
        assert_eq!(n("example.com.").to_string(), "example.com.");
        assert_eq!(n("a.b.c").label_count(), 3);
    }

    #[test]
    fn case_insensitive_equality() {
        assert_eq!(n("WWW.Example.Com"), n("www.example.com"));
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        n("AbC.net").hash(&mut h1);
        n("abc.NET").hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn escapes() {
        let name = n(r"a\.b.example");
        assert_eq!(name.label_count(), 2);
        assert_eq!(name.first_label().unwrap(), b"a.b");
        assert_eq!(name.to_string(), r"a\.b.example.");
        let esc = n(r"\097.example");
        assert_eq!(esc.first_label().unwrap(), b"a");
    }

    #[test]
    fn escape_errors() {
        assert!(Name::parse(r"a\").is_err());
        assert!(Name::parse(r"\999.example").is_err());
        assert!(Name::parse("a..b").is_err());
    }

    #[test]
    fn label_limits() {
        let long = "a".repeat(63);
        assert!(Name::parse(&long).is_ok());
        let too_long = "a".repeat(64);
        assert!(matches!(
            Name::parse(&too_long),
            Err(WireError::LabelTooLong(64))
        ));
        // Four 63-byte labels = 4*64+1 = 257 wire octets > 255.
        let huge = format!("{long}.{long}.{long}.{long}");
        assert!(matches!(Name::parse(&huge), Err(WireError::NameTooLong(_))));
    }

    #[test]
    fn subdomain_relations() {
        assert!(n("www.example.com").is_subdomain_of(&n("example.com")));
        assert!(n("www.example.com").is_subdomain_of(&Name::root()));
        assert!(n("example.com").is_subdomain_of(&n("example.com")));
        assert!(!n("example.com").is_subdomain_of(&n("www.example.com")));
        assert!(!n("badexample.com").is_subdomain_of(&n("example.com")));
    }

    #[test]
    fn parent_and_ancestor() {
        assert_eq!(n("www.example.com").parent().unwrap(), n("example.com"));
        assert_eq!(n("com").parent().unwrap(), Name::root());
        assert!(Name::root().parent().is_none());
        assert_eq!(n("a.b.c.d").ancestor(2).unwrap(), n("c.d"));
        assert_eq!(n("a.b").ancestor(0).unwrap(), Name::root());
        assert!(n("a.b").ancestor(3).is_none());
    }

    #[test]
    fn prepend_concat() {
        assert_eq!(
            n("example.com").prepend(b"www").unwrap(),
            n("www.example.com")
        );
        assert_eq!(
            n("www").concat(&n("example.com")).unwrap(),
            n("www.example.com")
        );
        assert_eq!(n("x").concat(&Name::root()).unwrap(), n("x"));
    }

    #[test]
    fn wildcards() {
        assert_eq!(
            n("www.example.com").to_wildcard().unwrap(),
            n("*.example.com")
        );
        assert!(n("*.example.com").is_wildcard());
        assert!(!n("www.example.com").is_wildcard());
        assert!(Name::root().to_wildcard().is_none());
    }

    #[test]
    fn canonical_ordering() {
        use std::cmp::Ordering;
        // RFC 4034 §6.1 example order.
        let order = [
            "example",
            "a.example",
            "yljkjljk.a.example",
            "z.a.example",
            "zabc.a.example",
            "z.example",
        ];
        for w in order.windows(2) {
            assert_eq!(
                n(w[0]).canonical_cmp(&n(w[1])),
                Ordering::Less,
                "{} < {}",
                w[0],
                w[1]
            );
        }
        assert_eq!(Name::root().canonical_cmp(&n("com")), Ordering::Less);
    }

    #[test]
    fn wire_len() {
        assert_eq!(n("example.com").wire_len(), 13); // 7+1 + 3+1 + 1
    }
}
