//! `Name` and `NameRef` ordering, equality and hashing against a
//! reference model.
//!
//! The reference is the plain label vector: `Ord` is label-wise
//! lexicographic from the leftmost label (each label compared as bytes,
//! a shorter label sequence first on a common prefix), and the canonical
//! order of RFC 4034 §6.1 is the same comparison over the reversed
//! labels. Zone iteration, zone dumps and NSEC chains depend on both, so
//! any change to how names are stored must leave them exactly as they are.
//! A borrowed suffix (`NameRef`) must order, compare and hash exactly as
//! the owned name with the same labels, since maps keyed by `Name` are
//! searched with it.

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use std::collections::{BTreeMap, HashSet};

use ldp_wire::{Name, NameBuf, NameRef};

/// splitmix64: deterministic across build profiles.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Raw label bytes as a generator draws them (any case, any byte).
type Labels = Vec<Vec<u8>>;

/// Draws labels from a small alphabet (so equal names and common
/// prefixes are frequent) or from all bytes, with 63-octet labels and
/// names up to the 255-octet limit mixed in.
fn rand_labels(r: &mut Rng) -> Labels {
    match r.below(6) {
        // Exactly 255 octets in wire form: 63 + 63 + 63 + 61 bytes.
        0 => [63usize, 63, 63, 61]
            .iter()
            .map(|&len| (0..len).map(|_| b"aAbB"[r.below(4) as usize]).collect())
            .collect(),
        1 => (0..1 + r.below(3))
            .map(|_| (0..63).map(|_| r.next() as u8).collect())
            .collect(),
        2 | 3 => (0..r.below(5))
            .map(|_| {
                (0..1 + r.below(3))
                    .map(|_| b"aAbZz"[r.below(5) as usize])
                    .collect()
            })
            .collect(),
        _ => (0..r.below(5))
            .map(|_| (0..1 + r.below(12)).map(|_| r.next() as u8).collect())
            .collect(),
    }
}

/// Zone-file text for `labels`: letters and digits verbatim, every other
/// byte as a `\ddd` escape.
fn to_text(labels: &Labels) -> String {
    if labels.is_empty() {
        return ".".into();
    }
    let mut s = String::new();
    for l in labels {
        for &b in l {
            if b.is_ascii_alphanumeric() {
                s.push(b as char);
            } else {
                s.push_str(&format!("\\{b:03}"));
            }
        }
        s.push('.');
    }
    s
}

fn reference(labels: &Labels) -> Labels {
    labels.iter().map(|l| l.to_ascii_lowercase()).collect()
}

fn reference_canonical(a: &Labels, b: &Labels) -> Ordering {
    a.iter().rev().cmp(b.iter().rev())
}

fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Draws a name both from text (with escapes) and from raw labels, checks
/// the two agree, and returns it with its reference labels.
fn draw(r: &mut Rng) -> (Name, Labels) {
    let raw = rand_labels(r);
    let from_text = Name::parse(&to_text(&raw)).expect("generated text parses");
    let from_labels = Name::from_labels(&raw).expect("generated labels are valid");
    assert_eq!(from_text, from_labels, "text and label construction agree");
    let want = reference(&raw);
    let got: Labels = from_text.labels().map(<[u8]>::to_vec).collect();
    assert_eq!(got, want, "labels are stored lowercase");
    (from_text, want)
}

#[test]
fn ord_eq_hash_match_the_label_vector() {
    let mut r = Rng(0x5EED);
    for case in 0..20_000 {
        let (a, ra) = draw(&mut r);
        let (b, rb) = draw(&mut r);
        assert_eq!(a.cmp(&b), ra.cmp(&rb), "case {case}: Ord of {a} vs {b}");
        assert_eq!(a.partial_cmp(&b), Some(ra.cmp(&rb)), "case {case}");
        assert_eq!(a == b, ra == rb, "case {case}: Eq of {a} vs {b}");
        assert_eq!(
            a.canonical_cmp(&b),
            reference_canonical(&ra, &rb),
            "case {case}: canonical order of {a} vs {b}"
        );
        if a == b {
            assert_eq!(
                hash_of(&a),
                hash_of(&b),
                "case {case}: equal names hash alike"
            );
        }
        assert_eq!(a.label_count(), ra.len(), "case {case}");
        assert_eq!(
            a.wire_len(),
            1 + ra.iter().map(|l| l.len() + 1).sum::<usize>(),
            "case {case}"
        );
    }
}

#[test]
fn uppercase_and_escaped_spellings_are_one_name() {
    let a = Name::parse("WWW.Example.COM").unwrap();
    let b = Name::parse(r"www.\101xample.com.").unwrap();
    let c = Name::from_labels([&b"www"[..], b"EXAMPLE", b"com"]).unwrap();
    assert_eq!(a, b);
    assert_eq!(b, c);
    assert_eq!(hash_of(&a), hash_of(&c));
    assert_eq!(a.cmp(&c), Ordering::Equal);
    assert_eq!(a.canonical_cmp(&c), Ordering::Equal);
}

#[test]
fn sorted_order_is_the_label_vector_order() {
    let mut r = Rng(99);
    let mut names: Vec<(Name, Labels)> = (0..2_000).map(|_| draw(&mut r)).collect();
    names.sort_by(|x, y| x.0.cmp(&y.0));
    for w in names.windows(2) {
        assert!(w[0].1 <= w[1].1, "{} sorts before {}", w[0].0, w[1].0);
    }
    names.sort_by(|x, y| x.0.canonical_cmp(&y.0));
    for w in names.windows(2) {
        assert_ne!(
            reference_canonical(&w[0].1, &w[1].1),
            Ordering::Greater,
            "{} canonically before {}",
            w[0].0,
            w[1].0
        );
    }
}

/// Names of up to 127 one-octet labels (the most a 255-octet name holds),
/// each compared with copies that differ in one label or in length, so
/// the right-to-left walk runs the whole name before it decides.
#[test]
fn long_names_order_as_the_label_vector() {
    let mut r = Rng(0x10A6);
    let mut names: Vec<Labels> = vec![vec![b"a".to_vec(); 100], vec![b"a".to_vec(); 127]];
    for _ in 0..200 {
        let n = 17 + r.below(111) as usize;
        names.push((0..n).map(|_| vec![b"aAb"[r.below(3) as usize]]).collect());
    }
    let mut pairs: Vec<(Labels, Labels)> = Vec::new();
    for base in &names {
        for k in 0..base.len() {
            let mut other = base.clone();
            other[k] = if other[k] == b"b" {
                b"c".to_vec()
            } else {
                b"b".to_vec()
            };
            pairs.push((base.clone(), other));
        }
        pairs.push((base.clone(), base[1..].to_vec()));
        pairs.push((base.clone(), base.clone()));
    }
    for w in names.windows(2) {
        pairs.push((w[0].clone(), w[1].clone()));
    }
    for (raw_a, raw_b) in &pairs {
        let a = Name::from_labels(raw_a).expect("at most 127 one-octet labels");
        let b = Name::from_labels(raw_b).expect("at most 127 one-octet labels");
        let (ra, rb) = (reference(raw_a), reference(raw_b));
        assert_eq!(
            a.canonical_cmp(&b),
            reference_canonical(&ra, &rb),
            "{a} vs {b}"
        );
        assert_eq!(
            b.canonical_cmp(&a),
            reference_canonical(&rb, &ra),
            "{b} vs {a}"
        );
        assert_eq!(a.cmp(&b), ra.cmp(&rb), "Ord of {a} vs {b}");
        assert_eq!(a == b, ra == rb, "Eq of {a} vs {b}");
        assert_eq!(a.label_count(), ra.len());
    }
}

/// The suffix of `labels` keeping the rightmost `keep`.
fn reference_suffix(labels: &Labels, keep: usize) -> Labels {
    labels[labels.len() - keep..].to_vec()
}

#[test]
fn borrowed_suffixes_match_owned_names() {
    let mut r = Rng(0xB0AA);
    for case in 0..5_000 {
        let (a, ra) = draw(&mut r);
        let (b, rb) = draw(&mut r);
        let ka = r.below(ra.len() as u64 + 1) as usize;
        let kb = r.below(rb.len() as u64 + 1) as usize;
        let sa: &NameRef = a.suffix(ka).expect("keep within label count");
        let sb: &NameRef = b.suffix(kb).expect("keep within label count");
        let (wa, wb) = (reference_suffix(&ra, ka), reference_suffix(&rb, kb));
        assert_eq!(sa.cmp(sb), wa.cmp(&wb), "case {case}: Ord of {sa} vs {sb}");
        assert_eq!(sa == sb, wa == wb, "case {case}: Eq of {sa} vs {sb}");
        assert_eq!(
            sa.canonical_cmp(sb),
            reference_canonical(&wa, &wb),
            "case {case}: canonical order of {sa} vs {sb}"
        );
        // The owned copy of a suffix is the owned ancestor, and hashes
        // and orders as the borrowed form.
        let owned = a.ancestor(ka).expect("keep within label count");
        assert_eq!(&*owned, sa, "case {case}");
        assert_eq!(hash_of(&owned), hash_of(sa), "case {case}: Borrow hash");
        assert_eq!(owned.cmp(&b), sa.cmp(&*b), "case {case}");
        assert_eq!(sa.to_name(), owned, "case {case}");
    }
}

#[test]
fn maps_keyed_by_name_are_searched_with_name_refs() {
    let mut r = Rng(7);
    let names: Vec<(Name, Labels)> = (0..500).map(|_| draw(&mut r)).collect();
    let tree: BTreeMap<Name, usize> = names.iter().map(|(n, _)| (n.clone(), 0)).collect();
    let set: HashSet<Name> = names.iter().map(|(n, _)| n.clone()).collect();
    for (name, labels) in &names {
        for keep in 0..=labels.len() {
            let suffix = name.suffix(keep).expect("keep within label count");
            let owned = name.ancestor(keep).expect("keep within label count");
            assert_eq!(tree.contains_key(suffix), tree.contains_key(&owned));
            assert_eq!(set.contains(suffix), set.contains(&owned));
        }
        assert_eq!(tree.get_key_value(&**name).map(|(k, _)| k), Some(name));
        assert!(set.contains(&**name));
    }
    // Iteration order is the reference order.
    let keys: Vec<&Name> = tree.keys().collect();
    for w in keys.windows(2) {
        let wa: Labels = w[0].labels().map(<[u8]>::to_vec).collect();
        let wb: Labels = w[1].labels().map(<[u8]>::to_vec).collect();
        assert!(wa < wb, "{} iterates before {}", w[0], w[1]);
    }
}

#[test]
fn stack_built_names_equal_owned_ones() {
    let mut r = Rng(3);
    for _ in 0..2_000 {
        let (name, labels) = draw(&mut r);
        let wild = NameBuf::prepend(b"*", &name);
        let owned = name.prepend(b"*");
        match (wild, owned) {
            (Ok(w), Ok(o)) => {
                assert_eq!(&*w, &*o);
                assert_eq!(hash_of(&*w), hash_of(&o));
                assert_eq!(w.label_count(), labels.len() + 1);
            }
            (Err(_), Err(_)) => {}
            (w, o) => panic!("{name}: stack {w:?} vs owned {o:?}"),
        }
    }
}
