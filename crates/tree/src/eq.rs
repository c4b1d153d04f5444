//! Ordered-isomorphism equality between trees.
//!
//! TAX's set-theoretic operators (union, intersection, difference) need a
//! notion of when two *data trees* are identical: the paper requires an
//! isomorphism between node sets that preserves edges and sibling order and
//! makes every value-based atom true at `u` iff it is true at `ι(u)` —
//! which for ground data reduces to equal tags, contents and attributes at
//! corresponding positions.
//!
//! Two equalities live here: [`trees_equal`] compares contents as typed
//! values, while the set operators and every dedup key on the coarser
//! *canonical form* (contents compared as rendered text, see
//! [`fingerprint`]) through [`TreeSet`].

use crate::arena::NodeId;
use crate::node::NodeData;
use crate::tree::Tree;
use crate::value::Value;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};

/// A node-payload equality.
type SameData = fn(&NodeData, &NodeData) -> bool;

/// Ordered isomorphism between two trees whose corresponding nodes
/// satisfy `same`.
fn isomorphic(a: &Tree, b: &Tree, same: SameData) -> bool {
    fn go(ta: &Tree, na: NodeId, tb: &Tree, nb: NodeId, same: SameData) -> bool {
        let (Ok(da), Ok(db)) = (ta.data(na), tb.data(nb)) else {
            return false;
        };
        if !same(da, db) {
            return false;
        }
        let (mut ca, mut cb) = (ta.children(na), tb.children(nb));
        loop {
            match (ca.next(), cb.next()) {
                (None, None) => return true,
                (Some(x), Some(y)) if go(ta, x, tb, y, same) => {}
                _ => return false,
            }
        }
    }
    match (a.root(), b.root()) {
        (None, None) => true,
        (Some(ra), Some(rb)) => go(a, ra, b, rb, same),
        _ => false,
    }
}

/// Whether two trees are equal under ordered isomorphism: equal tags,
/// contents (as typed [`Value`]s) and attributes at corresponding nodes.
pub fn trees_equal(a: &Tree, b: &Tree) -> bool {
    isomorphic(a, b, |x, y| {
        x.tag == y.tag && x.content == y.content && x.attrs == y.attrs
    })
}

/// The canonical form of a tree, rendered as a string: tags, attributes
/// and structure verbatim, and every content value as its XML rendering
/// ([`Value::render`], with absent content rendering as "").
///
/// Equal fingerprints mean *render-equal* trees, which is coarser than
/// [`trees_equal`]: `Int(1999)` and `Str("1999")` both render `1999`,
/// `Real(2.0)` and `Int(2)` both render `2`, and absent content renders
/// like `Str("")`, yet those pairs are unequal `Value`s. Render-equality
/// is the equality TAX's set semantics uses here (two witnesses that
/// serialize identically are one tree); [`TreeSet`] implements it without
/// rendering. This string form is its reference definition.
pub fn fingerprint(t: &Tree) -> String {
    fn go(t: &Tree, n: NodeId, out: &mut String) {
        let Ok(d) = t.data(n) else { return };
        out.push('(');
        // Escape the delimiter characters so distinct payloads can never
        // collide structurally.
        push_escaped(out, &d.tag);
        out.push('|');
        if let Some(c) = &d.content {
            push_escaped(out, &c.render());
        }
        for (k, v) in &d.attrs {
            out.push('@');
            push_escaped(out, k);
            out.push('=');
            push_escaped(out, v);
        }
        for c in t.children(n) {
            go(t, c, out);
        }
        out.push(')');
    }
    fn push_escaped(out: &mut String, s: &str) {
        for ch in s.chars() {
            if matches!(ch, '(' | ')' | '|' | '@' | '=' | '\\') {
                out.push('\\');
            }
            out.push(ch);
        }
    }
    let mut out = String::new();
    if let Some(r) = t.root() {
        go(t, r, &mut out);
    }
    out
}

/// The 64-bit hash of a tree's canonical form: equal [`fingerprint`]s
/// imply equal hashes. Computed in one pass over the tree; only numeric
/// content is rendered (into one reused buffer), strings are hashed in
/// place.
pub fn canonical_hash(t: &Tree) -> u64 {
    fn go(t: &Tree, n: NodeId, h: &mut DefaultHasher, buf: &mut String) {
        let Ok(d) = t.data(n) else { return };
        d.tag.hash(h);
        rendered(d.content.as_ref(), buf).hash(h);
        d.attrs.hash(h);
        for c in t.children(n) {
            go(t, c, h, buf);
        }
        // closes the node, so sibling and child placements hash apart
        h.write_u8(0);
    }
    let mut h = DefaultHasher::new();
    if let Some(r) = t.root() {
        go(t, r, &mut h, &mut String::new());
    }
    h.finish()
}

/// Whether two trees have the same canonical form (equal
/// [`fingerprint`]s), decided without rendering string content.
fn canonical_eq(a: &Tree, b: &Tree) -> bool {
    isomorphic(a, b, |x, y| {
        x.tag == y.tag
            && x.attrs == y.attrs
            && rendered(x.content.as_ref(), &mut String::new())
                == rendered(y.content.as_ref(), &mut String::new())
    })
}

/// A content value's canonical text: strings borrowed, numbers rendered
/// into `buf`, absent content as "".
fn rendered<'a>(v: Option<&'a Value>, buf: &'a mut String) -> &'a str {
    match v {
        None => "",
        Some(Value::Str(s)) => s,
        Some(v) => {
            buf.clear();
            let _ = write!(buf, "{v}");
            buf
        }
    }
}

/// A set of borrowed trees under canonical equality: keyed on
/// [`canonical_hash`], with an exact canonical compare on every hash hit.
/// The dedup key shared by [`crate::Forest`]'s dedup and set operators
/// and by the similarity join's tree grouping.
#[derive(Default)]
pub struct TreeSet<'a> {
    /// Members by hash; a bucket holds more than one tree only when
    /// different trees' hashes collide.
    by_hash: HashMap<u64, Vec<&'a Tree>>,
}

impl<'a> TreeSet<'a> {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `t`; false if a canonically equal tree is already a member.
    pub fn insert(&mut self, t: &'a Tree) -> bool {
        self.insert_hashed(canonical_hash(t), t)
    }

    /// [`TreeSet::insert`] with `t`'s [`canonical_hash`] already known.
    pub fn insert_hashed(&mut self, hash: u64, t: &'a Tree) -> bool {
        let bucket = self.by_hash.entry(hash).or_default();
        if bucket.iter().any(|x| canonical_eq(x, t)) {
            return false;
        }
        bucket.push(t);
        true
    }

    /// Whether a canonically equal tree is a member.
    pub fn contains(&self, t: &Tree) -> bool {
        self.by_hash
            .get(&canonical_hash(t))
            .is_some_and(|bucket| bucket.iter().any(|x| canonical_eq(x, t)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TreeBuilder;

    fn paper(author: &str, title: &str) -> Tree {
        TreeBuilder::new("inproceedings")
            .leaf("author", author)
            .leaf("title", title)
            .build()
    }

    #[test]
    fn identical_trees_are_equal() {
        let a = paper("X", "T");
        let b = paper("X", "T");
        assert!(trees_equal(&a, &b));
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn content_difference_breaks_equality() {
        let a = paper("X", "T");
        let b = paper("X", "U");
        assert!(!trees_equal(&a, &b));
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn sibling_order_matters() {
        let a = TreeBuilder::new("r").leaf("a", "1").leaf("b", "2").build();
        let b = TreeBuilder::new("r").leaf("b", "2").leaf("a", "1").build();
        assert!(!trees_equal(&a, &b));
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn shape_difference_breaks_equality() {
        let a = TreeBuilder::new("r").open("a").leaf("b", "1").close().build();
        let b = TreeBuilder::new("r").leaf("a", "").leaf("b", "1").build();
        assert!(!trees_equal(&a, &b));
    }

    #[test]
    fn attrs_participate_in_equality() {
        let a = TreeBuilder::new("r").attr("k", "1").build();
        let b = TreeBuilder::new("r").attr("k", "2").build();
        let c = TreeBuilder::new("r").attr("k", "1").build();
        assert!(!trees_equal(&a, &b));
        assert!(trees_equal(&a, &c));
    }

    #[test]
    fn empty_trees_are_equal() {
        assert!(trees_equal(&Tree::new(), &Tree::new()));
        assert!(!trees_equal(&Tree::new(), &paper("X", "T")));
    }

    #[test]
    fn fingerprint_escapes_delimiters() {
        // A tag containing ')' must not collide with structure.
        let a = TreeBuilder::new("r)").build();
        let b = TreeBuilder::new("r").build();
        assert_ne!(fingerprint(&a), fingerprint(&b));
        let c = TreeBuilder::new("x").leaf("a|b", "").build();
        let d = TreeBuilder::new("x").leaf("a", "b").build();
        assert_ne!(fingerprint(&c), fingerprint(&d));
    }

    /// The dedup key is render-equality, exactly as the fingerprint: a
    /// number and the string it renders as are one tree, so set
    /// operators keep today's outputs byte for byte.
    #[test]
    fn canonical_key_is_render_equality() {
        let leaf = |v: Value| TreeBuilder::new("p").leaf("year", v).build();
        let absent = TreeBuilder::new("p").open("year").close().build();
        let same = [
            (leaf(Value::Int(1999)), leaf(Value::Str("1999".into()))),
            (leaf(Value::Real(2.0)), leaf(Value::Int(2))),
            (absent.clone(), leaf(Value::Str(String::new()))),
        ];
        for (a, b) in &same {
            assert!(!trees_equal(a, b));
            assert_eq!(fingerprint(a), fingerprint(b));
            assert!(canonical_eq(a, b));
            assert_eq!(canonical_hash(a), canonical_hash(b));
        }
        let apart = [
            (leaf(Value::Int(1999)), leaf(Value::Str("1999 ".into()))),
            (leaf(Value::Real(2.5)), leaf(Value::Int(2))),
            (absent, leaf(Value::Str("0".into()))),
        ];
        for (a, b) in &apart {
            assert_ne!(fingerprint(a), fingerprint(b));
            assert!(!canonical_eq(a, b));
        }
    }

    #[test]
    fn canonical_key_separates_structure() {
        // same tags and contents in preorder, different nesting
        let a = TreeBuilder::new("r")
            .open("a")
            .leaf("b", "1")
            .close()
            .build();
        let b = TreeBuilder::new("r").leaf("a", "").leaf("b", "1").build();
        assert!(!canonical_eq(&a, &b));
        assert_ne!(canonical_hash(&a), canonical_hash(&b));
        // a byte moved between adjacent strings
        let c = TreeBuilder::new("x").leaf("ab", "c").build();
        let d = TreeBuilder::new("x").leaf("a", "bc").build();
        assert!(!canonical_eq(&c, &d));
        assert_ne!(canonical_hash(&c), canonical_hash(&d));
    }

    #[test]
    fn tree_set_compares_exactly_on_a_hash_hit() {
        let (a, b, z) = (paper("X", "T"), paper("Y", "T"), paper("Z", "T"));
        let (a2, b2) = (a.clone(), b.clone());
        let mut set = TreeSet::new();
        assert!(set.insert_hashed(7, &a));
        // a forced collision with a different tree is still a new member
        assert!(set.insert_hashed(7, &b));
        assert!(!set.insert_hashed(7, &b2));
        assert!(!set.insert_hashed(7, &a2));
        assert!(set.insert(&z));
        assert!(set.contains(&paper("Z", "T")));
        assert!(!set.contains(&paper("W", "T")));
    }

    #[test]
    fn equality_ignores_detached_slots() {
        let mut a = TreeBuilder::new("r").leaf("a", "1").leaf("b", "2").build();
        let b = TreeBuilder::new("r").leaf("b", "2").build();
        let ra = a.root().unwrap();
        let first = a.children(ra).next().unwrap();
        a.detach(first).unwrap();
        assert!(trees_equal(&a, &b));
    }
}
