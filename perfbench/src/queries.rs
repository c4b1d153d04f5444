//! The paper's query shapes, built the way the figure binaries build them.

use toss_core::algebra::{JoinKey, TossPattern};
use toss_core::{TossCond, TossQuery, TossTerm};
use toss_datagen::QuerySpec;
use toss_serve::QueryRequest;
use toss_tax::EdgeKind;

/// The Fig-15 query of `toss_bench::query_to_toss` over the wire: an
/// `inproceedings` root, an `author ~ probe` and a `booktitle below
/// class` predicate.
pub fn similar_wire(q: &QuerySpec, max_results: usize) -> QueryRequest {
    let mut r = QueryRequest::new("dblp", "inproceedings");
    r.similar.push(("author".into(), q.author_probe.clone()));
    r.below.push(("booktitle".into(), q.venue_isa.clone()));
    r.max_results = max_results;
    r
}

/// Fig-16a shape: 2 isa + 4 tag conditions over DBLP.
pub fn broad() -> TossQuery {
    let pattern = TossPattern::spine(
        &[
            EdgeKind::ParentChild,
            EdgeKind::ParentChild,
            EdgeKind::ParentChild,
        ],
        TossCond::all(vec![
            TossCond::eq(TossTerm::tag(1), TossTerm::str("inproceedings")),
            TossCond::eq(TossTerm::tag(2), TossTerm::str("booktitle")),
            TossCond::eq(TossTerm::tag(3), TossTerm::str("author")),
            TossCond::eq(TossTerm::tag(4), TossTerm::str("year")),
            TossCond::below(TossTerm::content(2), TossTerm::ty("conference")),
            TossCond::below(TossTerm::content(3), TossTerm::ty("person")),
        ]),
    )
    .expect("fixed spine is valid");
    TossQuery {
        collection: "dblp".into(),
        pattern,
        expand_labels: vec![1],
    }
}

/// One Fig-16b join side: tag conditions only.
fn side(collection: &str, root: &str, tags: &[&str]) -> TossQuery {
    let mut conds = vec![TossCond::eq(TossTerm::tag(1), TossTerm::str(root))];
    for (i, tag) in tags.iter().enumerate() {
        conds.push(TossCond::eq(
            TossTerm::tag(i as u32 + 2),
            TossTerm::str(tag),
        ));
    }
    let edges = vec![EdgeKind::ParentChild; tags.len()];
    TossQuery {
        collection: collection.into(),
        pattern: TossPattern::spine(&edges, TossCond::all(conds)).expect("valid spine"),
        expand_labels: vec![1],
    }
}

/// Fig-16b shape: DBLP ⋈~ SIGMOD on `title` (5 tag + 1 similarTo).
pub struct Join {
    pub left: TossQuery,
    pub right: TossQuery,
    pub left_key: JoinKey,
    pub right_key: JoinKey,
}

pub fn join() -> Join {
    Join {
        left: side("dblp", "inproceedings", &["title", "year"]),
        right: side("sigmod", "article", &["title"]),
        left_key: JoinKey::child("title"),
        right_key: JoinKey::child("title"),
    }
}
