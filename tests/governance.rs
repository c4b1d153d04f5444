//! Budget edge cases for the query governor (see `docs/robustness.md`):
//! zero budgets, exact-boundary budgets, a deadline that expired before
//! admission, and cancellation raised during rewrite — all through the
//! real executor against the real store.

use std::sync::Arc;
use std::time::Duration;
use toss_core::algebra::{JoinKey, TossPattern};
use toss_core::executor::Mode;
use toss_core::{
    AdmissionController, BudgetKind, CancelToken, Executor, Limit, Operation,
    QueryBudget, QueryGovernor, QueryOutcome, TossCond, TossError, TossQuery, TossTerm,
};
use toss_obs::explain::TraceNode;
use toss_obs::sink::MemorySink;
use toss_obs::QueryTrace;
use toss_ontology::hierarchy::from_pairs;
use toss_ontology::sea::enhance;
use toss_similarity::{Levenshtein, StringMetric};
use toss_tax::{EdgeKind, ProjectEntry};
use toss_xmldb::{Database, DatabaseConfig};

fn executor() -> Executor {
    let mut db = Database::with_config(DatabaseConfig::unlimited());
    let c = db.create_collection("dblp").unwrap();
    c.insert_xml(
        "<inproceedings key=\"p0\"><author>Jeff Ullmann</author>\
         <booktitle>SIGMOD Conference</booktitle></inproceedings>",
    )
    .unwrap();
    c.insert_xml(
        "<inproceedings key=\"p1\"><author>Jeff Ullman</author>\
         <booktitle>VLDB</booktitle></inproceedings>",
    )
    .unwrap();
    c.insert_xml(
        "<inproceedings key=\"p2\"><author>E. Codd</author>\
         <booktitle>TODS</booktitle></inproceedings>",
    )
    .unwrap();
    let h = from_pairs(&[
        ("SIGMOD Conference", "conference"),
        ("VLDB", "conference"),
        ("TODS", "periodical"),
        ("conference", "venue"),
        ("periodical", "venue"),
        ("Jeff Ullmann", "author"),
        ("Jeff Ullman", "author"),
        ("E. Codd", "author"),
    ])
    .unwrap();
    let seo = Arc::new(enhance(&h, &Levenshtein, 1.0).unwrap());
    Executor::new(db, seo)
}

fn author_query(probe: &str) -> TossQuery {
    TossQuery {
        collection: "dblp".into(),
        pattern: TossPattern::spine(
            &[EdgeKind::ParentChild],
            TossCond::all(vec![
                TossCond::eq(TossTerm::tag(1), TossTerm::str("inproceedings")),
                TossCond::eq(TossTerm::tag(2), TossTerm::str("author")),
                TossCond::similar(TossTerm::content(2), TossTerm::str(probe)),
            ]),
        )
        .unwrap(),
        expand_labels: vec![1],
    }
}

#[test]
fn zero_budgets_degrade_to_empty_not_error() {
    let ex = executor();
    let gov = QueryGovernor::new(
        QueryBudget::unlimited()
            .with_max_expansion_terms(Limit::soft(0))
            .with_max_docs_scanned(Limit::soft(0))
            .with_max_witnesses(Limit::soft(0)),
    );
    let out = ex
        .run(Operation::Select(&author_query("Jeff Ullmann")), Mode::Toss, &gov)
        .expect("soft zero budgets must degrade, not fail");
    assert_eq!(out.forest.len(), 0);
    let d = out.degradation.expect("zero budgets must report degradation");
    assert_eq!(d.work_done, 0);
    assert!(d.estimated_recall_loss > 0.0);
    assert_eq!(gov.docs_scanned(), 0, "a 0-doc budget must scan nothing");
}

#[test]
fn budget_exactly_at_demand_is_not_degraded() {
    let ex = executor();
    let q = author_query("Jeff Ullmann");

    // measure the unconstrained demand first
    let probe_gov = QueryGovernor::unlimited();
    let exact = ex.run(Operation::Select(&q), Mode::Toss, &probe_gov).unwrap();
    assert!(exact.degradation.is_none());
    let terms = probe_gov.terms_used();
    let docs = probe_gov.docs_scanned();
    let witnesses = exact.forest.len();
    assert!(witnesses > 0 && docs > 0);

    // a budget exactly at the boundary must change nothing
    let gov = QueryGovernor::new(
        QueryBudget::unlimited()
            .with_max_expansion_terms(Limit::soft(terms))
            .with_max_docs_scanned(Limit::soft(docs))
            .with_max_witnesses(Limit::soft(witnesses as u64)),
    );
    let out = ex.run(Operation::Select(&q), Mode::Toss, &gov).unwrap();
    assert_eq!(out.forest.len(), witnesses);
    assert!(
        out.degradation.is_none(),
        "exact-boundary budget must not degrade: {:?}",
        out.degradation
    );

    // one unit less must degrade (sanity check on the boundary)
    let gov = QueryGovernor::new(
        QueryBudget::unlimited().with_max_witnesses(Limit::soft(witnesses as u64 - 1)),
    );
    let out = ex.run(Operation::Select(&q), Mode::Toss, &gov).unwrap();
    assert_eq!(out.forest.len(), witnesses - 1);
    assert!(out.degradation.is_some());
}

#[test]
fn expired_deadline_is_rejected_before_any_scan() {
    let ex = executor();
    let gov =
        QueryGovernor::new(QueryBudget::unlimited().with_deadline(Duration::ZERO));
    let admission = AdmissionController::new(1, Duration::from_millis(50));
    let err = admission
        .run(&gov, || {
            ex.run(Operation::Select(&author_query("Jeff Ullmann")), Mode::Toss, &gov)
        })
        .unwrap_err();
    match err {
        TossError::BudgetExceeded(b) => {
            assert_eq!(b.kind, toss_core::BudgetKind::Deadline)
        }
        other => panic!("expected a deadline breach, got {other:?}"),
    }
    assert_eq!(
        gov.docs_scanned(),
        0,
        "an already-expired query must not touch the store"
    );
}

/// A probe metric that trips the cancel token the moment expansion
/// consults it: cancellation lands during rewrite, so the execute phase
/// must never start.
struct CancellingMetric(CancelToken);

impl StringMetric for CancellingMetric {
    fn distance(&self, a: &str, b: &str) -> f64 {
        self.0.cancel();
        Levenshtein.distance(a, b)
    }
    fn is_strong(&self) -> bool {
        true
    }
    fn name(&self) -> &str {
        "cancelling-probe"
    }
}

#[test]
fn cancellation_between_rewrite_and_execute() {
    let token = CancelToken::new();
    let ex = executor().with_probe_metric(Arc::new(CancellingMetric(token.clone())));
    let gov = QueryGovernor::with_token(QueryBudget::unlimited(), token);
    // an unknown probe string forces the metric to run during rewrite
    let err = ex
        .run(Operation::Select(&author_query("Geoff Ullmann")), Mode::Toss, &gov)
        .unwrap_err();
    assert!(matches!(err, TossError::Cancelled), "{err:?}");
    assert_eq!(
        gov.docs_scanned(),
        0,
        "cancellation during rewrite must stop the query before the scan"
    );
}

/// Every inproceedings record with an author child (all three papers).
fn all_authors() -> TossQuery {
    TossQuery {
        collection: "dblp".into(),
        pattern: TossPattern::spine(
            &[EdgeKind::ParentChild],
            TossCond::all(vec![
                TossCond::eq(TossTerm::tag(1), TossTerm::str("inproceedings")),
                TossCond::eq(TossTerm::tag(2), TossTerm::str("author")),
            ]),
        )
        .unwrap(),
        expand_labels: vec![1],
    }
}

/// A product pattern relating one author per side by similarity.
fn similar_authors_cross() -> TossPattern {
    let mut structure = toss_tax::PatternTree::new(1);
    let root = structure.root();
    structure.add_child(root, 2, EdgeKind::AncestorDescendant).unwrap();
    structure.add_child(root, 3, EdgeKind::AncestorDescendant).unwrap();
    TossPattern {
        structure,
        condition: TossCond::all(vec![
            TossCond::eq(
                TossTerm::tag(1),
                TossTerm::str(toss_tax::ops::PROD_ROOT_TAG),
            ),
            TossCond::eq(TossTerm::tag(2), TossTerm::str("author")),
            TossCond::eq(TossTerm::tag(3), TossTerm::str("author")),
            TossCond::similar(TossTerm::content(2), TossTerm::content(3)),
        ]),
    }
}

/// Run the cross-condition join and the keyed similarity join of
/// `all_authors()` with itself under one budget each.
fn both_joins(ex: &Executor, budget: QueryBudget) -> Vec<Result<QueryOutcome, TossError>> {
    let side = all_authors();
    let key = JoinKey::child("author");
    let cross = similar_authors_cross();
    let ops = [
        Operation::Join {
            left: &side,
            right: &side,
            cross: &cross,
            expand_labels: &[],
        },
        Operation::SimilarityJoin {
            left: &side,
            right: &side,
            left_key: &key,
            right_key: &key,
        },
    ];
    ops.into_iter()
        .map(|op| ex.run(op, Mode::Toss, &QueryGovernor::new(budget.clone())))
        .collect()
}

#[test]
fn soft_join_cardinality_degrades_both_joins() {
    let ex = executor();
    let exact = both_joins(&ex, QueryBudget::unlimited());
    let capped = both_joins(
        &ex,
        QueryBudget::unlimited().with_max_join_cardinality(Limit::soft(2)),
    );
    for (exact, capped) in exact.into_iter().zip(capped) {
        let (exact, capped) = (exact.unwrap(), capped.unwrap());
        assert!(exact.degradation.is_none());
        let d = capped
            .degradation
            .expect("a 3×3 product over a soft cap of 2 degrades");
        assert_eq!(d.tripped, BudgetKind::JoinCardinality);
        assert_eq!((d.limit, d.demanded), (2, 9));
        assert!(capped.forest.len() < exact.forest.len());
    }
}

#[test]
fn hard_join_cardinality_is_a_typed_error() {
    let ex = executor();
    let budget = QueryBudget::unlimited().with_max_join_cardinality(Limit::hard(2));
    for out in both_joins(&ex, budget) {
        match out {
            Err(TossError::BudgetExceeded(b)) => {
                assert_eq!(b.kind, BudgetKind::JoinCardinality);
                assert_eq!((b.limit, b.observed), (2, 9));
            }
            other => panic!("expected a join-cardinality breach, got {other:?}"),
        }
    }
}

#[test]
fn soft_witness_cap_clamps_a_projection() {
    let ex = executor();
    let list = [ProjectEntry::subtree(2)];
    let query = all_authors();
    let project = Operation::Project {
        query: &query,
        list: &list,
    };
    let exact = ex.run(project, Mode::Toss, &QueryGovernor::unlimited()).unwrap();
    assert_eq!(exact.forest.len(), 3);
    let gov =
        QueryGovernor::new(QueryBudget::unlimited().with_max_witnesses(Limit::soft(1)));
    let out = ex.run(project, Mode::Toss, &gov).unwrap();
    assert_eq!(out.forest.len(), 1);
    let d = out.degradation.expect("a clamped projection reports degradation");
    assert_eq!(d.tripped, BudgetKind::Witnesses);
    assert_eq!((d.limit, d.demanded), (1, 3));
}

/// The `toss.*` span tree one operation records on this thread, one
/// line per span: its name and recorded field keys, indented by depth.
fn span_shape(run: impl FnOnce(&Executor)) -> String {
    fn render(node: &TraceNode, depth: usize, out: &mut String) {
        if !node.record.name.starts_with("toss.") {
            return;
        }
        let keys: Vec<&str> = node.record.fields.iter().map(|(k, _)| *k).collect();
        let indent = "  ".repeat(depth);
        out.push_str(&format!("{indent}{} [{}]\n", node.record.name, keys.join(" ")));
        for child in &node.children {
            render(child, depth + 1, out);
        }
    }
    // one worker keeps every span of the request on this thread
    let ex = executor().with_threads(1);
    let sink = Arc::new(MemorySink::new());
    let scope = toss_obs::install_sink_scoped(sink.clone());
    run(&ex);
    drop(scope);
    let trace = QueryTrace::for_thread(&sink.records(), toss_obs::current_thread_id());
    assert_eq!(trace.roots.len(), 1, "one operation, one root span");
    let mut out = String::new();
    render(&trace.roots[0], 0, &mut out);
    out
}

#[test]
fn select_span_shape() {
    let shape = span_shape(|ex| {
        ex.select(&all_authors(), Mode::Toss).unwrap();
    });
    assert_eq!(
        shape,
        "toss.query.select [collection results]
  toss.query.rewrite [expansion_terms xpath_len]
  toss.query.execute [plan partitions matches]
  toss.query.convert [candidate_docs witnesses]
"
    );
}

#[test]
fn project_span_shape() {
    let shape = span_shape(|ex| {
        let (query, list) = (all_authors(), [ProjectEntry::subtree(2)]);
        let project = Operation::Project {
            query: &query,
            list: &list,
        };
        ex.run(project, Mode::Toss, &QueryGovernor::unlimited()).unwrap();
    });
    assert_eq!(
        shape,
        "toss.query.project [collection results]
  toss.query.rewrite [expansion_terms xpath_len]
  toss.query.execute [plan partitions matches]
  toss.query.convert [candidate_docs witnesses]
"
    );
}

#[test]
fn join_span_shape() {
    let shape = span_shape(|ex| {
        let (side, cross) = (all_authors(), similar_authors_cross());
        let join = Operation::Join {
            left: &side,
            right: &side,
            cross: &cross,
            expand_labels: &[],
        };
        ex.run(join, Mode::Toss, &QueryGovernor::unlimited()).unwrap();
    });
    assert_eq!(
        shape,
        "toss.query.join [results]
  toss.query.select [collection results]
    toss.query.rewrite [expansion_terms xpath_len]
    toss.query.execute [plan partitions matches]
    toss.query.convert [candidate_docs witnesses]
  toss.query.select [collection results]
    toss.query.rewrite [expansion_terms xpath_len]
    toss.query.execute [plan partitions matches]
    toss.query.convert [candidate_docs witnesses]
  toss.query.rewrite []
  toss.query.convert [witnesses]
"
    );
}

#[test]
fn similarity_join_span_shape() {
    let shape = span_shape(|ex| {
        let (side, key) = (all_authors(), JoinKey::child("author"));
        ex.join_similarity(&side, &side, &key, &key, Mode::Toss).unwrap();
    });
    assert_eq!(
        shape,
        "toss.query.join_similarity [results plan]
  toss.query.select [collection results]
    toss.query.rewrite [expansion_terms xpath_len]
    toss.query.execute [plan partitions matches]
    toss.query.convert [candidate_docs witnesses]
  toss.query.select [collection results]
    toss.query.rewrite [expansion_terms xpath_len]
    toss.query.execute [plan partitions matches]
    toss.query.convert [candidate_docs witnesses]
  toss.query.convert [witnesses]
    toss.join.nested [bucket_work]
"
    );
}
