//! XPath evaluation over trees and collections.
//!
//! Evaluation is node-set based. Results are returned in document order
//! (documents in insertion order; nodes in preorder within a document),
//! which is the order TAX's witness-tree semantics requires.
//!
//! The collection evaluator uses the tag index as a fast path for queries
//! whose first step is `//name`: instead of scanning every subtree it
//! starts from the index postings for `name`.

use super::ast::{Axis, Expr, NameTest, Path, RelPath, Step, ValueExpr, XPath};
use crate::collection::{Collection, DocumentId};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use toss_pool::{partition_ranges, WorkerPool};
use toss_tree::{NodeId, Tree, Value};

/// A query result: one node in one document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeRef {
    /// Document containing the node.
    pub doc: DocumentId,
    /// The node within the document's tree.
    pub node: NodeId,
}

/// A cooperative per-document scan budget.
///
/// The evaluator calls [`ScanBudget::before_document`] before visiting
/// each document. This keeps the DB layer decoupled from any particular
/// governance policy: `toss-core`'s query governor implements this trait
/// to enforce deadlines, cancellation and document-scan limits, and the
/// evaluator only needs to know *continue / truncate / abort*.
///
/// # Monotonicity
///
/// Budgets must be **monotone**: once `before_document(n)` (or
/// [`preflight`](ScanBudget::preflight)`(n)`) returns `Truncate` or
/// `Abort`, every later call with the same or a larger `docs_scanned`
/// must also stop. Document caps, cancellation flags and deadlines all
/// satisfy this naturally (counts only grow, time only advances). The
/// parallel evaluator stays *correct* for a non-monotone budget — it
/// re-evaluates any document the budget admits after all — but its
/// speculation-skipping becomes pessimal.
pub trait ScanBudget {
    /// Decide whether the next document may be visited. `docs_scanned`
    /// counts documents already visited by this evaluation.
    fn before_document(&self, docs_scanned: usize) -> ScanControl;

    /// Non-charging probe: *would* a visit be allowed if `docs_scanned`
    /// documents had already been admitted? The parallel evaluator asks
    /// this before speculatively evaluating a partition whose documents
    /// have not reached the in-order commit frontier yet, so a tripped
    /// budget stops far-ahead workers without being charged for
    /// documents that were never admitted. Implementations must not
    /// count this call against any limit. The default speculates freely.
    fn preflight(&self, _docs_scanned: usize) -> ScanControl {
        ScanControl::Continue
    }
}

/// The decision a [`ScanBudget`] returns for the next document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanControl {
    /// Visit the document.
    Continue,
    /// Stop scanning but keep the matches found so far (a soft limit:
    /// the caller turns the partial result into a degraded answer).
    Truncate,
    /// Stop scanning and discard nothing — the caller decides how to
    /// fail (cancellation, deadline, or a hard limit).
    Abort,
}

/// How a budgeted collection evaluation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanStatus {
    /// Every candidate document was visited.
    Complete {
        /// Documents visited.
        docs_scanned: usize,
    },
    /// The budget truncated the scan; the matches are a prefix of the
    /// full answer.
    Truncated {
        /// Documents visited before the budget stopped the scan.
        docs_scanned: usize,
        /// Documents a full evaluation would have visited.
        docs_total: usize,
    },
    /// The budget aborted the scan; the matches must be discarded.
    Aborted {
        /// Documents visited before the abort.
        docs_scanned: usize,
    },
}

/// The always-continue budget backing [`XPath::eval_collection`].
struct NoBudget;

impl ScanBudget for NoBudget {
    fn before_document(&self, _docs_scanned: usize) -> ScanControl {
        ScanControl::Continue
    }
}

/// Mutable state threaded through a budgeted evaluation.
struct ScanState<'a> {
    budget: &'a dyn ScanBudget,
    scanned: usize,
    /// Candidate documents across all union branches (including the
    /// ones the budget prevented from being visited).
    total: usize,
    stopped: Option<ScanControl>,
}

impl ScanState<'_> {
    /// Charge one document; returns false when scanning must stop.
    fn admit_document(&mut self) -> bool {
        match self.budget.before_document(self.scanned) {
            ScanControl::Continue => {
                self.scanned += 1;
                true
            }
            control => {
                self.stopped = Some(control);
                false
            }
        }
    }
}

/// The W3C-style string-value of a node: its own text content
/// concatenated with the content of all descendants in preorder.
/// Exposed as a helper; **comparisons in this engine use
/// [`own_text`]** — see the deviation note below.
pub fn string_value(tree: &Tree, node: NodeId) -> String {
    let mut out = String::new();
    for n in tree.subtree(node) {
        if let Ok(d) = tree.data(n) {
            if let Some(c) = &d.content {
                out.push_str(&c.render());
            }
        }
    }
    out
}

/// The element's *own* text content ("" when absent).
///
/// Deviation from W3C XPath, by design: this store keys text content to
/// its owning element (the TAX data model's `o.content`), and the TOSS
/// rewriter's XPath must select a superset of what the TAX condition
/// `content = v` matches. Concatenated string-values would *reject*
/// elements whose descendants also carry text, losing true matches; the
/// own-content semantics makes `[a='v']`, `text()`, `contains(...)` agree
/// exactly with the data model.
///
/// String content is borrowed; only numeric content is rendered, since
/// every `text()='…'` disjunct compares against it.
pub fn own_text(tree: &Tree, node: NodeId) -> Cow<'_, str> {
    match tree.data(node).ok().and_then(|d| d.content.as_ref()) {
        None => Cow::Borrowed(""),
        Some(Value::Str(s)) => Cow::Borrowed(s),
        Some(v) => Cow::Owned(v.render()),
    }
}

impl XPath {
    /// Evaluate against a single tree; returns matching nodes in preorder.
    pub fn eval_tree(&self, tree: &Tree) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = Vec::new();
        for path in &self.paths {
            out.extend(eval_path_tree(path, tree));
        }
        out.sort();
        out.dedup();
        out
    }

    /// Evaluate against every document of a collection; results in
    /// document order.
    pub fn eval_collection(&self, coll: &Collection) -> Vec<NodeRef> {
        self.eval_collection_budgeted(coll, &NoBudget).0
    }

    /// Evaluate under a cooperative [`ScanBudget`]: the budget is asked
    /// before each document visit, so a deadline, cancellation or
    /// document-scan cap stops the scan promptly. Returns the matches
    /// found plus a [`ScanStatus`] saying whether the scan completed,
    /// was truncated (matches are a valid prefix) or aborted (the
    /// caller should discard the matches and fail).
    pub fn eval_collection_budgeted(
        &self,
        coll: &Collection,
        budget: &dyn ScanBudget,
    ) -> (Vec<NodeRef>, ScanStatus) {
        let span = toss_obs::span("xmldb.xpath.eval");
        let mut out: Vec<NodeRef> = Vec::new();
        let mut state = ScanState {
            budget,
            scanned: 0,
            total: 0,
            stopped: None,
        };
        for path in &self.paths {
            eval_path_collection(path, coll, &mut out, &mut state);
            if state.stopped.is_some() {
                break;
            }
        }
        finish_eval(span, out, state.scanned, state.total, state.stopped)
    }

    /// Partitioned parallel evaluation: result- and order-identical to
    /// [`eval_collection_budgeted`](XPath::eval_collection_budgeted), but
    /// candidate documents are split into contiguous chunks evaluated on
    /// `pool`'s workers.
    ///
    /// The budget still sees one document at a time, in document order:
    /// chunks are evaluated *speculatively* and their per-document
    /// results are committed through an in-order frontier that charges
    /// [`ScanBudget::before_document`] exactly as the sequential scan
    /// would, so the admitted document set — and therefore the matches
    /// and the [`ScanStatus`] — equals the sequential run's for any
    /// deterministic budget. A budget trip raises a shared stop flag
    /// that far-ahead workers poll between documents, and
    /// [`ScanBudget::preflight`] lets workers skip chunks that lie
    /// entirely past a tripped limit without charging for them.
    ///
    /// With a single-worker pool this delegates to the sequential
    /// evaluator: no threads, no speculation, no overhead.
    pub fn eval_collection_parallel(
        &self,
        coll: &Collection,
        budget: &(dyn ScanBudget + Sync),
        pool: &WorkerPool,
    ) -> (Vec<NodeRef>, ScanStatus) {
        if pool.is_sequential() {
            return self.eval_collection_budgeted(coll, budget);
        }
        let span = toss_obs::span("xmldb.xpath.eval");
        let (candidates, path_counts) = collect_candidates(self, coll, None);
        let (out, scanned, stopped, stop_ord) =
            run_candidates_parallel(coll, &candidates, budget, pool);
        let total = total_for_stop(&path_counts, candidates.len(), stop_ord);
        finish_eval(span, out, scanned, total, stopped)
    }

    /// Evaluate against a pre-selected candidate document set — the
    /// index-probe fast path. `docs` must be in document order (as
    /// returned by the content index's merged probes); documents outside
    /// the set are never visited *or charged*, while every document in
    /// the set is charged through `budget` exactly like a scan visit, so
    /// `docs_scanned` accounting agrees with the scan path.
    pub fn eval_collection_docs_budgeted(
        &self,
        coll: &Collection,
        docs: &[DocumentId],
        budget: &(dyn ScanBudget + Sync),
        pool: &WorkerPool,
    ) -> (Vec<NodeRef>, ScanStatus) {
        let span = toss_obs::span("xmldb.xpath.eval");
        let filter: HashSet<DocumentId> = docs.iter().copied().collect();
        let (candidates, path_counts) = collect_candidates(self, coll, Some(&filter));
        let (out, scanned, stopped, stop_ord) = if pool.is_sequential() {
            run_candidates_sequential(coll, &candidates, budget)
        } else {
            run_candidates_parallel(coll, &candidates, budget, pool)
        };
        let total = total_for_stop(&path_counts, candidates.len(), stop_ord);
        finish_eval(span, out, scanned, total, stopped)
    }

    /// Number of budget-charged candidate visits a collection evaluation
    /// would make: one per `(union branch, document)` pair, tag-index
    /// seeded where the branch starts with `//name`, restricted to
    /// `docs` when given (the index-probe path). This is the unit
    /// [`planned_partitions`] partitions, exposed so the planner can
    /// report exact partition counts without running the scan.
    pub fn count_scan_candidates(
        &self,
        coll: &Collection,
        docs: Option<&[DocumentId]>,
    ) -> usize {
        let filter: Option<HashSet<DocumentId>> =
            docs.map(|d| d.iter().copied().collect());
        collect_candidates(self, coll, filter.as_ref()).0.len()
    }
}

/// Shared epilogue for every collection-evaluation strategy (sequential
/// scan, partitioned parallel scan, index-probe doc filter): sort and
/// deduplicate matches, derive the [`ScanStatus`], and emit the
/// `xmldb.xpath.*` span records and metrics identically — so
/// `docs_scanned` accounting cannot drift between strategies.
fn finish_eval(
    span: toss_obs::SpanGuard,
    mut out: Vec<NodeRef>,
    docs_scanned: usize,
    docs_total: usize,
    stopped: Option<ScanControl>,
) -> (Vec<NodeRef>, ScanStatus) {
    let status = match stopped {
        None => ScanStatus::Complete { docs_scanned },
        Some(ScanControl::Truncate) => {
            toss_obs::metrics::counter("xmldb.xpath.scans_truncated").inc();
            ScanStatus::Truncated {
                docs_scanned,
                docs_total: docs_total.max(docs_scanned),
            }
        }
        Some(_) => {
            toss_obs::metrics::counter("xmldb.xpath.scans_aborted").inc();
            ScanStatus::Aborted { docs_scanned }
        }
    };
    out.sort();
    out.dedup();
    if span.is_recording() {
        let docs_matched = {
            let mut docs: Vec<DocumentId> = out.iter().map(|r| r.doc).collect();
            docs.dedup(); // `out` is sorted by (doc, node)
            docs.len()
        };
        span.record("docs_scanned", docs_scanned);
        span.record("docs_matched", docs_matched);
        span.record("nodes_matched", out.len());
    }
    toss_obs::metrics::counter("xmldb.xpath.evals").inc();
    toss_obs::metrics::counter("xmldb.xpath.docs_scanned").add(docs_scanned as u64);
    toss_obs::metrics::counter("xmldb.xpath.nodes_matched").add(out.len() as u64);
    toss_obs::metrics::histogram("xmldb.xpath.eval_ns").observe_duration(span.finish());
    (out, status)
}

/// One budget-charged unit of work: evaluate one union branch against
/// one document. The partitioned evaluator materializes the full
/// candidate list up front — in exactly the order the sequential scan
/// visits documents (path-major, documents in insertion order) — so
/// chunking it contiguously preserves the admission order.
struct Candidate<'a> {
    path: &'a Path,
    /// Index of `path` within the union, for `docs_total` bookkeeping.
    path_ord: usize,
    doc: DocumentId,
    /// `Some` when the tag index seeded this visit (first step
    /// `//name`): the posting nodes, in preorder.
    seeds: Option<Vec<NodeId>>,
}

/// Enumerate candidates for every union branch, in sequential visit
/// order. With a `filter`, only documents in the set become candidates
/// (the index-probe fast path). Returns the candidates plus the
/// per-branch candidate counts (for sequential-compatible `docs_total`
/// reporting on truncation).
fn collect_candidates<'a>(
    xpath: &'a XPath,
    coll: &Collection,
    filter: Option<&HashSet<DocumentId>>,
) -> (Vec<Candidate<'a>>, Vec<usize>) {
    let mut cands: Vec<Candidate<'a>> = Vec::new();
    let mut counts = Vec::with_capacity(xpath.paths.len());
    for (path_ord, path) in xpath.paths.iter().enumerate() {
        let before = cands.len();
        let mut indexed = false;
        if let Some(first) = path.steps.first() {
            if first.axis == Axis::Descendant {
                if let NameTest::Name(name) = &first.test {
                    indexed = true;
                    for p in coll.index().by_tag(name) {
                        if filter.is_some_and(|f| !f.contains(&p.doc)) {
                            continue;
                        }
                        match cands.last_mut() {
                            Some(c) if c.path_ord == path_ord && c.doc == p.doc => {
                                c.seeds.as_mut().expect("indexed candidates have seeds").push(p.node);
                            }
                            _ => cands.push(Candidate {
                                path,
                                path_ord,
                                doc: p.doc,
                                seeds: Some(vec![p.node]),
                            }),
                        }
                    }
                }
            }
        }
        if !indexed {
            for stored in coll.documents() {
                if filter.is_some_and(|f| !f.contains(&stored.id)) {
                    continue;
                }
                cands.push(Candidate {
                    path,
                    path_ord,
                    doc: stored.id,
                    seeds: None,
                });
            }
        }
        counts.push(cands.len() - before);
    }
    (cands, counts)
}

/// Evaluate one candidate — identical work to the sequential scan's
/// per-document body, pure over `&Collection` so it can run on any
/// worker (or run twice, if a speculative result was discarded).
fn eval_candidate(coll: &Collection, cand: &Candidate<'_>) -> Vec<NodeRef> {
    let doc = cand.doc;
    match &cand.seeds {
        Some(seeds) => {
            let Ok(stored) = coll.get(doc) else {
                return Vec::new();
            };
            let tree = &stored.tree;
            let first = &cand.path.steps[0];
            let mut current = apply_predicates(tree, seeds.clone(), &first.predicates);
            for step in &cand.path.steps[1..] {
                current = advance_step(tree, &current, step);
            }
            current
                .into_iter()
                .map(|node| NodeRef { doc, node })
                .collect()
        }
        None => {
            let Ok(stored) = coll.get(doc) else {
                return Vec::new();
            };
            eval_path_tree(cand.path, &stored.tree)
                .into_iter()
                .map(|node| NodeRef { doc, node })
                .collect()
        }
    }
}

/// Sequential-visit-order `docs_total`: the sequential evaluator counts
/// a branch's candidates into the total when it *starts* the branch, so
/// a stop inside branch `p` reports the candidates of branches `0..=p`.
fn total_for_stop(path_counts: &[usize], all: usize, stop_ord: Option<usize>) -> usize {
    match stop_ord {
        None => all,
        Some(p) => path_counts[..=p].iter().sum(),
    }
}

/// Drive the candidate list exactly like the sequential scan:
/// admit-then-evaluate, one document at a time. Used for doc-filtered
/// evaluation on a single-worker pool.
fn run_candidates_sequential(
    coll: &Collection,
    candidates: &[Candidate<'_>],
    budget: &dyn ScanBudget,
) -> (Vec<NodeRef>, usize, Option<ScanControl>, Option<usize>) {
    let mut out = Vec::new();
    let mut scanned = 0usize;
    for cand in candidates {
        match budget.before_document(scanned) {
            ScanControl::Continue => {
                scanned += 1;
                out.extend(eval_candidate(coll, cand));
            }
            control => return (out, scanned, Some(control), Some(cand.path_ord)),
        }
    }
    (out, scanned, None, None)
}

/// Aim for this many chunks per worker, so a fast worker steals the
/// slack of a slow one instead of idling at a barrier.
const CHUNKS_PER_WORKER: usize = 4;
/// Don't split fewer documents than this across threads — the spawn
/// cost would dominate.
const MIN_CHUNK_DOCS: usize = 8;

/// How many contiguous partitions a parallel evaluation over
/// `candidates` candidate visits would use on a pool of `workers`
/// workers. Exposed so the planner / EXPLAIN can report the partition
/// count without running the scan.
pub fn planned_partitions(candidates: usize, workers: usize) -> usize {
    if workers <= 1 || candidates == 0 {
        return 1;
    }
    partition_ranges(candidates, workers * CHUNKS_PER_WORKER, MIN_CHUNK_DOCS)
        .len()
        .max(1)
}

/// The in-order commit frontier shared by all workers of one parallel
/// evaluation.
struct Frontier {
    /// Next chunk index allowed to commit.
    next: usize,
    /// Documents admitted by the budget so far (the sequential
    /// `docs_scanned`).
    scanned: usize,
    stopped: Option<ScanControl>,
    /// `path_ord` of the candidate on which the budget tripped.
    stop_ord: Option<usize>,
    /// Finished chunks waiting for their turn: chunk index →
    /// per-candidate speculative results (`None` = skipped, re-evaluate
    /// on commit if the budget admits the document after all).
    pending: BTreeMap<usize, Vec<Option<Vec<NodeRef>>>>,
    /// Committed matches, in candidate order.
    out: Vec<NodeRef>,
    /// Speculative evaluations whose result was committed (the rest is
    /// waste, reported via `toss.pool.speculative_waste`).
    used: usize,
}

/// Evaluate candidate chunks on the pool, committing results through an
/// in-order frontier that consults the budget exactly like the
/// sequential scan. Returns `(matches, scanned, stopped, stop_ord)`.
fn run_candidates_parallel(
    coll: &Collection,
    candidates: &[Candidate<'_>],
    budget: &(dyn ScanBudget + Sync),
    pool: &WorkerPool,
) -> (Vec<NodeRef>, usize, Option<ScanControl>, Option<usize>) {
    let n = candidates.len();
    let ranges = partition_ranges(n, pool.workers() * CHUNKS_PER_WORKER, MIN_CHUNK_DOCS);
    if ranges.len() <= 1 {
        return run_candidates_sequential(coll, candidates, budget);
    }
    let stop = AtomicBool::new(false);
    let frontier = Mutex::new(Frontier {
        next: 0,
        scanned: 0,
        stopped: None,
        stop_ord: None,
        pending: BTreeMap::new(),
        out: Vec::new(),
        used: 0,
    });
    let evaluated_total = std::sync::atomic::AtomicUsize::new(0);

    let tasks: Vec<_> = ranges
        .iter()
        .enumerate()
        .map(|(chunk, &(start, end))| {
            let (stop, frontier, ranges, evaluated_total) =
                (&stop, &frontier, &ranges, &evaluated_total);
            move || {
                let pspan = toss_obs::span("xmldb.xpath.partition");
                let mut results: Vec<Option<Vec<NodeRef>>> = Vec::with_capacity(end - start);
                let mut evaluated = 0usize;
                // `scanned` before this chunk can only be `start` (every
                // earlier candidate admitted) or smaller with the budget
                // already tripped — so for a monotone budget a failing
                // preflight at `start` proves nothing here will commit.
                let speculate = !stop.load(Ordering::Acquire)
                    && budget.preflight(start) == ScanControl::Continue;
                for candidate in &candidates[start..end] {
                    if speculate && !stop.load(Ordering::Acquire) {
                        results.push(Some(eval_candidate(coll, candidate)));
                        evaluated += 1;
                    } else {
                        results.push(None);
                    }
                }
                evaluated_total.fetch_add(evaluated, Ordering::Relaxed);
                if pspan.is_recording() {
                    pspan.record("chunk", chunk);
                    pspan.record("candidates", end - start);
                    pspan.record("evaluated", evaluated);
                }
                drop(pspan);

                // Commit every chunk that has reached the frontier, in
                // chunk order; admission happens here, single-file.
                let mut fr = frontier.lock().unwrap_or_else(|e| e.into_inner());
                fr.pending.insert(chunk, results);
                loop {
                    let turn = fr.next;
                    let Some(chunk_results) = fr.pending.remove(&turn) else {
                        break;
                    };
                    let (c_start, c_end) = ranges[turn];
                    fr.next = turn + 1;
                    if fr.stopped.is_some() {
                        continue; // drain without committing
                    }
                    for (idx, spec) in (c_start..c_end).zip(chunk_results) {
                        match budget.before_document(fr.scanned) {
                            ScanControl::Continue => {
                                fr.scanned += 1;
                                match spec {
                                    Some(matches) => {
                                        fr.used += 1;
                                        fr.out.extend(matches);
                                    }
                                    // Skipped speculatively but admitted
                                    // after all (non-monotone budget):
                                    // evaluate now, on the commit path.
                                    None => {
                                        fr.out.extend(eval_candidate(coll, &candidates[idx]));
                                    }
                                }
                            }
                            control => {
                                fr.stopped = Some(control);
                                fr.stop_ord = Some(candidates[idx].path_ord);
                                stop.store(true, Ordering::Release);
                                break;
                            }
                        }
                    }
                }
            }
        })
        .collect();
    pool.run(tasks);

    let fr = frontier.into_inner().unwrap_or_else(|e| e.into_inner());
    let evaluated = evaluated_total.load(Ordering::Relaxed);
    toss_obs::metrics::counter("toss.pool.runs").inc();
    toss_obs::metrics::counter("toss.pool.partitions").add(ranges.len() as u64);
    toss_obs::metrics::counter("toss.pool.speculative_waste")
        .add(evaluated.saturating_sub(fr.used) as u64);
    (fr.out, fr.scanned, fr.stopped, fr.stop_ord)
}

fn eval_path_tree(path: &Path, tree: &Tree) -> Vec<NodeId> {
    let Some(root) = tree.root() else {
        return Vec::new();
    };
    let Some((first, rest)) = path.steps.split_first() else {
        return Vec::new();
    };
    // Initial context: the (virtual) document node. `/a` tests root
    // elements; `//a` tests every node.
    let mut current: Vec<NodeId> = match first.axis {
        Axis::Child => {
            if first.test.matches(&tree.data(root).map(|d| d.tag.clone()).unwrap_or_default()) {
                vec![root]
            } else {
                Vec::new()
            }
        }
        Axis::Descendant => tree
            .preorder()
            .filter(|&n| {
                tree.data(n)
                    .map(|d| first.test.matches(&d.tag))
                    .unwrap_or(false)
            })
            .collect(),
    };
    current = apply_predicates(tree, current, &first.predicates);
    for step in rest {
        current = advance_step(tree, &current, step);
    }
    current
}

/// Advance one step from a context node-set.
fn advance_step(tree: &Tree, context: &[NodeId], step: &Step) -> Vec<NodeId> {
    let mut matched: Vec<NodeId> = Vec::new();
    for &ctx in context {
        let candidates: Vec<NodeId> = match step.axis {
            Axis::Child => tree.children(ctx).collect(),
            Axis::Descendant => tree.descendants(ctx).collect(),
        };
        let mut local: Vec<NodeId> = candidates
            .into_iter()
            .filter(|&n| {
                tree.data(n)
                    .map(|d| step.test.matches(&d.tag))
                    .unwrap_or(false)
            })
            .collect();
        // Positional predicates are per-context in XPath, so filter here.
        local = apply_predicates(tree, local, &step.predicates);
        matched.extend(local);
    }
    matched.sort();
    matched.dedup();
    matched
}

fn apply_predicates(tree: &Tree, nodes: Vec<NodeId>, preds: &[Expr]) -> Vec<NodeId> {
    let mut current = nodes;
    for p in preds {
        let snapshot = current.clone();
        current = snapshot
            .iter()
            .enumerate()
            .filter(|&(i, &n)| eval_expr(tree, n, i + 1, p))
            .map(|(_, &n)| n)
            .collect();
    }
    current
}

fn eval_expr(tree: &Tree, node: NodeId, position: usize, expr: &Expr) -> bool {
    match expr {
        Expr::Position(k) => position == *k,
        Expr::And(a, b) => {
            eval_expr(tree, node, position, a) && eval_expr(tree, node, position, b)
        }
        Expr::Or(a, b) => {
            eval_expr(tree, node, position, a) || eval_expr(tree, node, position, b)
        }
        Expr::Not(e) => !eval_expr(tree, node, position, e),
        Expr::Exists(p) => !eval_rel_path(tree, node, p).is_empty(),
        Expr::Eq(v, lit) => value_matches(tree, node, v, |s| s == lit),
        Expr::Ne(v, lit) => value_matches(tree, node, v, |s| s != lit),
        Expr::Contains(v, lit) => value_matches(tree, node, v, |s| s.contains(lit.as_str())),
        Expr::StartsWith(v, lit) => {
            value_matches(tree, node, v, |s| s.starts_with(lit.as_str()))
        }
        Expr::AttrExists(name) => tree
            .data(node)
            .map(|d| d.attr_value(name).is_some())
            .unwrap_or(false),
    }
}

/// XPath existential comparison: for relative-path values the predicate
/// holds if *some* reached node's string-value satisfies `f`; for `text()`
/// and attributes there is at most one value.
fn value_matches(tree: &Tree, node: NodeId, v: &ValueExpr, f: impl Fn(&str) -> bool) -> bool {
    match v {
        ValueExpr::Text => f(&own_text(tree, node)),
        ValueExpr::Attr(name) => tree
            .data(node)
            .ok()
            .and_then(|d| d.attr_value(name).map(&f))
            .unwrap_or(false),
        ValueExpr::Rel(p) => eval_rel_path(tree, node, p)
            .into_iter()
            .any(|n| f(&own_text(tree, n))),
    }
}

fn eval_rel_path(tree: &Tree, node: NodeId, p: &RelPath) -> Vec<NodeId> {
    let Some((first, rest)) = p.steps.split_first() else {
        return Vec::new();
    };
    let base: Vec<NodeId> = if p.from_descendants {
        tree.descendants(node).collect()
    } else {
        tree.children(node).collect()
    };
    let mut current: Vec<NodeId> = base
        .into_iter()
        .filter(|&n| {
            tree.data(n)
                .map(|d| first.test.matches(&d.tag))
                .unwrap_or(false)
        })
        .collect();
    current = apply_predicates(tree, current, &first.predicates);
    for step in rest {
        current = advance_step(tree, &current, step);
    }
    current
}

/// Evaluate one union branch, charging each visited document to the
/// scan state (the tag-index fast path touches only documents with a
/// posting; the general path scans the whole collection). Stops early
/// when the budget truncates or aborts the scan.
fn eval_path_collection(
    path: &Path,
    coll: &Collection,
    out: &mut Vec<NodeRef>,
    state: &mut ScanState<'_>,
) {
    // Fast path: `//name...` — seed from the tag index.
    if let Some(first) = path.steps.first() {
        if first.axis == Axis::Descendant {
            if let NameTest::Name(name) = &first.test {
                let postings = coll.index().by_tag(name);
                // group postings by document
                let mut by_doc: Vec<(DocumentId, Vec<NodeId>)> = Vec::new();
                for p in postings {
                    match by_doc.last_mut() {
                        Some((d, v)) if *d == p.doc => v.push(p.node),
                        _ => by_doc.push((p.doc, vec![p.node])),
                    }
                }
                state.total += by_doc.len();
                for (doc, seeds) in by_doc {
                    if !state.admit_document() {
                        return;
                    }
                    let Ok(stored) = coll.get(doc) else { continue };
                    let tree = &stored.tree;
                    let mut current = apply_predicates(tree, seeds, &first.predicates);
                    for step in &path.steps[1..] {
                        current = advance_step(tree, &current, step);
                    }
                    out.extend(current.into_iter().map(|node| NodeRef { doc, node }));
                }
                return;
            }
        }
    }
    // General path: evaluate per document.
    state.total += coll.documents().len();
    for stored in coll.documents() {
        if !state.admit_document() {
            return;
        }
        for node in eval_path_tree(path, &stored.tree) {
            out.push(NodeRef {
                doc: stored.id,
                node,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_document;

    fn tree() -> Tree {
        parse_document(
            "<r><a k=\"1\"><b>x</b><b>y</b></a><a><b>z</b><c><b>deep</b></c></a></r>",
        )
        .unwrap()
    }

    fn q(t: &Tree, s: &str) -> Vec<NodeId> {
        XPath::parse(s).unwrap().eval_tree(t)
    }

    #[test]
    fn string_value_helper_concatenates_but_comparisons_use_own_text() {
        let t = tree();
        let root = t.root().unwrap();
        assert_eq!(string_value(&t, root), "xyzdeep");
        let a2 = t.children(root).nth(1).unwrap();
        assert_eq!(string_value(&t, a2), "zdeep");
        assert_eq!(own_text(&t, a2), "");
        // an element with text AND content-bearing children still matches
        // its own text exactly (the rewriter-soundness requirement)
        let m = crate::parser::parse_document("<r><a>ab<b>extra</b></a></r>").unwrap();
        assert_eq!(q(&m, "//r[.//a='ab']").len(), 1);
        assert_eq!(q(&m, "//a[text()='ab']").len(), 1);
    }

    #[test]
    fn tree_eval_child_and_descendant() {
        let t = tree();
        assert_eq!(q(&t, "/r/a").len(), 2);
        assert_eq!(q(&t, "/r/a/b").len(), 3);
        assert_eq!(q(&t, "//b").len(), 4);
        assert_eq!(q(&t, "/r//b").len(), 4);
    }

    #[test]
    fn positional_is_per_context() {
        let t = tree();
        // first b under each a: x and z
        let firsts = q(&t, "/r/a/b[1]");
        assert_eq!(firsts.len(), 2);
        let seconds = q(&t, "/r/a/b[2]");
        assert_eq!(seconds.len(), 1);
    }

    #[test]
    fn predicates_on_first_step() {
        let t = tree();
        assert_eq!(q(&t, "//a[@k='1']").len(), 1);
        assert_eq!(q(&t, "//a[c]").len(), 1);
        assert_eq!(q(&t, "//a[b='z']").len(), 1);
        // rel-path equality is existential over children only
        assert_eq!(q(&t, "//a[b='deep']").len(), 0);
        assert_eq!(q(&t, "//a[.//b='deep']").len(), 1);
    }

    #[test]
    fn duplicate_elimination_across_union() {
        let t = tree();
        let n = q(&t, "//b | //b");
        assert_eq!(n.len(), 4);
    }

    #[test]
    fn empty_tree_yields_nothing() {
        let t = Tree::new();
        assert_eq!(q(&t, "//a").len(), 0);
    }

    struct CapBudget {
        cap: usize,
        control: ScanControl,
    }

    impl ScanBudget for CapBudget {
        fn before_document(&self, docs_scanned: usize) -> ScanControl {
            if docs_scanned < self.cap {
                ScanControl::Continue
            } else {
                self.control
            }
        }
        fn preflight(&self, docs_scanned: usize) -> ScanControl {
            self.before_document(docs_scanned)
        }
    }

    fn budget_collection(n: usize) -> crate::collection::Collection {
        let mut c = crate::collection::Collection::new("x", None);
        for i in 0..n {
            c.insert_xml(&format!("<r><b>{i}</b></r>")).unwrap();
        }
        c
    }

    #[test]
    fn budgeted_scan_truncates_with_prefix() {
        let c = budget_collection(10);
        let xp = XPath::parse("//b").unwrap();
        let (full, status) = xp.eval_collection_budgeted(
            &c,
            &CapBudget {
                cap: 100,
                control: ScanControl::Truncate,
            },
        );
        assert_eq!(status, ScanStatus::Complete { docs_scanned: 10 });
        assert_eq!(full.len(), 10);

        let (partial, status) = xp.eval_collection_budgeted(
            &c,
            &CapBudget {
                cap: 4,
                control: ScanControl::Truncate,
            },
        );
        assert_eq!(
            status,
            ScanStatus::Truncated {
                docs_scanned: 4,
                docs_total: 10
            }
        );
        assert_eq!(partial, full[..4].to_vec());
    }

    #[test]
    fn budgeted_scan_aborts() {
        let c = budget_collection(5);
        let xp = XPath::parse("//b").unwrap();
        let (_, status) = xp.eval_collection_budgeted(
            &c,
            &CapBudget {
                cap: 2,
                control: ScanControl::Abort,
            },
        );
        assert_eq!(status, ScanStatus::Aborted { docs_scanned: 2 });
        // zero-budget: aborted before any document
        let (hits, status) = xp.eval_collection_budgeted(
            &c,
            &CapBudget {
                cap: 0,
                control: ScanControl::Abort,
            },
        );
        assert!(hits.is_empty());
        assert_eq!(status, ScanStatus::Aborted { docs_scanned: 0 });
    }

    #[test]
    fn budgeted_scan_covers_general_path_too() {
        let c = budget_collection(6);
        // wildcard first step forces the general (non-indexed) path
        let xp = XPath::parse("//*").unwrap();
        let (_, status) = xp.eval_collection_budgeted(
            &c,
            &CapBudget {
                cap: 3,
                control: ScanControl::Truncate,
            },
        );
        assert_eq!(
            status,
            ScanStatus::Truncated {
                docs_scanned: 3,
                docs_total: 6
            }
        );
    }

    /// A budget that only stops on `before_document` — its `preflight`
    /// always continues (the trait default), so speculative skipping
    /// gets no help and the commit path must stay correct on its own.
    struct BlindCapBudget(usize);

    impl ScanBudget for BlindCapBudget {
        fn before_document(&self, docs_scanned: usize) -> ScanControl {
            if docs_scanned < self.0 {
                ScanControl::Continue
            } else {
                ScanControl::Truncate
            }
        }
    }

    /// Mixed-shape collection: docs where `//b` is index-seeded, docs
    /// without `b` at all, duplicate content for dedup pressure.
    fn mixed_collection(n: usize) -> crate::collection::Collection {
        let mut c = crate::collection::Collection::new("x", None);
        for i in 0..n {
            match i % 4 {
                0 => c.insert_xml(&format!("<r><b>{}</b><b>dup</b></r>", i % 5)),
                1 => c.insert_xml("<r><a>no-b-here</a></r>"),
                2 => c.insert_xml(&format!("<r><a><b>{}</b></a><c><b>deep</b></c></r>", i % 5)),
                _ => c.insert_xml("<q><b>dup</b></q>"),
            }
            .unwrap();
        }
        c
    }

    #[test]
    fn parallel_eval_is_identical_to_sequential() {
        let c = mixed_collection(57);
        for query in ["//b", "//b[text()='dup'] | //a", "//*[b]", "/r//b | //q"] {
            let xp = XPath::parse(query).unwrap();
            let (seq, seq_status) = xp.eval_collection_budgeted(&c, &NoBudget);
            for threads in [1usize, 2, 7] {
                let pool = WorkerPool::new(threads);
                let (par, par_status) = xp.eval_collection_parallel(&c, &NoBudget, &pool);
                assert_eq!(par, seq, "{query} @ {threads} threads");
                assert_eq!(par_status, seq_status, "{query} @ {threads} threads");
            }
        }
    }

    #[test]
    fn parallel_eval_matches_sequential_under_truncation() {
        let c = mixed_collection(64);
        let xp = XPath::parse("//b | //a").unwrap();
        for cap in [0usize, 1, 5, 30, 1000] {
            let mk = || CapBudget {
                cap,
                control: ScanControl::Truncate,
            };
            let (seq, seq_status) = xp.eval_collection_budgeted(&c, &mk());
            for threads in [2usize, 7] {
                let pool = WorkerPool::new(threads);
                let (par, par_status) = xp.eval_collection_parallel(&c, &mk(), &pool);
                assert_eq!(par, seq, "cap {cap} @ {threads} threads");
                assert_eq!(par_status, seq_status, "cap {cap} @ {threads} threads");
            }
        }
    }

    #[test]
    fn parallel_eval_matches_sequential_under_abort() {
        let c = mixed_collection(40);
        let xp = XPath::parse("//b").unwrap();
        for cap in [0usize, 3, 17] {
            let mk = || CapBudget {
                cap,
                control: ScanControl::Abort,
            };
            let (_, seq_status) = xp.eval_collection_budgeted(&c, &mk());
            let pool = WorkerPool::new(4);
            let (_, par_status) = xp.eval_collection_parallel(&c, &mk(), &pool);
            assert_eq!(par_status, seq_status, "cap {cap}");
        }
    }

    #[test]
    fn parallel_commit_is_exact_without_preflight_help() {
        // A budget whose preflight never trips exercises the path where
        // workers speculate past the stop point and the in-order commit
        // alone must reproduce the sequential prefix.
        let c = mixed_collection(64);
        let xp = XPath::parse("//b | //a").unwrap();
        for cap in [0usize, 7, 33] {
            let (seq, seq_status) = xp.eval_collection_budgeted(&c, &BlindCapBudget(cap));
            let pool = WorkerPool::new(7);
            let (par, par_status) =
                xp.eval_collection_parallel(&c, &BlindCapBudget(cap), &pool);
            assert_eq!(par, seq, "cap {cap}");
            assert_eq!(par_status, seq_status, "cap {cap}");
        }
    }

    #[test]
    fn doc_filtered_eval_visits_and_charges_only_the_filter() {
        let c = budget_collection(10);
        let xp = XPath::parse("//b").unwrap();
        let docs: Vec<DocumentId> = c
            .documents()
            .iter()
            .map(|d| d.id)
            .filter(|d| d.0 % 2 == 0)
            .collect();
        for threads in [1usize, 4] {
            let pool = WorkerPool::new(threads);
            let (hits, status) =
                xp.eval_collection_docs_budgeted(&c, &docs, &NoBudget, &pool);
            assert_eq!(hits.len(), 5, "@ {threads} threads");
            assert!(hits.iter().all(|r| r.doc.0 % 2 == 0));
            // the filtered docs are charged like scan visits
            assert_eq!(status, ScanStatus::Complete { docs_scanned: 5 });
        }
    }

    #[test]
    fn doc_filtered_eval_respects_budget() {
        let c = budget_collection(10);
        let xp = XPath::parse("//b").unwrap();
        let docs: Vec<DocumentId> = c.documents().iter().map(|d| d.id).collect();
        let pool = WorkerPool::new(1);
        let (hits, status) = xp.eval_collection_docs_budgeted(
            &c,
            &docs,
            &CapBudget {
                cap: 3,
                control: ScanControl::Truncate,
            },
            &pool,
        );
        assert_eq!(hits.len(), 3);
        assert_eq!(
            status,
            ScanStatus::Truncated {
                docs_scanned: 3,
                docs_total: 10
            }
        );
    }

    #[test]
    fn collection_index_fast_path_equals_scan() {
        let mut c = crate::collection::Collection::new("x", None);
        c.insert_xml("<r><a><b>1</b></a></r>").unwrap();
        c.insert_xml("<r><b>2</b></r>").unwrap();
        let fast = XPath::parse("//b").unwrap().eval_collection(&c);
        // wildcard first step forces the scan path
        let scan = XPath::parse("//*")
            .unwrap()
            .eval_collection(&c)
            .into_iter()
            .filter(|r| {
                c.get(r.doc)
                    .unwrap()
                    .tree
                    .data(r.node)
                    .map(|d| d.tag == "b")
                    .unwrap_or(false)
            })
            .collect::<Vec<_>>();
        assert_eq!(fast, scan);
        assert_eq!(fast.len(), 2);
    }
}
