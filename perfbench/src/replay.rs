//! Layer-by-layer replay of the executor's read path.
//!
//! Each request is re-run through the same public calls
//! `Executor::select_governed` and `Executor::join_similarity_governed`
//! make, in the same order, with a timer around each call: rewrite
//! (rewrite cache, `TossPattern::compile`, `compile_xpath`),
//! `XPath::parse`, planning, retrieval (`eval_collection_parallel` or
//! `eval_collection_docs_budgeted`), candidate load (`Collection::get`
//! plus the tree clone), `toss_tax::select` and
//! `similarity_join_planned`. `toss_tax::embeddings` is timed as an
//! extra call outside the sum, since `select` already embeds. The
//! program itself carries no benchmark spans.

use crate::common::ms;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};
use toss_core::algebra::{similarity_join_planned, JoinKey, TossPattern};
use toss_core::executor::{expansion_terms, Mode};
use toss_core::expand::ExpandCtx;
use toss_core::oes::SeoInstance;
use toss_core::rewrite::compile_xpath;
use toss_core::semcache::{fingerprint, CachedRewrite, RewriteCache};
use toss_core::{Executor, QueryGovernor, QueryPlan, TossQuery};
use toss_tax::PatternTree;
use toss_tree::Forest;
use toss_xmldb::xpath::{Expr, NameTest, RelPath, ValueExpr};
use toss_xmldb::{Collection, DocumentId, ScanBudget, ScanControl, ScanStatus, XPath};

/// Time and work counted per layer across every replayed request.
#[derive(Default)]
pub struct Layers {
    pub requests: u64,
    pub selects: u64,
    pub rewrite: Duration,
    pub expansion_terms: u64,
    pub parse: Duration,
    pub xpath_bytes: u64,
    pub plan: Duration,
    pub probes: u64,
    pub retrieve: Duration,
    pub candidate_docs: u64,
    pub matched_docs: u64,
    pub load: Duration,
    pub loaded_docs: u64,
    pub loaded_nodes: u64,
    pub embed: Duration,
    pub select: Duration,
    pub witnesses: u64,
    pub joins: u64,
    pub simjoin: Duration,
    pub join_candidates: u64,
    pub join_pairs: u64,
    pub join_refined: u64,
    pub serialize: Duration,
    pub serialize_bytes: u64,
    pub serialized_trees: u64,
}

impl Layers {
    /// Sum of the layer times that partition a request (embedding is
    /// inside `select`, so it is not added).
    pub fn attributed(&self) -> Duration {
        self.rewrite
            + self.parse
            + self.plan
            + self.retrieve
            + self.load
            + self.select
            + self.simjoin
            + self.serialize
    }

    /// Per-layer metrics, each a mean per call of that layer.
    pub fn report(&self, r: &mut crate::common::Report) {
        let per = |d: Duration, n: u64| if n == 0 { 0.0 } else { ms(d) / n as f64 };
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let s = self.selects;
        r.layer("rewrite.compile_ms", per(self.rewrite, s), "ms");
        r.layer(
            "rewrite.expansion_terms",
            ratio(self.expansion_terms, s),
            "count",
        );
        r.layer("xpath.parse_ms", per(self.parse, s), "ms");
        r.layer("xpath.bytes", ratio(self.xpath_bytes, s), "bytes");
        r.layer("planner.ms", per(self.plan, s), "ms");
        r.layer("planner.probe_share", ratio(self.probes, s), "ratio");
        r.layer("xmldb.retrieve_ms", per(self.retrieve, s), "ms");
        r.layer(
            "xmldb.candidate_docs",
            ratio(self.candidate_docs, s),
            "count",
        );
        r.layer(
            "xmldb.match_ratio",
            ratio(self.matched_docs, self.candidate_docs),
            "ratio",
        );
        r.layer("load.ms", per(self.load, s), "ms");
        r.layer("load.nodes", ratio(self.loaded_nodes, s), "count");
        r.layer("tax.embed_ms", per(self.embed, s), "ms");
        r.layer("tax.select_ms", per(self.select, s), "ms");
        r.layer(
            "tax.witness_ratio",
            ratio(self.witnesses, self.loaded_docs),
            "ratio",
        );
        if self.joins > 0 {
            let j = self.joins;
            r.layer("simjoin.ms", per(self.simjoin, j), "ms");
            r.layer(
                "simjoin.candidates",
                ratio(self.join_candidates, j),
                "count",
            );
            r.layer("simjoin.pairs", ratio(self.join_pairs, j), "count");
            r.layer("simjoin.refined", ratio(self.join_refined, j), "ratio");
        }
        if self.serialized_trees > 0 {
            r.layer("serialize.ms", per(self.serialize, self.requests), "ms");
            r.layer(
                "serialize.bytes",
                ratio(self.serialize_bytes, self.requests),
                "bytes",
            );
        }
    }
}

/// The unlimited scan budget an ungoverned query runs under.
struct Unbounded;

impl ScanBudget for Unbounded {
    fn before_document(&self, _docs_scanned: usize) -> ScanControl {
        ScanControl::Continue
    }
}

/// Replays requests against one executor, keeping its own rewrite
/// cache so cache hits and misses follow the executor's.
pub struct Replayer<'a> {
    exec: &'a Executor,
    cache: RewriteCache,
    pub layers: Layers,
}

impl<'a> Replayer<'a> {
    pub fn new(exec: &'a Executor) -> Self {
        Replayer {
            exec,
            cache: RewriteCache::default(),
            layers: Layers::default(),
        }
    }

    fn ctx(&self) -> ExpandCtx<'a> {
        ExpandCtx {
            seo: &self.exec.seo,
            hierarchy: &self.exec.hierarchy,
            conversions: &self.exec.conversions,
            probe_metric: self.exec.probe_metric.as_deref(),
            part_of: self.exec.part_of_seo.as_deref(),
            governor: None,
        }
    }

    fn compile(&mut self, pattern: &TossPattern, mode: Mode) -> Result<PatternTree, String> {
        if mode == Mode::TaxBaseline {
            return pattern.compile_baseline().map_err(|e| e.to_string());
        }
        let key = format!(
            "{}@seo{}",
            fingerprint(&pattern.condition),
            self.exec.seo.version()
        );
        if let Some(hit) = self.cache.get(&key) {
            let mut p = pattern.structure.clone();
            p.set_condition((*hit.cond).clone())
                .map_err(|e| e.to_string())?;
            return Ok(p);
        }
        let compiled = pattern.compile(self.ctx()).map_err(|e| e.to_string())?;
        self.cache.insert(
            key,
            CachedRewrite {
                cond: Arc::new(compiled.condition().clone()),
                terms: expansion_terms(compiled.condition()),
            },
        );
        Ok(compiled)
    }

    /// Replay one selection; returns the witness forest and the plan's
    /// strategy name and candidate count.
    pub fn select(&mut self, q: &TossQuery, mode: Mode) -> Result<(Forest, QueryPlan), String> {
        let l = &mut self.layers;
        l.selects += 1;
        let t = Instant::now();
        let compiled = self.compile(&q.pattern, mode)?;
        let xpath_src = compile_xpath(&compiled).map_err(|e| e.to_string())?;
        let l = &mut self.layers;
        l.rewrite += t.elapsed();
        l.expansion_terms += expansion_terms(compiled.condition()) as u64;

        let t = Instant::now();
        let xpath = XPath::parse(&xpath_src).map_err(|e| e.to_string())?;
        l.parse += t.elapsed();
        l.xpath_bytes += xpath_src.len() as u64;

        let coll = self
            .exec
            .db
            .collection(&q.collection)
            .map_err(|e| e.to_string())?;
        let pool = &self.exec.pool;
        let t = Instant::now();
        let (plan, probe_docs) = plan_retrieval(&xpath, coll, pool.workers());
        l.plan += t.elapsed();

        let t = Instant::now();
        let (matches, status) = match &probe_docs {
            Some(docs) => xpath.eval_collection_docs_budgeted(coll, docs, &Unbounded, pool),
            None => xpath.eval_collection_parallel(coll, &Unbounded, pool),
        };
        l.retrieve += t.elapsed();
        if !matches!(status, ScanStatus::Complete { .. }) {
            return Err(format!("unbudgeted scan ended {status:?}"));
        }
        l.candidate_docs += match &probe_docs {
            Some(docs) => {
                l.probes += 1;
                docs.len() as u64
            }
            None => coll.documents().len() as u64,
        };

        let t = Instant::now();
        let docs: BTreeSet<_> = matches.iter().map(|m| m.doc).collect();
        let mut candidate = Forest::new();
        for &doc in &docs {
            candidate.push(coll.get(doc).map_err(|e| e.to_string())?.tree.clone());
        }
        l.load += t.elapsed();
        l.matched_docs += docs.len() as u64;
        l.loaded_docs += candidate.len() as u64;
        l.loaded_nodes += candidate.iter().map(|t| t.node_count() as u64).sum::<u64>();

        let t = Instant::now();
        let embedded: usize = candidate
            .iter()
            .map(|tree| toss_tax::embeddings(&compiled, tree).len())
            .sum();
        l.embed += t.elapsed();
        std::hint::black_box(embedded);

        let t = Instant::now();
        let forest =
            toss_tax::select(&candidate, &compiled, &q.expand_labels).map_err(|e| e.to_string())?;
        l.select += t.elapsed();
        l.witnesses += forest.len() as u64;
        Ok((forest, plan))
    }

    /// Replay one keyed similarity join (both sides, then the join).
    pub fn join_similarity(
        &mut self,
        left: &TossQuery,
        right: &TossQuery,
        left_key: &JoinKey,
        right_key: &JoinKey,
    ) -> Result<Forest, String> {
        let (lf, _) = self.select(left, Mode::Toss)?;
        let (rf, _) = self.select(right, Mode::Toss)?;
        let seo = self.exec.seo.clone();
        let t = Instant::now();
        let (joined, stats) = similarity_join_planned(
            &SeoInstance::new(lf, seo.clone()),
            &SeoInstance::new(rf, seo),
            left_key,
            right_key,
            &self.exec.join_config,
            &self.exec.pool,
            &QueryGovernor::unlimited(),
        )
        .map_err(|e| e.to_string())?;
        let l = &mut self.layers;
        l.simjoin += t.elapsed();
        l.joins += 1;
        // the nested path counts bucket work, the refined path candidate
        // group pairs
        l.join_candidates += if stats.refined {
            stats.candidates
        } else {
            stats.nested_work
        };
        l.join_pairs += joined.forest.len() as u64;
        l.join_refined += u64::from(stats.refined);
        Ok(joined.forest)
    }

    /// Serialize returned trees the way the server does.
    pub fn serialize(&mut self, forest: &Forest, max: usize) -> Vec<String> {
        let t = Instant::now();
        let out: Vec<String> = forest
            .iter()
            .take(max)
            .map(|t| toss_tree::serialize::tree_to_xml(t, toss_tree::serialize::Style::Compact))
            .collect();
        let l = &mut self.layers;
        l.serialize += t.elapsed();
        l.serialize_bytes += out.iter().map(|s| s.len() as u64).sum::<u64>();
        l.serialized_trees += out.len() as u64;
        out
    }
}

/// Two plans agree when they chose the same strategy over the same
/// candidate set.
pub fn same_plan(a: &QueryPlan, b: &QueryPlan) -> bool {
    match (a, b) {
        (
            QueryPlan::IndexProbe {
                tag: t1,
                terms: n1,
                candidates: c1,
                ..
            },
            QueryPlan::IndexProbe {
                tag: t2,
                terms: n2,
                candidates: c2,
                ..
            },
        ) => t1 == t2 && n1 == n2 && c1 == c2,
        _ => a.strategy() == b.strategy(),
    }
}

// ---- the executor's retrieval planner, restated over the public AST ----

struct ProbeKey<'a> {
    tag: &'a str,
    terms: Vec<&'a str>,
}

fn conjuncts<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    match e {
        Expr::And(a, b) => {
            conjuncts(a, out);
            conjuncts(b, out);
        }
        other => out.push(other),
    }
}

fn text_disjunction(e: &Expr) -> Option<Vec<&str>> {
    match e {
        Expr::Eq(ValueExpr::Text, lit) if !lit.is_empty() => Some(vec![lit.as_str()]),
        Expr::Or(a, b) => {
            let mut terms = text_disjunction(a)?;
            terms.extend(text_disjunction(b)?);
            Some(terms)
        }
        _ => None,
    }
}

fn rel_target_tag(rel: &RelPath) -> Option<&str> {
    match &rel.steps.last()?.test {
        NameTest::Name(n) => Some(n),
        NameTest::Wildcard => None,
    }
}

fn probe_keys(xpath: &XPath) -> Vec<ProbeKey<'_>> {
    let [path] = xpath.paths.as_slice() else {
        return Vec::new();
    };
    let Some(root) = path.steps.first() else {
        return Vec::new();
    };
    let mut flat = Vec::new();
    for pred in &root.predicates {
        conjuncts(pred, &mut flat);
    }
    let mut keys = Vec::new();
    for e in flat {
        match e {
            Expr::Eq(ValueExpr::Rel(rel), lit) if !lit.is_empty() => {
                if let Some(tag) = rel_target_tag(rel) {
                    keys.push(ProbeKey {
                        tag,
                        terms: vec![lit.as_str()],
                    });
                }
            }
            Expr::Eq(ValueExpr::Text, lit) if !lit.is_empty() => {
                if let NameTest::Name(tag) = &root.test {
                    keys.push(ProbeKey {
                        tag,
                        terms: vec![lit.as_str()],
                    });
                }
            }
            Expr::Exists(rel) => {
                let Some(last) = rel.steps.last() else {
                    continue;
                };
                let NameTest::Name(tag) = &last.test else {
                    continue;
                };
                if let Some(terms) = last.predicates.iter().find_map(text_disjunction) {
                    keys.push(ProbeKey { tag, terms });
                }
            }
            _ => {}
        }
    }
    keys
}

fn plan_retrieval(
    xpath: &XPath,
    coll: &Collection,
    workers: usize,
) -> (QueryPlan, Option<Vec<DocumentId>>) {
    let total = coll.documents().len();
    let index = coll.index();
    let best = probe_keys(xpath)
        .into_iter()
        .map(|k| (index.tag_content_any_len(k.tag, &k.terms), k))
        .min_by_key(|(postings, _)| *postings);
    if let Some((postings, key)) = best {
        if 2 * postings <= total {
            let docs = index.docs_with_tag_content_any(key.tag, &key.terms);
            let candidates = xpath.count_scan_candidates(coll, Some(&docs));
            let plan = QueryPlan::IndexProbe {
                tag: key.tag.to_string(),
                terms: key.terms.len(),
                candidates: docs.len(),
                workers,
                partitions: toss_xmldb::planned_partitions(candidates, workers),
            };
            return (plan, Some(docs));
        }
    }
    let candidates = xpath.count_scan_candidates(coll, None);
    let plan = QueryPlan::ParallelScan {
        workers,
        partitions: toss_xmldb::planned_partitions(candidates, workers),
    };
    (plan, None)
}
