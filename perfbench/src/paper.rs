//! `paper-queries`: the paper's Fig-15 and Fig-16a/b query shapes
//! against an in-process executor, one closed-loop client.

use crate::common::{mean, median, ms, peak_rss_mb, Report};
use crate::queries;
use crate::replay::{same_plan, Replayer};
use crate::BenchResult;
use std::time::Instant;
use toss_core::executor::Mode;
use toss_core::quality::QualityRow;
use toss_core::Executor;
use toss_datagen::{corpus::generate, ground_truth, queries::workload, CorpusConfig, QuerySpec};
use toss_tree::Forest;

const PAPERS: usize = 4000;
const EPSILON: f64 = 3.0;
/// Terms mined per tag; at 4000 papers this fuses to ≈990 terms, the
/// paper's ~1003-term ontology.
const TERMS_PER_TAG: usize = 300;
/// Distinct `similar` queries. Fits the executor's 512-entry rewrite
/// cache, so after warm-up every `similar` rewrite is a cache hit.
const SIMILAR_POOL: usize = 256;
/// Independent set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

#[derive(Clone, Copy, PartialEq)]
enum Op {
    Similar,
    Broad,
    Join,
}

/// The fixed interleaved mix: eight `similar`, one `broad`, one `join`.
const MIX: [Op; 10] = [
    Op::Similar,
    Op::Similar,
    Op::Similar,
    Op::Similar,
    Op::Broad,
    Op::Similar,
    Op::Similar,
    Op::Similar,
    Op::Similar,
    Op::Join,
];

fn xml(forest: &Forest) -> Vec<String> {
    forest
        .iter()
        .map(|t| toss_tree::serialize::tree_to_xml(t, toss_tree::serialize::Style::Compact))
        .collect()
}

struct Workload {
    similar: Vec<toss_core::TossQuery>,
    broad: toss_core::TossQuery,
    join: queries::Join,
}

impl Workload {
    fn run(
        &self,
        exec: &Executor,
        op: Op,
        k: usize,
    ) -> BenchResult<(Forest, Option<toss_core::QueryPlan>)> {
        let out = match op {
            Op::Similar => exec.select(&self.similar[k % self.similar.len()], Mode::Toss),
            Op::Broad => exec.select(&self.broad, Mode::Toss),
            Op::Join => {
                let j = &self.join;
                exec.join_similarity(&j.left, &j.right, &j.left_key, &j.right_key, Mode::Toss)
            }
        }
        .map_err(|e| e.to_string())?;
        Ok((out.forest, out.plan))
    }
}

pub fn run(args: &crate::common::Args) -> BenchResult<Report> {
    let mut r = Report::default();

    // ---- set-up, repeated; the last system is the one measured ----
    let (mut setup, mut corpus_s, mut ontology_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut system = None;
    for _ in 0..SETUPS {
        drop(system.take());
        let t = Instant::now();
        let corpus = generate(CorpusConfig::scalability(args.seed, PAPERS));
        corpus_s.push(t.elapsed().as_secs_f64());
        let built = toss_bench::build_executor(&corpus, EPSILON, TERMS_PER_TAG);
        setup.push(t.elapsed().as_secs_f64());
        ontology_s.push(built.precompute_time.as_secs_f64());
        system = Some((corpus, built));
    }
    let (corpus, built) = system.expect("at least one set-up");
    let exec = &built.executor;
    r.info("ontology_terms", built.ontology_terms);
    r.info("workers", exec.pool.workers());

    // ---- answer quality against the generator's ground truth (Fig 15) ----
    let specs: Vec<QuerySpec> = workload(&corpus, args.seed ^ 0x15, SIMILAR_POOL);
    let (mut toss_q, mut tax_q) = (Vec::new(), Vec::new());
    for q in &specs {
        let truth = ground_truth(&corpus, q);
        let toss = exec
            .select(&toss_bench::query_to_toss(q), Mode::Toss)
            .map_err(|e| e.to_string())?;
        let tax = exec
            .select(&toss_bench::query_to_tax(q), Mode::TaxBaseline)
            .map_err(|e| e.to_string())?;
        toss_q.push(
            QualityRow::score(q.id, &toss_bench::answered_paper_ids(&toss.forest), &truth).quality,
        );
        tax_q.push(
            QualityRow::score(q.id, &toss_bench::answered_paper_ids(&tax.forest), &truth).quality,
        );
    }
    let (toss_quality, tax_quality) = (mean(&toss_q), mean(&tax_q));
    r.check(toss_quality >= tax_quality, || {
        format!("mean TOSS(ε=3) quality {toss_quality:.4} < mean TAX quality {tax_quality:.4}")
    });
    r.info("tax_quality", tax_quality);

    let w = Workload {
        similar: specs.iter().map(toss_bench::query_to_toss).collect(),
        broad: queries::broad(),
        join: queries::join(),
    };
    // warm-up: every distinct query once; their answer sizes are the
    // expected sizes for the measured phase (the store never changes)
    let mut expected_similar = Vec::new();
    for k in 0..w.similar.len() {
        expected_similar.push(w.run(exec, Op::Similar, k)?.0.len());
    }
    let expected_broad = w.run(exec, Op::Broad, 0)?.0.len();
    let expected_join = w.run(exec, Op::Join, 0)?.0.len();
    let mut replayer = Replayer::new(exec);
    if args.trace {
        // the replay keeps its own rewrite cache; warm it the same way
        for q in w.similar.iter().chain([&w.broad]) {
            replayer.select(q, Mode::Toss)?;
        }
        replayer.layers = Default::default();
    }
    let expected = |op: Op, k: usize| match op {
        Op::Similar => expected_similar[k % expected_similar.len()],
        Op::Broad => expected_broad,
        Op::Join => expected_join,
    };

    // ---- measured closed loop ----
    let (hits0, misses0) = (exec.rewrite_cache.hits(), exec.rewrite_cache.misses());
    let mut lat: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let (mut untraced_ms, mut traced_ms) = (0.0, 0.0);
    let start = Instant::now();
    let mut n = 0usize;
    let mut similar_k = 0usize;
    while start.elapsed() < args.duration() {
        let op = MIX[n % MIX.len()];
        let k = similar_k;
        if op == Op::Similar {
            similar_k += 1;
        }
        n += 1;
        r.attempted += 1;
        let t = Instant::now();
        let result = w.run(exec, op, k);
        let wall = ms(t.elapsed());
        let (forest, plan) = match result {
            Ok(x) => x,
            Err(e) => {
                r.failed += 1;
                r.check(false, || e.to_string());
                continue;
            }
        };
        lat[op as usize].push(wall);
        r.check(forest.len() == expected(op, k), || {
            format!(
                "request {n}: {} answers, expected {}",
                forest.len(),
                expected(op, k)
            )
        });
        if args.trace {
            let t = Instant::now();
            let replayed = match op {
                Op::Join => {
                    let j = &w.join;
                    replayer.join_similarity(&j.left, &j.right, &j.left_key, &j.right_key)?
                }
                _ => {
                    let q = if op == Op::Broad {
                        &w.broad
                    } else {
                        &w.similar[k % w.similar.len()]
                    };
                    let (f, replay_plan) = replayer.select(q, Mode::Toss)?;
                    let plan = plan.as_ref().ok_or("select without a plan")?;
                    r.check(same_plan(plan, &replay_plan), || {
                        format!("request {n}: replay planned {replay_plan}, executor {plan}")
                    });
                    f
                }
            };
            traced_ms += ms(t.elapsed());
            untraced_ms += wall;
            replayer.layers.requests += 1;
            r.check(xml(&replayed) == xml(&forest), || {
                format!("request {n}: replayed forest differs from the executor's")
            });
        }
    }
    let elapsed = start.elapsed().as_secs_f64();

    // ---- end-to-end ----
    let queries_per_s = r.attempted as f64 / elapsed;
    r.e2e("setup_s", median(&setup), "s");
    r.info("setup_samples_s", crate::common::floats(&setup));
    r.e2e("similar_p50_ms", median(&lat[Op::Similar as usize]), "ms");
    r.e2e("main_op_p50_ms", median(&lat[Op::Broad as usize]), "ms");
    r.e2e("ops_per_s", queries_per_s, "1/s");
    r.e2e("peak_rss_mb", peak_rss_mb(None)?, "MB");
    r.latency("similar", &lat[Op::Similar as usize], true);
    r.latency("broad", &lat[Op::Broad as usize], false);
    r.latency("join", &lat[Op::Join as usize], false);
    r.figure("queries_per_s", queries_per_s, "1/s");
    r.figure("answer_quality", toss_quality, "ratio");

    // ---- per layer ----
    let (hits, misses) = (
        exec.rewrite_cache.hits() - hits0,
        exec.rewrite_cache.misses() - misses0,
    );
    r.layer("setup.corpus_s", median(&corpus_s), "s");
    r.layer("setup.ontology_s", median(&ontology_s), "s");
    if args.trace {
        let l = &replayer.layers;
        l.report(&mut r);
        r.layer(
            "rewrite.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        );
        let requests = l.requests.max(1) as f64;
        r.layer(
            "unattributed_ms",
            (untraced_ms - ms(l.attributed())) / requests,
            "ms",
        );
        r.layer(
            "trace.overhead_pct",
            (traced_ms / untraced_ms - 1.0) * 100.0,
            "%",
        );
    }
    r.layer(
        "failed_share",
        r.failed as f64 / r.attempted.max(1) as f64,
        "ratio",
    );
    Ok(r)
}
