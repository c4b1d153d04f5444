//! `cold-restart`: restart a checkpointed 40 000-paper store the way
//! `toss-cli serve --writable` restarts, by spawning that binary, then
//! answer `similar` queries off the frozen index and ack one insert.

use crate::common::{median, ms, peak_rss_mb, Args, Digest, Report};
use crate::replay::Replayer;
use crate::{queries, store, BenchResult};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::Instant;
use toss_core::Executor;
use toss_datagen::{corpus::generate, queries::workload, CorpusConfig, QuerySpec};
use toss_serve::{Client, QueryRequest};
use toss_xmldb::{apply_op, DatabaseConfig, DurableDatabase, JournalOp, StdVfs};

/// About 11 MB of snapshot. Kept well below 100k papers, where corpus
/// generation through `toss-datagen` gets slow.
const PAPERS: usize = 40_000;
const EPSILON: f64 = 3.0;
const TERMS_PER_TAG: usize = 300;
/// Distinct `similar` queries. After each restart all of them run, in
/// turn from a different first one, before the first insert thaws the
/// index.
const QUERIES: usize = 16;
const MAX_RESULTS: usize = 10;
/// Restarts measured even when `--seconds` has run out.
const MIN_RESTARTS: usize = 3;
const SETUPS: usize = 2;
/// Files that make up a checkpointed store, relative to its directory.
const STORE_FILES: [&str; 4] = [
    "store.json",
    "store.json.wal",
    "store.seg",
    "store.ont.json",
];

/// A spawned `toss-cli serve --writable` and its address.
struct Served {
    child: Child,
    /// Held open until the child exits: its final report goes to this
    /// pipe, and a closed pipe would make that write fail.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

fn spawn(cli: &Path, dir: &Path) -> BenchResult<Served> {
    let mut child = Command::new(cli)
        .arg("serve")
        .arg("--db")
        .arg(dir.join("store.json"))
        .arg("--seo")
        .arg(dir.join("seo.json"))
        .args(["--writable", "--addr", "127.0.0.1:0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", cli.display()))?;
    let mut stdout = BufReader::new(child.stdout.take().ok_or("no child stdout")?);
    let mut line = String::new();
    loop {
        line.clear();
        if !matches!(stdout.read_line(&mut line), Ok(n) if n > 0) {
            let _ = child.kill();
            let _ = child.wait();
            return Err("toss-cli serve exited before listening".into());
        }
        if let Some(rest) = line.trim().strip_prefix("toss-serve listening on ") {
            let addr = rest
                .split_whitespace()
                .next()
                .unwrap_or_default()
                .to_string();
            return Ok(Served {
                child,
                _stdout: stdout,
                addr,
            });
        }
    }
}

/// A server left behind by an error is still drained and waited for.
impl Drop for Served {
    fn drop(&mut self) {
        drop(self.child.stdin.take());
        let _ = self.child.wait();
    }
}

impl Served {
    /// Close stdin (the CLI's drain signal) and wait for the exit.
    fn stop(mut self) -> BenchResult<()> {
        drop(self.child.stdin.take());
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("toss-cli serve exited with {status}"))
        }
    }
}

fn read_request(q: &QuerySpec) -> QueryRequest {
    queries::similar_wire(q, MAX_RESULTS)
}

fn digest(answers: usize, results: &[String]) -> u64 {
    let mut d = Digest::default();
    d.add(answers.to_string().as_bytes());
    for s in results {
        d.add(s.as_bytes());
    }
    d.value()
}

fn copy_store(from: &Path, to: &Path) -> BenchResult<()> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for f in STORE_FILES.iter().chain(&["seo.json"]) {
        std::fs::copy(from.join(f), to.join(f)).map_err(|e| format!("copy {f}: {e}"))?;
    }
    Ok(())
}

/// Title query for one inserted document.
fn title_request(seed: u64, n: usize) -> QueryRequest {
    let mut q = QueryRequest::new("dblp", "inproceedings");
    q.eq.push(("title".into(), format!("perfbench insert {seed} {n}")));
    q
}

struct Prepared {
    specs: Vec<QuerySpec>,
    expected: Vec<u64>,
    author: String,
}

/// Build the checkpointed store in `dir`: corpus, ontology (`seo.json`
/// for `--seo`), documents through the journal, then one serve that
/// checkpoints so the ontology sidecar and the reachability section
/// exist. Records the answers the restarts must reproduce.
fn prepare(args: &Args, cli: &Path, dir: &Path, t: &mut Timings) -> BenchResult<Prepared> {
    let t0 = Instant::now();
    let corpus = generate(CorpusConfig::scalability(args.seed, PAPERS));
    t.corpus.push(t0.elapsed().as_secs_f64());
    let to = Instant::now();
    let seo = ontology(&corpus)?;
    t.ontology.push(to.elapsed().as_secs_f64());
    let seo_json = toss_ontology::persist::seo_to_json(&seo);
    std::fs::write(dir.join("seo.json"), seo_json).map_err(|e| e.to_string())?;
    let ts = Instant::now();
    drop(store::build(&dir.join("store.json"), &corpus)?);
    t.store.push(ts.elapsed().as_secs_f64());
    let specs = workload(&corpus, args.seed ^ 0xc01d, QUERIES);
    let served = spawn(cli, dir)?;
    let mut c = Client::connect(served.addr.as_str()).map_err(|e| e.to_string())?;
    let mut expected = Vec::new();
    for q in &specs {
        let reply = c
            .query(read_request(q))
            .map_err(|e| format!("query: {e}"))?;
        expected.push(digest(reply.answers, &reply.results));
    }
    c.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    drop(c);
    served.stop()?;
    t.total.push(t0.elapsed().as_secs_f64());
    let author = corpus.papers[0].dblp_authors[0].clone();
    Ok(Prepared {
        specs,
        expected,
        author,
    })
}

/// The ontology `toss_bench::build_executor` builds, without the
/// in-memory copy of the store that the restarts never use.
fn ontology(corpus: &toss_datagen::Corpus) -> BenchResult<Arc<toss_ontology::Seo>> {
    use toss_core::{enhance_sdb, make_ontology, suggest_constraints, MakerConfig, OesInstance};
    let e = |e: toss_core::TossError| e.to_string();
    let lexicon = toss_bench::corpus_lexicon(corpus);
    let cfg = MakerConfig {
        max_terms_per_tag: TERMS_PER_TAG,
        ..MakerConfig::default()
    };
    let dblp = make_ontology(&corpus.dblp, &lexicon, &cfg).map_err(e)?;
    let sigmod = make_ontology(&corpus.sigmod, &lexicon, &cfg).map_err(e)?;
    let constraints = suggest_constraints(&dblp, 0, &sigmod, 1, &lexicon);
    let instances = vec![
        OesInstance::new("dblp", corpus.dblp.clone(), dblp),
        OesInstance::new("sigmod", corpus.sigmod.clone(), sigmod),
    ];
    let metric = toss_bench::experiment_metric();
    Ok(enhance_sdb(&instances, &constraints, &metric, EPSILON)
        .map_err(e)?
        .seo)
}

#[derive(Default)]
struct Timings {
    corpus: Vec<f64>,
    ontology: Vec<f64>,
    store: Vec<f64>,
    total: Vec<f64>,
}

/// The traced replay of one restart, in process: the same public calls
/// `toss-cli serve --writable` makes at start-up, each timed.
#[derive(Default)]
struct RestartLayers {
    open: Vec<f64>,
    segment: Vec<f64>,
    seo: Vec<f64>,
    first_query: Vec<f64>,
    append: Vec<f64>,
    thaw: Vec<f64>,
    /// The first query's read-path layers, summed over the restarts.
    query: crate::replay::Layers,
}

fn replay_restart(
    dir: &Path,
    q: &QuerySpec,
    doc: &str,
    reply_results: &[String],
    layers: &mut RestartLayers,
) -> BenchResult<bool> {
    let snapshot = dir.join("store.json");
    let t = Instant::now();
    let segment = toss_xmldb::segidx::load_segment(&StdVfs, &snapshot);
    layers.segment.push(ms(t.elapsed()));
    drop(segment);
    let t = Instant::now();
    let durable =
        DurableDatabase::open(&snapshot, DatabaseConfig::unlimited()).map_err(|e| e.to_string())?;
    layers.open.push(ms(t.elapsed()));
    let t = Instant::now();
    let (_, seo) = toss_serve::load_sidecar(&StdVfs, &snapshot).ok_or("no ontology sidecar")?;
    layers.seo.push(ms(t.elapsed()));
    let (db, mut writer) = durable.into_parts();
    let exec = Executor::new(db, Arc::new(seo))
        .with_probe_metric(Arc::new(toss_bench::experiment_metric()));
    let t = Instant::now();
    let (query, mode) =
        toss_serve::protocol::build_query(&read_request(q)).map_err(|e| e.to_string())?;
    let mut replayer = Replayer::new(&exec);
    replayer.layers = std::mem::take(&mut layers.query);
    let (forest, _) = replayer.select(&query, mode)?;
    let xml = replayer.serialize(&forest, MAX_RESULTS);
    layers.first_query.push(ms(t.elapsed()));
    replayer.layers.requests += 1;
    layers.query = std::mem::take(&mut replayer.layers);
    let same = xml == reply_results;
    drop(replayer);
    let mut db = exec.db;
    let op = JournalOp::Insert {
        collection: "dblp".into(),
        xml: doc.to_string(),
    };
    let t = Instant::now();
    writer
        .append_batch(std::slice::from_ref(&op))
        .map_err(|e| e.to_string())?;
    layers.append.push(ms(t.elapsed()));
    let t = Instant::now();
    apply_op(&mut db, &op).map_err(|e| e.to_string())?;
    layers.thaw.push(ms(t.elapsed()));
    Ok(same)
}

pub fn run(args: &Args) -> BenchResult<Report> {
    let mut r = Report::default();
    let cli: PathBuf = args.cli.clone().ok_or("cold-restart needs --cli")?;
    let dir = args.fresh_dir("store")?;
    let mut timings = Timings::default();
    let mut prepared = None;
    let mut pristine = PathBuf::new();
    for i in 0..SETUPS {
        pristine = dir.join(format!("setup-{i}"));
        std::fs::create_dir_all(&pristine).map_err(|e| e.to_string())?;
        prepared = Some(prepare(args, &cli, &pristine, &mut timings)?);
    }
    let p = prepared.expect("at least one set-up");
    let live = dir.join("live");

    let (mut restart_ms, mut query_ms, mut write_ms, mut rss) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // spawn to stopped server, summed over the restarts
    let mut cycles_s = 0.0;
    let mut layers = RestartLayers::default();
    let (mut traced_ms, mut untraced_ms) = (0.0, 0.0);
    let start = Instant::now();
    let mut k = 0usize;
    while k < MIN_RESTARTS || start.elapsed() < args.duration() {
        std::fs::remove_dir_all(&live).ok();
        copy_store(&pristine, &live)?;
        let doc = store::insert_doc(args.seed, k, &p.author);
        r.attempted += 1;

        let t = Instant::now();
        let served = spawn(&cli, &live)?;
        let mut c = Client::connect(served.addr.as_str()).map_err(|e| e.to_string())?;
        let mut first = None;
        for j in 0..QUERIES {
            let i = (k + j) % QUERIES;
            let tq = Instant::now();
            let reply = c
                .query(read_request(&p.specs[i]))
                .map_err(|e| format!("query {j} after restart: {e}"))?;
            query_ms.push(ms(tq.elapsed()));
            if j == 0 {
                restart_ms.push(ms(t.elapsed()));
            }
            r.check(digest(reply.answers, &reply.results) == p.expected[i], || {
                format!("restart {k}: answer {j} differs from the answer before the restart")
            });
            first.get_or_insert(reply);
        }
        let (q, reply) = (&p.specs[k % QUERIES], first.expect("QUERIES > 0"));
        let restart = *restart_ms.last().expect("one restart timed");
        let tw = Instant::now();
        c.insert_doc("dblp", &doc)
            .map_err(|e| format!("first insert: {e}"))?;
        write_ms.push(ms(tw.elapsed()));
        let found = c
            .query(title_request(args.seed, k))
            .map_err(|e| e.to_string())?
            .answers;
        r.check(found == 1, || {
            format!("restart {k}: acked insert read back {found} times")
        });
        rss.push(peak_rss_mb(Some(served.child.id()))?);
        drop(c);
        served.stop()?;
        cycles_s += t.elapsed().as_secs_f64();

        if args.trace {
            std::fs::remove_dir_all(&live).ok();
            copy_store(&pristine, &live)?;
            let same = replay_restart(&live, q, &doc, &reply.results, &mut layers)?;
            // the instrumented restart path: everything before the insert
            traced_ms += [
                &layers.segment,
                &layers.open,
                &layers.seo,
                &layers.first_query,
            ]
            .iter()
            .filter_map(|v| v.last())
            .sum::<f64>();
            untraced_ms += restart;
            r.check(same, || {
                format!("restart {k}: replayed first answer differs")
            });
        }
        k += 1;
    }

    // the last restart's acked insert must survive another restart
    // (a traced run's last replay wrote to the live copy in process,
    // which holds the same insert)
    let served = spawn(&cli, &live)?;
    let mut c = Client::connect(served.addr.as_str()).map_err(|e| e.to_string())?;
    let found = c
        .query(title_request(args.seed, k - 1))
        .map_err(|e| e.to_string())?
        .answers;
    r.check(found == 1, || {
        format!("acked insert found {found} times after a restart")
    });
    drop(c);
    served.stop()?;

    r.e2e("setup_s", median(&timings.total), "s");
    r.info("setup_samples_s", crate::common::floats(&timings.total));
    r.e2e("similar_p50_ms", median(&query_ms), "ms");
    r.e2e("main_op_p50_ms", median(&restart_ms), "ms");
    r.e2e("ops_per_s", k as f64 / cycles_s, "1/s");
    r.e2e("peak_rss_mb", median(&rss), "MB");
    r.figure("restart_ms", median(&restart_ms), "ms");
    r.figure("first_write_ms", median(&write_ms), "ms");
    r.info("restarts", k);

    r.layer("setup.corpus_s", median(&timings.corpus), "s");
    r.layer("setup.ontology_s", median(&timings.ontology), "s");
    r.layer("setup.store_s", median(&timings.store), "s");
    if args.trace {
        let (open, seo, query) = (
            median(&layers.open),
            median(&layers.seo),
            median(&layers.first_query),
        );
        r.layer("restart.open_ms", open, "ms");
        r.layer("restart.segment_ms", median(&layers.segment), "ms");
        layers.query.report(&mut r);
        r.layer("restart.seo_ms", seo, "ms");
        r.layer("restart.first_query_ms", query, "ms");
        r.layer("restart.append_fsync_ms", median(&layers.append), "ms");
        r.layer("restart.thaw_ms", median(&layers.thaw), "ms");
        r.layer(
            "unattributed_ms",
            median(&restart_ms) - (open + seo + query),
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
    std::fs::remove_dir_all(&dir).ok();
    Ok(r)
}
