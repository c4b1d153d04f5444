//! `serve-rw`: a writable `toss-serve` server on loopback under an
//! open-loop mix of `similar` reads and acked document inserts, with
//! ontology writes and checkpoints at fixed points of the schedule.

use crate::common::{median, ms, peak_rss_mb, percentile, Args, Digest, Report, Rng};
use crate::replay::Replayer;
use crate::{queries, store, BenchResult};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};
use toss_core::Executor;
use toss_datagen::{corpus::generate, queries::workload, CorpusConfig, QuerySpec};
use toss_ontology::Seo;
use toss_serve::{
    Client, ClientError, ErrorCode, QueryRequest, Server, ServerConfig, WriteConfig, WriteEngine,
};

const PAPERS: usize = 4000;
const EPSILON: f64 = 3.0;
const TERMS_PER_TAG: usize = 300;
/// Distinct `similar` probes: four times the 512-entry rewrite cache.
const PROBE_POOL: usize = 2048;
/// The skew: `HOT_SHARE` of reads go uniformly to the first `HOT`
/// probes, which fit the rewrite cache; the rest go uniformly to the
/// other probes, which mostly miss it. A uniform hot set (rather than
/// a Zipf head) keeps any single probe's cost from dominating a run.
const HOT: usize = 256;
const HOT_SHARE: f64 = 0.9;
/// Result trees serialized per reply.
const MAX_RESULTS: usize = 10;
/// Offered load in requests per second, pinned at about half the read
/// capacity measured on a 2-core container (see README.md).
const RATE: f64 = 300.0;
/// Share of scheduled requests that are document inserts.
const INSERT_SHARE: f64 = 0.10;
/// Read connections (the measuring machine's core count).
const READ_CONNECTIONS: usize = 2;
/// Insert connections. Inserts have their own connections, so a read
/// never waits in the client behind an insert the writer has not acked,
/// and enough of them that inserts queued behind an ontology write
/// reach the writer together and drain in a few group commits.
const INSERT_CONNECTIONS: usize = 8;
/// When the control connection's ontology writes and checkpoints are
/// due, as fractions of the second half of the run. The first half has
/// reads and inserts only and gives the end-to-end figures; in the
/// second half each `add_term` re-runs SEA over the whole ontology on
/// the writer thread (2–3 s here), swaps the SEO and so flushes the
/// rewrite cache. Those stalls made the first-half figures vary too
/// much between runs on a shared 2-core machine when they overlapped,
/// so they are measured in the second half and reported per layer.
const CONTROL_AT: [(f64, bool); 4] = [(0.05, false), (0.4, true), (0.5, false), (0.9, true)];
/// A read counts toward goodput when answered this soon after its due time.
const LATENCY_LIMIT_MS: f64 = 50.0;
/// Closed-loop reads before the measured phase, to fill the caches.
const WARMUP_READS: usize = 600;
/// Reads replayed layer by layer in a traced run.
const REPLAY_READS: usize = 100;
/// Independent set-ups per run; `setup_s` is their median. SEA's time
/// alone varied by ±25% between set-ups of one process on a shared
/// 2-core machine.
const SETUPS: usize = 5;

#[derive(Clone, Copy)]
enum Kind {
    Read(usize),
    Insert(usize),
}

/// One scheduled request's outcome.
struct Sample {
    kind: Kind,
    /// Due in the first half of the run (no ontology writes).
    quiet: bool,
    late_ms: f64,
    /// Completion minus due time.
    latency_ms: f64,
    /// Completion minus send time.
    rtt_ms: f64,
    /// Completion, from the start of the measured phase.
    done_s: f64,
    server_us: u64,
    result: Result<Answer, ClientError>,
}

enum Answer {
    Read { answers: usize, digest: u64 },
    Write { batch_size: u64, fsync_ns: u64 },
}

struct Setup {
    server: Server,
    exec: Arc<RwLock<Executor>>,
    seo: Arc<Seo>,
    specs: Vec<QuerySpec>,
    authors: Vec<String>,
}

fn setup(args: &Args, dir: &std::path::Path, r: &mut Timings) -> BenchResult<Setup> {
    let t = Instant::now();
    let corpus = generate(CorpusConfig::scalability(args.seed, PAPERS));
    r.corpus.push(t.elapsed().as_secs_f64());
    let built = toss_bench::build_executor(&corpus, EPSILON, TERMS_PER_TAG);
    r.ontology.push(built.precompute_time.as_secs_f64());
    let seo = built.executor.seo.clone();
    drop(built);
    let ts = Instant::now();
    let (db, writer) = store::build(&dir.join("store.json"), &corpus)?;
    r.store.push(ts.elapsed().as_secs_f64());
    let metric = toss_bench::experiment_metric();
    let exec = Executor::new(db, seo.clone()).with_probe_metric(Arc::new(metric.clone()));
    let exec = Arc::new(RwLock::new(exec));
    let engine = WriteEngine {
        writer,
        hierarchy: seo.original().clone(),
        enhancer: Box::new(move |h| {
            toss_ontology::enhance(h, &metric, EPSILON).map_err(|e| e.to_string())
        }),
        config: WriteConfig {
            // checkpoints come only from the schedule
            checkpoint_every: 0,
            ..WriteConfig::default()
        },
    };
    let server =
        Server::start_writable(exec.clone(), engine, "127.0.0.1:0", ServerConfig::default())
            .map_err(|e| format!("start server: {e}"))?;
    r.total.push(t.elapsed().as_secs_f64());
    let specs = probe_pool(&corpus, args.seed);
    let authors = corpus
        .papers
        .iter()
        .map(|p| p.dblp_authors[0].clone())
        .collect();
    Ok(Setup {
        server,
        exec,
        seo,
        specs,
        authors,
    })
}

/// `PROBE_POOL` distinct Fig-15 probes. `workload` avoids reusing an
/// author while fresh ones remain, which gets slow once one call asks
/// for about as many queries as there are authors with papers, so the
/// pool is drawn in rounds and deduplicated.
fn probe_pool(corpus: &toss_datagen::Corpus, seed: u64) -> Vec<QuerySpec> {
    const ROUND: usize = 256;
    let mut seen = BTreeSet::new();
    let mut pool = Vec::with_capacity(PROBE_POOL);
    let mut round = 0u64;
    while pool.len() < PROBE_POOL {
        for q in workload(corpus, seed ^ (0x5e00 + round), ROUND) {
            let key = (q.author_probe.clone(), q.venue_isa.clone());
            if pool.len() < PROBE_POOL && seen.insert(key) {
                pool.push(q);
            }
        }
        round += 1;
    }
    pool
}

#[derive(Default)]
struct Timings {
    corpus: Vec<f64>,
    ontology: Vec<f64>,
    store: Vec<f64>,
    total: Vec<f64>,
}

fn read_request(specs: &[QuerySpec], i: usize) -> QueryRequest {
    queries::similar_wire(&specs[i], MAX_RESULTS)
}

fn digest(results: &[String]) -> u64 {
    let mut d = Digest::default();
    for s in results {
        d.add(s.as_bytes());
    }
    d.value()
}

fn send(
    client: &mut Client,
    s: &Setup,
    seed: u64,
    kind: Kind,
) -> (Result<Answer, ClientError>, u64) {
    match kind {
        Kind::Read(i) => match client.query(read_request(&s.specs, i)) {
            Ok(rep) => {
                let d = digest(&rep.results);
                (
                    Ok(Answer::Read {
                        answers: rep.answers,
                        digest: d,
                    }),
                    rep.server_us,
                )
            }
            Err(e) => (Err(e), 0),
        },
        Kind::Insert(n) => {
            let xml = store::insert_doc(seed, n, &s.authors[n % s.authors.len()]);
            match client.insert_doc("dblp", &xml) {
                Ok(w) => (
                    Ok(Answer::Write {
                        batch_size: w.batch_size,
                        fsync_ns: w.fsync_ns,
                    }),
                    w.server_us,
                ),
                Err(e) => (Err(e), 0),
            }
        }
    }
}

/// Draw a probe index with the hot/cold skew.
fn probe(rng: &mut Rng) -> usize {
    let u = rng.unit();
    if u < HOT_SHARE {
        (u / HOT_SHARE * HOT as f64) as usize
    } else {
        HOT + ((u - HOT_SHARE) / (1.0 - HOT_SHARE) * (PROBE_POOL - HOT) as f64) as usize
    }
}

fn sleep_until(start: Instant, due: Duration) {
    let now = start.elapsed();
    if due > now {
        std::thread::sleep(due - now);
    }
}

pub fn run(args: &Args) -> BenchResult<Report> {
    let mut r = Report::default();
    let dir = args.fresh_dir("store")?;
    let mut timings = Timings::default();
    let mut served: Option<Setup> = None;
    for i in 0..SETUPS {
        if let Some(s) = served.take() {
            s.server.shutdown();
        }
        let sub = dir.join(format!("setup-{i}"));
        std::fs::create_dir_all(&sub).map_err(|e| e.to_string())?;
        served = Some(setup(args, &sub, &mut timings)?);
    }
    let s = served.expect("at least one set-up");
    let addr = s.server.local_addr();
    let connect = || Client::connect(addr).map_err(|e| format!("connect: {e}"));

    // ---- schedule: one stream of reads and inserts at RATE, plus control ops ----
    let mut rng = Rng::new(args.seed);
    let secs = args.seconds as f64;
    let slots = (secs * RATE) as usize;
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    for k in 0..slots {
        let due = Duration::from_secs_f64(k as f64 / RATE);
        if rng.unit() < INSERT_SHARE {
            writes.push((due, Kind::Insert(writes.len())));
        } else {
            reads.push((due, Kind::Read(probe(&mut rng))));
        }
    }
    let half = secs / 2.0;
    let control: Vec<(Duration, bool)> = CONTROL_AT
        .iter()
        .map(|&(f, checkpoint)| (Duration::from_secs_f64(half * (1.0 + f)), checkpoint))
        .collect();

    // ---- warm-up: closed loop over the same skewed probe stream ----
    {
        let mut c = connect()?;
        let mut warm = Rng::new(args.seed ^ 0xa11);
        let t = Instant::now();
        for _ in 0..WARMUP_READS {
            c.query(read_request(&s.specs, probe(&mut warm)))
                .map_err(|e| format!("warm-up read: {e}"))?;
        }
        r.info(
            "warmup_reads_per_s",
            WARMUP_READS as f64 / t.elapsed().as_secs_f64(),
        );
        // one ontology write and one checkpoint, so the measured ones
        // are not the first (the first SEO swap and the first snapshot
        // of a process pay one-off costs)
        c.add_term(&[&format!("perfbench warm-up term {}", args.seed)])
            .map_err(|e| format!("warm-up add_term: {e}"))?;
        c.checkpoint()
            .map_err(|e| format!("warm-up checkpoint: {e}"))?;
        for _ in 0..WARMUP_READS {
            c.query(read_request(&s.specs, probe(&mut warm)))
                .map_err(|e| format!("warm-up read: {e}"))?;
        }
    }

    // ---- measured open loop ----
    let (hits0, misses0) = {
        let e = s.exec.read().map_err(|_| "executor lock poisoned")?;
        (e.rewrite_cache.hits(), e.rewrite_cache.misses())
    };
    let samples = Mutex::new(Vec::with_capacity(slots));
    let control_samples = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| -> BenchResult<()> {
        let mut handles = Vec::new();
        for (stream, connections) in [(&reads, READ_CONNECTIONS), (&writes, INSERT_CONNECTIONS)] {
            let next = Arc::new(AtomicUsize::new(0));
            for _ in 0..connections {
                let mut client = connect()?;
                let (next, samples, s) = (next.clone(), &samples, &s);
                handles.push(scope.spawn(move || loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(due, kind)) = stream.get(k) else {
                        break;
                    };
                    sleep_until(start, due);
                    let sent = start.elapsed();
                    let (result, server_us) = send(&mut client, s, args.seed, kind);
                    let done = start.elapsed();
                    let sample = Sample {
                        kind,
                        quiet: due.as_secs_f64() < half,
                        late_ms: ms(sent.saturating_sub(due)),
                        latency_ms: ms(done - due.min(done)),
                        rtt_ms: ms(done - sent),
                        done_s: done.as_secs_f64(),
                        server_us,
                        result,
                    };
                    samples.lock().expect("sample lock").push(sample);
                }));
            }
        }
        let mut client = connect()?;
        let (control, control_samples) = (&control, &control_samples);
        let seed = args.seed;
        handles.push(scope.spawn(move || {
            for (i, &(due, checkpoint)) in control.iter().enumerate() {
                sleep_until(start, due);
                let result = if checkpoint {
                    client.checkpoint().map(|_| ())
                } else {
                    client
                        .add_term(&[&format!("perfbench term {seed} {i}")])
                        .map(|_| ())
                };
                let done = start.elapsed();
                control_samples.lock().expect("sample lock").push((
                    checkpoint,
                    ms(done - due.min(done)),
                    result,
                ));
            }
        }));
        for h in handles {
            h.join().map_err(|_| "load thread panicked")?;
        }
        Ok(())
    })?;
    let samples = samples.into_inner().map_err(|_| "sample lock poisoned")?;
    let control_samples = control_samples
        .into_inner()
        .map_err(|_| "sample lock poisoned")?;
    let peak_rss = peak_rss_mb(None)?;
    let (hits, misses) = {
        let e = s.exec.read().map_err(|_| "executor lock poisoned")?;
        (
            e.rewrite_cache.hits() - hits0,
            e.rewrite_cache.misses() - misses0,
        )
    };

    // ---- tally and check ----
    let (mut read_ms, mut write_ms, mut server_ms, mut wire_ms, mut late) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut busy_read_ms, mut busy_write_ms) = (Vec::new(), Vec::new());
    let mut batches: BTreeMap<u64, u64> = BTreeMap::new();
    let (mut good, mut shed, mut insert_acks) = (0u64, 0u64, 0u64);
    // the first half's span: until its last read was answered
    let mut quiet_span_s = 0f64;
    let mut seen: BTreeMap<usize, (usize, u64)> = BTreeMap::new();
    for smp in &samples {
        r.attempted += 1;
        match (&smp.result, smp.kind) {
            (Ok(Answer::Read { answers, digest }), Kind::Read(i)) => {
                // inserts run late whenever the writer is busy with SEA;
                // only the read stream shows whether the generator kept up
                late.push(smp.late_ms);
                if smp.quiet {
                    read_ms.push(smp.latency_ms);
                    server_ms.push(smp.server_us as f64 / 1e3);
                    wire_ms.push(smp.rtt_ms - smp.server_us as f64 / 1e3);
                    good += u64::from(smp.latency_ms <= LATENCY_LIMIT_MS);
                    quiet_span_s = quiet_span_s.max(smp.done_s);
                } else {
                    busy_read_ms.push(smp.latency_ms);
                }
                let first = *seen.entry(i).or_insert((*answers, *digest));
                r.check(first == (*answers, *digest), || {
                    format!("probe {i}: answers changed between reads")
                });
            }
            (
                Ok(Answer::Write {
                    batch_size,
                    fsync_ns,
                }),
                Kind::Insert(_),
            ) => {
                if smp.quiet {
                    write_ms.push(smp.latency_ms);
                } else {
                    busy_write_ms.push(smp.latency_ms);
                }
                insert_acks += 1;
                batches.insert(*fsync_ns, *batch_size);
            }
            (Ok(_), _) => r.check(false, || "reply of the wrong kind".into()),
            (
                Err(ClientError::Server {
                    code: ErrorCode::Overloaded,
                    ..
                }),
                _,
            ) => {
                r.failed += 1;
                shed += 1;
            }
            (Err(e), _) => {
                r.failed += 1;
                r.check(false, || format!("request failed: {e}"));
            }
        }
    }
    let (mut ontology_ms, mut checkpoint_ms, mut term_acks) = (Vec::new(), Vec::new(), 0u64);
    for (checkpoint, latency, result) in &control_samples {
        r.attempted += 1;
        match result {
            Ok(()) if *checkpoint => checkpoint_ms.push(*latency),
            Ok(()) => {
                ontology_ms.push(*latency);
                term_acks += 1;
            }
            Err(e) => {
                r.failed += 1;
                r.check(false, || format!("control op failed: {e}"));
            }
        }
    }
    let mut c = connect()?;
    let mut inbox = QueryRequest::new("dblp", "inproceedings");
    inbox.eq.push(("booktitle".into(), store::INBOX.into()));
    inbox.max_results = 0;
    let found = c
        .query(inbox)
        .map_err(|e| format!("inbox query: {e}"))?
        .answers as u64;
    r.check(found == insert_acks, || {
        format!("{insert_acks} inserts acked but {found} readable")
    });
    let stats = c.stats().map_err(|e| format!("stats: {e}"))?;
    // every acked write, plus the warm-up ontology write
    let acked = insert_acks + term_acks + 1;
    r.check(stats.write.applied == acked, || {
        format!(
            "stats.write.applied = {} but {acked} writes acked",
            stats.write.applied
        )
    });
    r.check(!ontology_ms.is_empty() && !checkpoint_ms.is_empty(), || {
        "no ontology write or checkpoint completed".into()
    });

    // ---- end-to-end ----
    let goodput = good as f64 / quiet_span_s;
    r.e2e("setup_s", median(&timings.total), "s");
    r.info("setup_samples_s", crate::common::floats(&timings.total));
    r.e2e("similar_p50_ms", median(&read_ms), "ms");
    r.e2e("main_op_p50_ms", median(&write_ms), "ms");
    r.e2e("ops_per_s", goodput, "1/s");
    r.e2e("peak_rss_mb", peak_rss, "MB");
    r.latency("similar", &read_ms, true);
    r.latency("write_ack", &write_ms, false);
    r.figure("goodput_qps", goodput, "1/s");
    r.info("offered_rate", RATE);
    r.info("latency_limit_ms", LATENCY_LIMIT_MS);
    r.info("ontology_writes", term_acks);
    r.info("checkpoints", checkpoint_ms.len());

    // ---- per layer ----
    r.layer("setup.corpus_s", median(&timings.corpus), "s");
    r.layer("setup.ontology_s", median(&timings.ontology), "s");
    r.layer("setup.store_s", median(&timings.store), "s");
    r.layer(
        "rewrite.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    r.layer("serve.server_ms", median(&server_ms), "ms");
    r.layer("serve.wire_ms", median(&wire_ms), "ms");
    r.layer("serve.shed", shed as f64, "count");
    late.sort_by(f64::total_cmp);
    r.layer("loadgen.late_p99_ms", percentile(&late, 99.0), "ms");
    let sizes: Vec<u64> = batches.values().copied().collect();
    r.layer(
        "wal.mean_batch_size",
        sizes.iter().sum::<u64>() as f64 / sizes.len().max(1) as f64,
        "count",
    );
    r.layer("checkpoint.ms", median(&checkpoint_ms), "ms");
    // Figures from the half with ontology writes, which vary too much
    // between runs to hold an end-to-end bound (see README.md).
    let reads = crate::common::Summary::of(&busy_read_ms);
    r.layer("serve.similar_tail_ms", reads.tail, "ms");
    r.info("busy_similar_tail_pct", reads.tail_pct);
    let writes = crate::common::Summary::of(&busy_write_ms);
    r.layer("write_ack_tail_ms", writes.tail, "ms");
    r.info("busy_write_ack_tail_pct", writes.tail_pct);
    r.layer("ontology_ack_ms", median(&ontology_ms), "ms");
    r.figure("busy_write_ack_tail_ms", writes.tail, "ms");
    r.figure("ontology_ack_ms", median(&ontology_ms), "ms");
    if args.trace {
        trace(args, &s, &mut c, &sizes, &dir, &mut r)?;
    }
    r.layer(
        "failed_share",
        r.failed as f64 / r.attempted.max(1) as f64,
        "ratio",
    );
    drop(c);
    s.server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    Ok(r)
}

/// The traced part: replay reads layer by layer against the served
/// executor (after the load, so the state is quiet), replay the run's
/// WAL batch sizes against a scratch journal, and re-run SEA over the
/// served hierarchy.
fn trace(
    args: &Args,
    s: &Setup,
    c: &mut Client,
    batch_sizes: &[u64],
    dir: &std::path::Path,
    r: &mut Report,
) -> BenchResult<()> {
    let guard = s.exec.read().map_err(|_| "executor lock poisoned")?;
    let mut replayer = Replayer::new(&guard);
    let picks: BTreeSet<usize> = (0..REPLAY_READS.min(s.specs.len())).collect();
    for &i in &picks {
        let (q, mode) = toss_serve::protocol::build_query(&read_request(&s.specs, i))
            .map_err(|e| e.to_string())?;
        replayer.select(&q, mode)?;
        c.query(read_request(&s.specs, i))
            .map_err(|e| format!("warm read: {e}"))?;
    }
    replayer.layers = Default::default();
    let (mut server_ms, mut traced_ms) = (0.0, 0.0);
    for &i in &picks {
        let req = read_request(&s.specs, i);
        let reply = c
            .query(req.clone())
            .map_err(|e| format!("replayed read: {e}"))?;
        server_ms += reply.server_us as f64 / 1e3;
        let t = Instant::now();
        let (q, mode) = toss_serve::protocol::build_query(&req).map_err(|e| e.to_string())?;
        let (forest, _) = replayer.select(&q, mode)?;
        let xml = replayer.serialize(&forest, MAX_RESULTS);
        traced_ms += ms(t.elapsed());
        replayer.layers.requests += 1;
        r.check(
            forest.len() == reply.answers && xml == reply.results,
            || format!("probe {i}: replayed answer differs from the server's"),
        );
    }
    let layers = &replayer.layers;
    layers.report(r);
    let n = layers.requests.max(1) as f64;
    r.layer(
        "unattributed_ms",
        (server_ms - ms(layers.attributed())) / n,
        "ms",
    );
    r.layer(
        "trace.overhead_pct",
        (traced_ms / server_ms - 1.0) * 100.0,
        "%",
    );

    // SEA over the served (grown) hierarchy
    let t = Instant::now();
    let seo = toss_ontology::enhance(
        guard.seo.original(),
        &toss_bench::experiment_metric(),
        s.seo.epsilon(),
    )
    .map_err(|e| e.to_string())?;
    r.layer("ontology.enhance_ms", ms(t.elapsed()), "ms");
    r.check(
        seo.enhanced().term_count() == guard.seo.enhanced().term_count(),
        || "re-enhanced ontology differs in size from the served one".into(),
    );
    drop(replayer);
    drop(guard);

    // WAL group commits with the run's batch sizes
    let snapshot = dir.join("wal-replay").join("store.json");
    std::fs::create_dir_all(snapshot.parent().expect("has a parent")).map_err(|e| e.to_string())?;
    let mut durable =
        toss_xmldb::DurableDatabase::open(&snapshot, toss_xmldb::DatabaseConfig::unlimited())
            .map_err(|e| e.to_string())?;
    durable
        .create_collection("dblp")
        .map_err(|e| e.to_string())?;
    let (_, mut writer) = durable.into_parts();
    let mut append = Vec::new();
    let mut n = 0usize;
    for &size in batch_sizes {
        let ops: Vec<_> = (0..size)
            .map(|_| {
                n += 1;
                toss_xmldb::JournalOp::Insert {
                    collection: "dblp".into(),
                    xml: store::insert_doc(args.seed, n, &s.authors[n % s.authors.len()]),
                }
            })
            .collect();
        let t = Instant::now();
        writer.append_batch(&ops).map_err(|e| e.to_string())?;
        append.push(ms(t.elapsed()));
    }
    r.layer("wal.append_fsync_ms", crate::common::mean(&append), "ms");
    Ok(())
}
