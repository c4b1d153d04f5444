//! Arguments, statistics and the result line shared by every workload.

use std::path::PathBuf;
use std::time::Duration;
use toss_json::Value;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Scratch directory for stores; each workload makes its own
    /// sub-directory and removes it when done.
    pub work_dir: PathBuf,
    /// The `toss-cli` binary the cold-restart workload spawns.
    pub cli: Option<PathBuf>,
    /// Git revision of the measured code (`unknown` outside a checkout).
    pub rev: String,
}

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let (mut work_dir, mut cli, mut rev) = (None, None, "unknown".to_string());
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
                "--seconds" => seconds = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
                "--trace" => {
                    trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                    })
                }
                "--work-dir" => work_dir = Some(PathBuf::from(value()?)),
                "--cli" => cli = Some(PathBuf::from(value()?)),
                "--rev" => rev = value()?,
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            work_dir: work_dir.ok_or("--work-dir is required")?,
            cli,
            rev,
        })
    }

    pub fn duration(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }

    /// A fresh, empty directory for this run's files.
    pub fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self
            .work_dir
            .join(format!("{}-{}-{}", self.workload, name, std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// The end-to-end metrics, as `BENCHMARK.json` lists them. Every
/// workload reports each of them in an untraced run; what each one
/// measures on which workload is in `perfbench/README.md`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("similar_p50_ms", "ms"),
    ("main_op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, as `BENCHMARK.json` lists them. A traced run
/// prints all of them; a layer the workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("setup.corpus_s", "s"),
    ("setup.ontology_s", "s"),
    ("setup.store_s", "s"),
    ("rewrite.compile_ms", "ms"),
    ("rewrite.expansion_terms", "count"),
    ("rewrite.cache_hit_ratio", "ratio"),
    ("xpath.parse_ms", "ms"),
    ("xpath.bytes", "bytes"),
    ("planner.ms", "ms"),
    ("planner.probe_share", "ratio"),
    ("xmldb.retrieve_ms", "ms"),
    ("xmldb.candidate_docs", "count"),
    ("xmldb.match_ratio", "ratio"),
    ("load.ms", "ms"),
    ("load.nodes", "count"),
    ("tax.embed_ms", "ms"),
    ("tax.select_ms", "ms"),
    ("tax.witness_ratio", "ratio"),
    ("simjoin.ms", "ms"),
    ("simjoin.candidates", "count"),
    ("simjoin.pairs", "count"),
    ("simjoin.refined", "ratio"),
    ("serialize.ms", "ms"),
    ("serialize.bytes", "bytes"),
    ("serve.server_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.shed", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("wal.append_fsync_ms", "ms"),
    ("wal.mean_batch_size", "count"),
    ("ontology.enhance_ms", "ms"),
    ("checkpoint.ms", "ms"),
    ("serve.similar_tail_ms", "ms"),
    ("write_ack_tail_ms", "ms"),
    ("ontology_ack_ms", "ms"),
    ("restart.open_ms", "ms"),
    ("restart.segment_ms", "ms"),
    ("restart.seo_ms", "ms"),
    ("restart.first_query_ms", "ms"),
    ("restart.append_fsync_ms", "ms"),
    ("restart.thaw_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("failed_share", "ratio"),
];

/// What one workload run produced.
#[derive(Default)]
pub struct Report {
    /// Requests attempted in the measured phase.
    pub attempted: u64,
    /// Of those, failed or refused.
    pub failed: u64,
    /// End-to-end metrics (printed with `--trace 0`).
    pub end_to_end: Vec<(String, f64, &'static str)>,
    /// Per-layer metrics (printed with `--trace 1`).
    pub per_layer: Vec<(String, f64, &'static str)>,
    /// Workload-specific figures (printed on the stamp line): the
    /// figures only one workload has, such as `join_p50_ms`.
    pub figures: Vec<(String, f64, &'static str)>,
    /// Extra stamp fields: sample counts, tail percentiles, plans.
    pub info: Vec<(String, Value)>,
    /// Failed output checks. Any entry makes the run incorrect.
    pub problems: Vec<String>,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push((name.to_string(), value, unit));
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push((name.to_string(), value, unit));
    }

    pub fn figure(&mut self, name: &str, value: f64, unit: &'static str) {
        self.figures.push((name.to_string(), value, unit));
    }

    pub fn info(&mut self, key: &str, value: impl Into<Value>) {
        self.info.push((key.to_string(), value.into()));
    }

    /// Record an output check; a false condition fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// A latency sample set as a median figure plus its tail percentile.
    pub fn latency(&mut self, prefix: &str, samples: &[f64], with_tail: bool) {
        let s = Summary::of(samples);
        self.figure(&format!("{prefix}_p50_ms"), s.median, "ms");
        if with_tail {
            self.figure(&format!("{prefix}_tail_ms"), s.tail, "ms");
            self.info(&format!("{prefix}_tail_pct"), s.tail_pct);
        }
        self.info(&format!("{prefix}_samples"), s.n);
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Put the metrics in the order of `BENCHMARK.json`. A missing or
    /// non-positive end-to-end metric, a metric in the wrong unit and a
    /// metric `BENCHMARK.json` does not list fail the run; a per-layer
    /// metric the workload did not report is a layer its traced run does
    /// not time, and reads 0.
    pub fn finish(&mut self) {
        let mut e2e = Vec::new();
        for (name, unit) in END_TO_END {
            match self.end_to_end.iter().find(|m| m.0 == name) {
                Some(m) if m.2 == unit && m.1.is_finite() && m.1 > 0.0 => e2e.push(m.clone()),
                Some(m) => self.problems.push(format!("{name} = {} {}", m.1, m.2)),
                None => self.problems.push(format!("{name} was not measured")),
            }
        }
        let mut layers = Vec::new();
        for (name, unit) in PER_LAYER {
            match self.per_layer.iter().find(|m| m.0 == name) {
                Some(m) if m.2 == unit && m.1.is_finite() => layers.push(m.clone()),
                Some(m) => self.problems.push(format!("{name} = {} {}", m.1, m.2)),
                None => layers.push((name.to_string(), 0.0, unit)),
            }
        }
        for (name, _, _) in self.end_to_end.iter().chain(&self.per_layer) {
            let known = END_TO_END.iter().chain(&PER_LAYER).any(|m| m.0 == name);
            if !known {
                self.problems.push(format!("{name} is not a metric of BENCHMARK.json"));
            }
        }
        self.end_to_end = e2e;
        self.per_layer = layers;
    }

    /// Print the stamp line and then the result line (always last).
    pub fn print(&self, args: &Args) {
        for p in &self.problems {
            eprintln!("check failed: {p}");
        }
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut stamp = vec![
            ("workload", Value::from(args.workload.as_str())),
            ("seed", Value::from(args.seed)),
            ("seconds", Value::from(args.seconds)),
            ("trace", Value::from(args.trace)),
            ("nproc", Value::from(nproc)),
            ("rev", Value::from(args.rev.as_str())),
            ("figures", metrics(&self.figures)),
        ];
        for (k, v) in &self.info {
            stamp.push((k.as_str(), v.clone()));
        }
        println!(
            "{}",
            Value::object(vec![("stamp", Value::object(stamp))]).to_json()
        );
        let chosen = if args.trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let line = Value::object(vec![
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", metrics(chosen)),
        ]);
        println!("{}", line.to_json());
    }
}

/// `{name: {"value": v, "unit": u}, ...}` in the given order.
fn metrics(list: &[(String, f64, &'static str)]) -> Value {
    Value::object(
        list.iter()
            .map(|(name, value, unit)| {
                (
                    name.as_str(),
                    Value::object(vec![
                        ("value", Value::Float(*value)),
                        ("unit", (*unit).into()),
                    ]),
                )
            })
            .collect(),
    )
}

/// A JSON array of sample values, for the stamp.
pub fn floats(samples: &[f64]) -> Value {
    Value::Array(samples.iter().map(|&v| Value::Float(v)).collect())
}

/// Median and tail of a sample set. The tail is the highest of the
/// percentiles 90, 99, 99.9 and 99.99 with at least ten samples beyond
/// it, so the sample count fixes which percentile is reported; below
/// 100 samples it is the maximum.
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub tail_pct: f64,
    pub tail: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let tail_pct = [99.99, 99.9, 99.0, 90.0]
            .into_iter()
            .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
            .unwrap_or(100.0);
        Summary {
            n,
            median: percentile(&v, 50.0),
            tail_pct,
            tail: percentile(&v, tail_pct),
        }
    }
}

/// Nearest-rank percentile of sorted samples (0 for an empty set).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set (VmHWM) of `pid` (or this process) in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or(format!("{path}: no VmHWM line"))
}

/// FNV-1a over a sequence of byte strings, order-sensitive.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// SplitMix64: the benchmark's own deterministic stream for schedules
/// and probe choices, derived from `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_7055_bead_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}
