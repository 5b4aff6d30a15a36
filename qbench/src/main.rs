//! The repository benchmark. Runs one named workload against the public
//! API of the qmldb crates, checks every output, and prints one JSON
//! result line: the end-to-end metrics from an untraced run, or with
//! `--trace 1` the per-layer metrics from a traced run. See README.md.
//!
//! ```text
//! qbench --workload <serve-hot|serve-churn|portfolio-solve|qml-train>
//!        --seed <n> --seconds <s> --trace <0|1>
//! ```

mod models;
mod serve;
mod solve;
mod stats;
mod trace;
mod train;

use qmldb_math::json::Json;
use qmldb_math::par;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Largest share of a traced op's time the attribution may leave to no
/// layer before the run fails.
pub const UNATTRIBUTED_TOLERANCE: f64 = 0.15;

/// Setups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Every per-layer metric a traced run prints, with its unit. A layer a
/// workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 42] = [
    ("server.overhead_us", "us"),
    ("server.stalled_ratio", "ratio"),
    ("wire.parse_us", "us"),
    ("wire.serialize_us", "us"),
    ("wire.reply_bytes", "bytes"),
    ("service.hit_us", "us"),
    ("service.miss_ms", "ms"),
    ("service.hol_hit_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("db.encode_us", "us"),
    ("portfolio.solve_ms", "ms"),
    ("portfolio.exact_share", "ratio"),
    ("portfolio.escalations", "count"),
    ("portfolio.repaired_ratio", "ratio"),
    ("anneal.exact_ms", "ms"),
    ("anneal.exact_states", "count"),
    ("anneal.sa_ms", "ms"),
    ("anneal.sqa_ms", "ms"),
    ("anneal.tabu_ms", "ms"),
    ("anneal.tempering_ms", "ms"),
    ("anneal.proposals_per_us", "1/us"),
    ("sim.engine_build_us", "us"),
    ("sim.grad_us", "us"),
    ("vqc.unattributed_share", "ratio"),
    ("par.fanout_us", "us"),
    ("par.threads", "count"),
    ("gen.late_ms", "ms"),
    ("self.server_ms", "ms"),
    ("self.wire_ms", "ms"),
    ("self.service_ms", "ms"),
    ("self.db_ms", "ms"),
    ("self.portfolio_ms", "ms"),
    ("self.anneal_ms", "ms"),
    ("self.sim_ms", "ms"),
    ("self.par_ms", "ms"),
    ("self.unattributed_ms", "ms"),
    ("trace.op_ms", "ms"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.untraced_p50_ms", "ms"),
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    let seed = get("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// How load was offered during the timed phase.
pub enum Loop {
    /// `callers` clients, each sending its next op when the last returned.
    Closed { callers: usize },
    /// Ops sent on a fixed schedule at `rate` per second.
    Open {
        rate: f64,
        /// p99 of (send time − due time), ms.
        late_p99_ms: f64,
        /// Ops still unanswered one interval after the last was due.
        backlog: usize,
    },
}

/// A named pass/fail check with what it saw.
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// What a workload hands back.
pub struct Run {
    /// Latency (ms) of every op of the untraced timed phase.
    pub latencies_ms: Vec<f64>,
    /// Wall seconds of the untraced timed phase.
    pub wall_s: f64,
    pub load: Loop,
    /// Ops attempted and failed over every timed phase.
    pub attempted: u64,
    pub failed: u64,
    /// `(seconds of the whole setup, seconds of its warm-up op)`, one per
    /// setup made.
    pub setups: Vec<(f64, f64)>,
    /// Mean quality gap in percent (0 = ideal).
    pub quality_gap_pct: f64,
    pub checks: Vec<Check>,
    /// Traced runs only: per-layer metrics and the traced ops' latencies.
    pub layers: BTreeMap<&'static str, f64>,
    pub traced_latencies_ms: Vec<f64>,
    pub spans: Option<trace::Trace>,
}

impl Run {
    pub fn new(load: Loop) -> Run {
        Run {
            latencies_ms: Vec::new(),
            wall_s: 0.0,
            load,
            attempted: 0,
            failed: 0,
            setups: Vec::new(),
            quality_gap_pct: 0.0,
            checks: Vec::new(),
            layers: BTreeMap::new(),
            traced_latencies_ms: Vec::new(),
            spans: None,
        }
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }
}

/// Splits `seconds` between the untraced phase and, in a traced run, the
/// traced phase that follows it.
pub fn phase_seconds(args: &Args) -> (f64, f64) {
    if args.trace {
        (args.seconds / 2.0, args.seconds / 2.0)
    } else {
        (args.seconds, 0.0)
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPUs this process may run on (`Cpus_allowed_list`), as `nproc` counts.
fn nproc() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find(|l| l.starts_with("Cpus_allowed_list:"))?
        .split(':')
        .nth(1)?
        .trim()
        .to_string();
    let mut n = 0;
    for part in list.split(',') {
        n += match part.split_once('-') {
            Some((a, b)) => b.parse::<usize>().ok()? - a.parse::<usize>().ok()? + 1,
            None => 1,
        };
    }
    Some(n)
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; "unknown" outside a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => read(r)
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read("packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

/// UTC date and time, ISO 8601.
fn utc_now() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs()) as i64;
    let (days, rem) = (secs.div_euclid(86_400), secs.rem_euclid(86_400));
    // Civil-from-days (Howard Hinnant's algorithm).
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem / 60 % 60,
        rem % 60
    )
}

fn meta(args: &Args) -> Json {
    let num = |x: usize| Json::Num(x as f64);
    Json::Obj(vec![
        ("workload".into(), Json::Str(args.workload.clone())),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("nproc".into(), nproc().map_or(Json::Null, num)),
        (
            "available_parallelism".into(),
            std::thread::available_parallelism().map_or(Json::Null, |n| num(n.get())),
        ),
        ("par_threads".into(), num(par::thread_count())),
        (
            "QMLDB_THREADS".into(),
            std::env::var("QMLDB_THREADS").map_or(Json::Null, Json::Str),
        ),
        ("commit".into(), Json::Str(commit())),
        (
            "profile".into(),
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("date".into(), Json::Str(utc_now())),
    ])
}

/// `par.fanout_us`: median wall time of a `par::map` over one no-op job
/// per worker thread — the dispatch cost every fan-out pays.
fn fanout_us() -> f64 {
    let jobs = vec![0u64; par::thread_count()];
    let mut samples = Vec::with_capacity(200);
    for _ in 0..200 {
        let start = Instant::now();
        black_box(par::map(&jobs, |i, x| black_box(i as u64 + x)));
        samples.push(start.elapsed().as_secs_f64() * 1e6);
    }
    stats::median(&samples)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qbench: {e}");
            eprintln!(
                "usage: qbench --workload <serve-hot|serve-churn|portfolio-solve|qml-train> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut run = match args.workload.as_str() {
        "serve-hot" => serve::run_hot(&args),
        "serve-churn" => serve::run_churn(&args),
        "portfolio-solve" => solve::run(&args),
        "qml-train" => train::run(&args),
        other => {
            eprintln!("qbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    finish(&args, &mut run)
}

/// Derives the metrics, runs the self-checks, and prints and writes the
/// result.
fn finish(args: &Args, run: &mut Run) -> ExitCode {
    let lat = run.latencies_ms.clone();
    let n = lat.len();
    let p50 = stats::median(&lat);
    let tail = stats::tail(&lat);
    let ops_per_s = n as f64 / run.wall_s;
    let setup_s = stats::median(&run.setups.iter().map(|s| s.0).collect::<Vec<_>>());
    let rss = peak_rss_mb();

    // Self-checks: one population for every latency statistic, enough
    // samples beyond the tail, throughput consistent with latency and
    // load, set-up that includes its warm-up op, a bounded open loop.
    match &tail {
        Some(t) => {
            let beyond = lat.iter().filter(|&&x| x > t.value).count();
            run.check(
                "tail_not_below_p50",
                t.value >= p50,
                format!("tail {} >= p50 {p50}", t.value),
            );
            run.check(
                "ten_beyond_tail",
                beyond >= stats::TAIL_BEYOND,
                format!("p{:.2} of n={n}: {beyond} samples beyond", t.percentile),
            );
        }
        None => run.check("ten_beyond_tail", false, format!("only {n} ops timed")),
    }
    let busy = ops_per_s * stats::mean(&lat) / 1000.0;
    match run.load {
        Loop::Closed { callers } => run.check(
            "throughput_matches_latency",
            ops_per_s.is_finite() && busy <= callers as f64 * 1.02 && busy > 0.0,
            format!(
                "{n} ops / {:.3} s; ops_per_s x mean latency = {busy:.3} <= {callers} callers",
                run.wall_s
            ),
        ),
        Loop::Open {
            rate,
            late_p99_ms,
            backlog,
        } => {
            run.check(
                "throughput_matches_offered_rate",
                (ops_per_s / rate - 1.0).abs() <= 0.1,
                format!("{ops_per_s:.3} ops/s against {rate} offered"),
            );
            run.check(
                "generator_on_time",
                late_p99_ms <= 20.0,
                format!("send lateness p99 {late_p99_ms:.3} ms (limit 20)"),
            );
            run.check(
                "backlog_bounded",
                backlog <= 4,
                format!("{backlog} ops outstanding after the schedule (limit 4)"),
            );
        }
    }
    let setups_ok =
        run.setups.len() == SETUPS && run.setups.iter().all(|&(s, w)| w > 0.0 && s >= w);
    run.check(
        "setup_includes_warmup_op",
        setups_ok,
        format!("(setup s, warm-up op s): {:?}", run.setups),
    );
    run.check(
        "peak_rss_read",
        rss.is_some(),
        "VmHWM from /proc/self/status",
    );

    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        run.layers.insert("par.fanout_us", fanout_us());
        run.layers.insert("par.threads", par::thread_count() as f64);
        let traced_p50 = stats::median(&run.traced_latencies_ms);
        run.layers.insert("trace.untraced_p50_ms", p50);
        run.layers
            .insert("trace.overhead_pct", (traced_p50 / p50 - 1.0) * 100.0);
        if let Some(t) = &run.spans {
            run.layers.insert("trace.spans", t.len() as f64);
        }
        let share = run.layers.get("trace.unattributed_share").copied();
        run.check(
            "attribution_within_tolerance",
            share.is_some_and(|s| s.abs() <= UNATTRIBUTED_TOLERANCE),
            format!("unattributed share {share:?} (tolerance {UNATTRIBUTED_TOLERANCE})"),
        );
        for (name, unit) in PER_LAYER {
            metrics.push((name, unit, run.layers.get(name).copied().unwrap_or(0.0)));
        }
    } else {
        metrics.push(("p50_ms", "ms", p50));
        metrics.push(("tail_ms", "ms", tail.as_ref().map_or(0.0, |t| t.value)));
        metrics.push(("ops_per_s", "1/s", ops_per_s));
        metrics.push(("setup_s", "s", setup_s));
        metrics.push(("peak_rss_mb", "MiB", rss.unwrap_or(0.0)));
        metrics.push(("quality_pct", "%", 100.0 + run.quality_gap_pct));
    }
    let finite = metrics.iter().all(|m| m.2.is_finite());
    run.check("metrics_finite", finite, "every metric is a finite number");

    let correct = run.checks.iter().all(|c| c.ok) && run.failed == 0;
    let metrics_json = Json::Obj(
        metrics
            .iter()
            .map(|&(name, unit, value)| {
                let value = if value.is_finite() { value } else { 0.0 };
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(value)),
                        ("unit".into(), Json::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    );
    let checks_json = Json::Arr(
        run.checks
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(c.name.clone())),
                    ("ok".into(), Json::Bool(c.ok)),
                    ("detail".into(), Json::Str(c.detail.clone())),
                ])
            })
            .collect(),
    );
    let meta = meta(args);
    for c in &run.checks {
        println!(
            "# check {} {}: {}",
            if c.ok { "ok  " } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    if let Some(t) = &tail {
        println!(
            "# tail_ms is p{:.2} over n={n} ops ({} beyond); p50 over the same {n} ops",
            t.percentile, t.beyond
        );
    }
    println!("# meta {}", meta.compact());

    // Built by hand: `attempted` and `failed` must print as integers.
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.attempted,
        run.failed,
        metrics_json.compact()
    );
    // The result file carries the metadata and checks the result line
    // has no room for; the traced run adds its spans beside it.
    let stem = format!(
        ".bench_out/{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let record = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(run.attempted as f64)),
        ("failed".into(), Json::Num(run.failed as f64)),
        ("metrics".into(), metrics_json),
        ("meta".into(), meta),
        ("checks".into(), checks_json),
    ]);
    let written = std::fs::create_dir_all(".bench_out")
        .and_then(|_| std::fs::write(format!("{stem}.json"), record.pretty()))
        .and_then(|_| match &run.spans {
            Some(t) => std::fs::write(format!("{stem}-spans.json"), t.to_json().compact()),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("qbench: could not write {stem}.json: {e}");
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
