//! The two wire-level workloads, both against `qmldb_serve::spawn` on
//! `127.0.0.1:0` (in-process: there is no server binary), driven over two
//! persistent TCP connections.
//!
//! * `serve-hot`: closed loop; every op is a `solve` line for one of 32
//!   hot models that set-up already solved, so every op is a cache hit
//!   and the time is all server I/O, wire parse/serialize and the hit
//!   path.
//! * `serve-churn`: open loop at a fixed offered rate, pipelined (send on
//!   schedule, match replies first-in first-out); 80% of requests repeat
//!   the hot set, 20% are fresh near-copies that miss and run the
//!   classical portfolio; the cache holds fewer entries than the run has
//!   distinct models, so it evicts every run.

use crate::models::{gap_pct, hot_model, perturb, replay_heuristics, Problem, SolveReport};
use crate::stats::{fanout_split, mean, median, quantile};
use crate::trace::Trace;
use crate::{phase_seconds, Args, Loop, Run, SETUPS};
use qmldb_db::Portfolio;
use qmldb_math::json::Json;
use qmldb_math::{par, Rng64};
use qmldb_serve::wire::{parse_line, reply_json, request_json};
use qmldb_serve::{spawn, Op, Reply, Request, ServerHandle, Service, ServiceConfig};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Models in the hot set.
const HOT: usize = 32;
/// Client connections.
const CONNS: usize = 2;
/// `serve-churn` offered load, requests per second over both connections.
/// At this rate a connection's next request comes before the server's
/// delayed ACK would, so today every reply waits for it, steadily; at
/// 16 req/s ACKs went out at once and the median sat on the boundary
/// between hits and misses.
const CHURN_RATE: f64 = 64.0;
/// Share of `serve-churn` requests that are fresh models.
const FRESH_SHARE: f64 = 0.2;
/// `serve-churn` cache capacity: the hot set plus 24, below the distinct
/// models of any run (every second of load brings ~13 fresh ones).
const CHURN_CAPACITY: usize = HOT + 24;
/// A reply whose round trip exceeds its in-process time by more than this
/// was stalled on the wire.
const STALL_MS: f64 = 30.0;
/// How long a client waits for any one reply before calling it lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// The hot set: requests and their wire lines.
struct HotSet {
    reqs: Vec<Request>,
    lines: Vec<String>,
}

fn hot_set(seed: u64) -> HotSet {
    let mut rng = Rng64::new(seed);
    let reqs: Vec<Request> = (0..HOT)
        .map(|k| Request {
            workload: hot_model(k, &mut rng),
            seed: rng.below(1 << 40),
            deadline_ms: None,
        })
        .collect();
    let lines = reqs.iter().map(|r| request_json(r).compact()).collect();
    HotSet { reqs, lines }
}

/// One client connection. Reads block for at most [`REPLY_TIMEOUT`];
/// each request goes out in a single write.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn connect(addr: std::net::SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        send_line(&mut self.stream, line)
    }

    /// The next reply line.
    fn recv(&mut self) -> std::io::Result<String> {
        loop {
            if let Some(at) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=at).collect();
                return Ok(String::from_utf8_lossy(&line[..at]).into_owned());
            }
            let mut chunk = [0u8; 8192];
            match self.stream.read(&mut chunk)? {
                0 => {
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed",
                    ))
                }
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        }
    }

    fn call(&mut self, line: &str) -> std::io::Result<String> {
        self.send(line)?;
        self.recv()
    }
}

/// Writes one request line in a single write.
fn send_line(stream: &mut TcpStream, line: &str) -> std::io::Result<()> {
    let mut bytes = Vec::with_capacity(line.len() + 1);
    bytes.extend_from_slice(line.as_bytes());
    bytes.push(b'\n');
    stream.write_all(&bytes)
}

/// The cache counters of the wire `stats` op.
#[derive(Clone, Copy, Default)]
struct Counters {
    hits: f64,
    misses: f64,
    evictions: f64,
}

fn counters(conn: &mut Conn) -> Result<Counters, String> {
    let line = conn.call(r#"{"op":"stats"}"#).map_err(|e| e.to_string())?;
    let j = Json::parse(&line)?;
    let get = |k: &str| {
        j.get(k)
            .and_then(Json::as_num)
            .ok_or(format!("stats: no {k}"))
    };
    Ok(Counters {
        hits: get("hits")?,
        misses: get("misses")?,
        evictions: get("evictions")?,
    })
}

/// A reply with its `cached` flag forced, re-serialized the way the
/// server serializes replies, so answers compare as exact strings.
fn with_cached(reply: &Json, cached: bool) -> String {
    let mut r = reply.clone();
    r.set("cached", Json::Bool(cached));
    r.compact()
}

/// A running server with its two client connections and the hot set's
/// answers from the set-up solve.
struct Stand {
    handle: ServerHandle,
    conns: Vec<Conn>,
    /// Per hot model: the exact reply line for a hit and for a miss.
    hit: Vec<String>,
    miss: Vec<String>,
    objectives: Vec<f64>,
}

impl Stand {
    fn close(self) {
        drop(self.conns);
        self.handle.shutdown();
    }
}

fn config(capacity: usize) -> ServiceConfig {
    ServiceConfig {
        cache_capacity: capacity,
        ..ServiceConfig::default()
    }
}

/// Set-up: spawn the server, connect, solve the hot set in one `batch`
/// line, then one warm-up `solve` (a hit) whose seconds are returned too.
fn stand_up(hot: &HotSet, capacity: usize) -> Result<(Stand, f64), String> {
    let handle = spawn("127.0.0.1:0", Service::new(config(capacity))).map_err(|e| e.to_string())?;
    let addr = handle.local_addr();
    let mut conns = (0..CONNS)
        .map(|_| Conn::connect(addr))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let batch = Json::Obj(vec![
        ("op".into(), Json::Str("batch".into())),
        (
            "requests".into(),
            Json::Arr(hot.reqs.iter().map(request_json).collect()),
        ),
    ]);
    let line = conns[0].call(&batch.compact()).map_err(|e| e.to_string())?;
    let reply = Json::parse(&line)?;
    let replies = reply
        .get("replies")
        .and_then(Json::as_arr)
        .filter(|r| r.len() == HOT)
        .ok_or("batch reply without one reply per request")?;
    let (mut hit, mut miss, mut objectives) = (Vec::new(), Vec::new(), Vec::new());
    for r in replies {
        let fresh_ok = r.get("status").and_then(Json::as_str) == Some("ok")
            && r.get("cached").and_then(Json::as_bool) == Some(false)
            && r.get("degraded").and_then(Json::as_bool) == Some(false);
        if !fresh_ok {
            return Err(format!("hot-set solve failed: {}", r.compact()));
        }
        hit.push(with_cached(r, true));
        miss.push(with_cached(r, false));
        objectives.push(
            r.get("objective")
                .and_then(Json::as_num)
                .ok_or("no objective")?,
        );
    }
    let start = Instant::now();
    let warm = conns[1].call(&hot.lines[0]).map_err(|e| e.to_string())?;
    let warm_s = start.elapsed().as_secs_f64();
    if warm != hit[0] {
        return Err(format!("warm-up op was not the cached answer: {warm}"));
    }
    Ok((
        Stand {
            handle,
            conns,
            hit,
            miss,
            objectives,
        },
        warm_s,
    ))
}

/// Sets up [`SETUPS`] times, keeping the last stand; each set-up first
/// generates the inputs with `prepare` (hot set plus workload data), and
/// every stand must give the first one's answers.
fn stand_up_repeatedly<T>(
    capacity: usize,
    run: &mut Run,
    mut prepare: impl FnMut() -> (HotSet, T),
) -> Option<(Stand, HotSet, T)> {
    let mut kept: Option<(Stand, HotSet, T)> = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let (hot, data) = prepare();
        match stand_up(&hot, capacity) {
            Ok((stand, warm_s)) => {
                run.setups.push((start.elapsed().as_secs_f64(), warm_s));
                if let Some((old, ..)) = kept.take() {
                    let same = old.hit == stand.hit;
                    old.close();
                    run.check(
                        "setup_answers_repeat",
                        same,
                        "every set-up solves the hot set alike",
                    );
                }
                kept = Some((stand, hot, data));
            }
            Err(e) => {
                run.check("setup", false, e);
                return None;
            }
        }
    }
    kept
}

/// What a request is.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Hot(usize),
    Fresh(usize),
}

/// One timed request.
#[derive(Clone)]
struct OpRec {
    op: u64,
    conn: usize,
    kind: Kind,
    due: Instant,
    sent: Instant,
    done: Option<Instant>,
    line: String,
}

impl OpRec {
    fn latency_ms(&self) -> Option<f64> {
        self.done.map(|d| (d - self.due).as_secs_f64() * 1e3)
    }
}

/// Checks each reply against the answers it may equal; returns the
/// client-side (hits, misses) and records the fresh answers' objectives.
fn check_replies(
    recs: &[OpRec],
    stand: &Stand,
    fresh_objective: &mut BTreeMap<usize, f64>,
    run: &mut Run,
    phase: &str,
) -> (f64, f64) {
    let (mut hits, mut misses, mut bad) = (0.0, 0.0, 0u64);
    let mut first_bad = String::new();
    for r in recs {
        run.attempted += 1;
        let ok = r.done.is_some()
            && match r.kind {
                Kind::Hot(k) if r.line == stand.hit[k] => {
                    hits += 1.0;
                    true
                }
                Kind::Hot(k) if r.line == stand.miss[k] => {
                    misses += 1.0;
                    true
                }
                Kind::Hot(_) => false,
                Kind::Fresh(f) => match Json::parse(&r.line) {
                    Ok(j)
                        if j.get("status").and_then(Json::as_str) == Some("ok")
                            && j.get("degraded").and_then(Json::as_bool) == Some(false) =>
                    {
                        if j.get("cached").and_then(Json::as_bool) == Some(true) {
                            hits += 1.0;
                        } else {
                            misses += 1.0;
                        }
                        let obj = j.get("objective").and_then(Json::as_num);
                        obj.inspect(|&o| {
                            fresh_objective.insert(f, o);
                        })
                        .is_some()
                    }
                    _ => false,
                },
            };
        if !ok {
            bad += 1;
            if first_bad.is_empty() {
                first_bad = format!("op {}: {:?}", r.op, r.line);
            }
        }
    }
    run.failed += bad;
    run.check(
        &format!("{phase}_replies_correct"),
        bad == 0,
        format!(
            "{bad} of {} replies wrong or missing {first_bad}",
            recs.len()
        ),
    );
    (hits, misses)
}

/// Compares client-side hit/miss counts with the server's `stats` delta.
fn cross_check(run: &mut Run, phase: &str, client: (f64, f64), before: Counters, after: Counters) {
    let server = (after.hits - before.hits, after.misses - before.misses);
    run.check(
        &format!("{phase}_stats_match_client"),
        client == server,
        format!("client hits/misses {client:?}, stats op {server:?}"),
    );
}

/// Runs one closed-loop `serve-hot` phase: each connection sends hot
/// models in its own seeded order until `seconds` pass.
fn hot_phase(
    stand: &mut Stand,
    hot: &HotSet,
    seed: u64,
    seconds: f64,
    op_base: u64,
    trace: Option<&Trace>,
) -> (Vec<OpRec>, f64) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut per_conn: Vec<Vec<OpRec>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = stand
            .conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                s.spawn(move || {
                    let mut rng = Rng64::for_stream(seed, c as u64 + 1);
                    let mut recs = Vec::new();
                    let mut i = 0u64;
                    while Instant::now() < deadline {
                        let k = rng.index(HOT);
                        let op = op_base + i * CONNS as u64 + c as u64;
                        let sent = Instant::now();
                        let reply = conn.call(&hot.lines[k]);
                        let done = Instant::now();
                        let failed = reply.is_err();
                        recs.push(OpRec {
                            op,
                            conn: c,
                            kind: Kind::Hot(k),
                            due: sent,
                            sent,
                            done: reply.is_ok().then_some(done),
                            line: reply.unwrap_or_default(),
                        });
                        if let Some(t) = trace {
                            let root = t.record("op", op, None, sent, Instant::now());
                            t.record("server.rtt", op, Some(root), sent, done);
                        }
                        if failed {
                            break;
                        }
                        i += 1;
                    }
                    recs
                })
            })
            .collect();
        per_conn = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
    });
    let mut recs: Vec<OpRec> = per_conn.into_iter().flatten().collect();
    recs.sort_by_key(|r| r.sent);
    let end = recs.iter().filter_map(|r| r.done).max().unwrap_or(start);
    (recs, (end - start).as_secs_f64())
}

pub fn run_hot(args: &Args) -> Run {
    let (plain_s, traced_s) = phase_seconds(args);
    let mut run = Run::new(Loop::Closed { callers: CONNS });
    let capacity = ServiceConfig::default().cache_capacity;
    let Some((mut stand, hot, ())) =
        stand_up_repeatedly(capacity, &mut run, || (hot_set(args.seed), ()))
    else {
        return run;
    };
    let mut phases = Vec::new();
    for (name, seconds, trace) in [
        ("untraced", plain_s, None),
        ("traced", traced_s, Some(Trace::new())),
    ] {
        if seconds <= 0.0 {
            continue;
        }
        let before = counters(&mut stand.conns[0]).unwrap_or_default();
        let (recs, wall) = hot_phase(
            &mut stand,
            &hot,
            args.seed,
            seconds,
            (phases.len() as u64) << 40,
            trace.as_ref(),
        );
        let after = counters(&mut stand.conns[0]).unwrap_or_default();
        let client = check_replies(&recs, &stand, &mut BTreeMap::new(), &mut run, name);
        cross_check(&mut run, name, client, before, after);
        let lat: Vec<f64> = recs.iter().filter_map(OpRec::latency_ms).collect();
        if trace.is_none() {
            run.latencies_ms = lat;
            run.wall_s = wall;
            run.layers.insert(
                "cache.hit_ratio",
                ratio(after.hits - before.hits, after.misses - before.misses),
            );
            run.layers
                .insert("cache.evictions", after.evictions - before.evictions);
        } else {
            run.traced_latencies_ms = lat;
        }
        phases.push((recs, trace));
    }
    let objectives = stand.objectives.clone();
    stand.close();
    if let Some((recs, Some(t))) = phases.pop() {
        let mut twin = Service::new(config(ServiceConfig::default().cache_capacity));
        twin.submit_batch(&hot.reqs);
        replay_wire(&t, &recs, &hot, &[], &mut twin, &mut run);
        run.spans = Some(t);
    }
    run.quality_gap_pct = quality(&hot, &objectives, &[], &BTreeMap::new());
    run
}

fn ratio(a: f64, b: f64) -> f64 {
    if a + b > 0.0 {
        a / (a + b)
    } else {
        0.0
    }
}

/// Mean quality gap over the hot set and every fresh model answered.
fn quality(
    hot: &HotSet,
    hot_objectives: &[f64],
    fresh: &[Request],
    fresh_objective: &BTreeMap<usize, f64>,
) -> f64 {
    let mut gaps = Vec::new();
    for (req, &obj) in hot.reqs.iter().zip(hot_objectives) {
        gaps.push(gap_pct(obj, Problem::from_spec(&req.workload).optimum()));
    }
    for (&f, &obj) in fresh_objective {
        gaps.push(gap_pct(
            obj,
            Problem::from_spec(&fresh[f].workload).optimum(),
        ));
    }
    mean(&gaps)
}

/// The `serve-churn` request stream: `(kind, line)` per request, in due
/// order; fresh models are appended to `fresh`.
fn churn_stream(
    hot: &HotSet,
    n: usize,
    rng: &mut Rng64,
    fresh: &mut Vec<Request>,
) -> Vec<(Kind, String)> {
    (0..n)
        .map(|_| {
            let k = rng.index(HOT);
            if rng.chance(FRESH_SHARE) {
                let req = Request {
                    workload: perturb(&hot.reqs[k].workload, rng),
                    ..hot.reqs[k].clone()
                };
                let line = request_json(&req).compact();
                fresh.push(req);
                (Kind::Fresh(fresh.len() - 1), line)
            } else {
                (Kind::Hot(k), hot.lines[k].clone())
            }
        })
        .collect()
}

/// Runs one open-loop `serve-churn` phase: request `j` is due at
/// `j / CHURN_RATE` seconds and goes out on connection `j % CONNS`. The
/// calling thread only paces (sleeps until each due time and writes); one
/// thread per connection blocks reading replies, which arrive in send
/// order. Socket read timeouts tick in scheduler jiffies, so a single
/// thread that both paced and read would send milliseconds late.
fn churn_phase(
    stand: &mut Stand,
    stream: &[(Kind, String)],
    op_base: u64,
    trace: Option<&Trace>,
) -> (Vec<OpRec>, f64) {
    let start = Instant::now() + Duration::from_millis(20);
    let due = |j: usize| start + Duration::from_secs_f64(j as f64 / CHURN_RATE);
    let mut writers: Vec<Option<TcpStream>> = stand
        .conns
        .iter()
        .map(|c| c.stream.try_clone().ok())
        .collect();
    let mut sent: Vec<Option<Instant>> = vec![None; stream.len()];
    let mut replies: Vec<Vec<(Instant, String)>> = Vec::new();
    std::thread::scope(|s| {
        let readers: Vec<_> = stand
            .conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let expected = (c..stream.len()).step_by(CONNS).count();
                s.spawn(move || {
                    let mut got = Vec::with_capacity(expected);
                    while got.len() < expected {
                        match conn.recv() {
                            Ok(line) => got.push((Instant::now(), line)),
                            Err(_) => break,
                        }
                    }
                    got
                })
            })
            .collect();
        for (j, (_, line)) in stream.iter().enumerate() {
            std::thread::sleep(due(j).saturating_duration_since(Instant::now()));
            let Some(w) = writers[j % CONNS].as_mut() else {
                continue;
            };
            sent[j] = Some(Instant::now());
            if send_line(w, line).is_err() {
                writers[j % CONNS] = None;
            }
        }
        replies = readers
            .into_iter()
            .map(|h| h.join().expect("reader thread"))
            .collect();
    });
    // Replies on a connection come back in send order.
    let mut next = [0usize; CONNS];
    let recs: Vec<OpRec> = stream
        .iter()
        .enumerate()
        .map(|(j, (kind, _))| {
            let c = j % CONNS;
            let reply = sent[j].and_then(|_| replies[c].get(next[c]).cloned());
            if reply.is_some() {
                next[c] += 1;
            }
            let (done, line) = reply.map_or((None, String::new()), |(d, l)| (Some(d), l));
            OpRec {
                op: op_base + j as u64,
                conn: c,
                kind: *kind,
                due: due(j),
                sent: sent[j].unwrap_or(due(j)),
                done,
                line,
            }
        })
        .collect();
    if let Some(t) = trace {
        for r in &recs {
            if let Some(done) = r.done {
                let root = t.record("op", r.op, None, r.due, done);
                t.record("server.rtt", r.op, Some(root), r.sent, done);
            }
        }
    }
    let end = recs.iter().filter_map(|r| r.done).max().unwrap_or(start);
    (recs, (end - start).as_secs_f64())
}

pub fn run_churn(args: &Args) -> Run {
    let (plain_s, traced_s) = phase_seconds(args);
    let mut run = Run::new(Loop::Open {
        rate: CHURN_RATE,
        late_p99_ms: 0.0,
        backlog: 0,
    });
    // Data generation is set-up: the request streams are drawn anew
    // before every server start and timed with it.
    let Some((mut stand, hot, (fresh, streams))) =
        stand_up_repeatedly(CHURN_CAPACITY, &mut run, || {
            let hot = hot_set(args.seed);
            let mut rng = Rng64::for_stream(args.seed, 0xc0de);
            let mut fresh = Vec::new();
            let streams: Vec<Vec<(Kind, String)>> = [plain_s, traced_s]
                .iter()
                .map(|&s| {
                    churn_stream(
                        &hot,
                        (s * CHURN_RATE).round() as usize,
                        &mut rng,
                        &mut fresh,
                    )
                })
                .collect();
            (hot, (fresh, streams))
        })
    else {
        return run;
    };

    let mut fresh_objective = BTreeMap::new();
    let mut phases = Vec::new();
    for (p, (name, trace)) in [("untraced", None), ("traced", Some(Trace::new()))]
        .into_iter()
        .enumerate()
    {
        if streams[p].is_empty() {
            continue;
        }
        let before = counters(&mut stand.conns[0]).unwrap_or_default();
        let (recs, wall) = churn_phase(&mut stand, &streams[p], (p as u64) << 40, trace.as_ref());
        let after = counters(&mut stand.conns[0]).unwrap_or_default();
        let mut objectives = BTreeMap::new();
        let client = check_replies(&recs, &stand, &mut objectives, &mut run, name);
        cross_check(&mut run, name, client, before, after);
        let lat: Vec<f64> = recs.iter().filter_map(OpRec::latency_ms).collect();
        if trace.is_none() {
            fresh_objective = objectives;
            run.latencies_ms = lat;
            run.wall_s = wall;
            let late: Vec<f64> = recs
                .iter()
                .map(|r| (r.sent - r.due).as_secs_f64() * 1e3)
                .collect();
            let last_due = recs.iter().map(|r| r.due).max().expect("non-empty stream");
            let settle = last_due + Duration::from_secs_f64(1.0 / CHURN_RATE);
            let backlog = recs
                .iter()
                .filter(|r| r.done.is_none_or(|d| d > settle))
                .count();
            let late_p99 = quantile(&late, 0.99);
            run.load = Loop::Open {
                rate: CHURN_RATE,
                late_p99_ms: late_p99,
                backlog,
            };
            let l = &mut run.layers;
            l.insert("gen.late_ms", late_p99);
            l.insert(
                "cache.hit_ratio",
                ratio(after.hits - before.hits, after.misses - before.misses),
            );
            l.insert("cache.evictions", after.evictions - before.evictions);
            l.insert("service.hol_hit_ms", hol_hit_ms(&recs, &stand));
        } else {
            run.traced_latencies_ms = lat;
        }
        phases.push((recs, trace));
    }
    let objectives = stand.objectives.clone();
    stand.close();
    if let Some((recs, Some(t))) = phases.pop() {
        // The twin replays the untraced phase untimed first, so its cache
        // holds what the server's held when the traced phase began.
        let mut twin = Service::new(config(CHURN_CAPACITY));
        twin.submit_batch(&hot.reqs);
        for (_, line) in &streams[0] {
            if let Ok(Op::Solve(req)) = parse_line(line) {
                twin.submit(&req);
            }
        }
        replay_wire(&t, &recs, &hot, &fresh, &mut twin, &mut run);
        run.spans = Some(t);
    }
    run.quality_gap_pct = quality(&hot, &objectives, &fresh, &fresh_objective);
    run
}

/// Median wire latency of hits sent while a miss was in flight on the
/// other connection (head-of-line blocking behind the service lock).
fn hol_hit_ms(recs: &[OpRec], stand: &Stand) -> f64 {
    let is_hit = |r: &OpRec| match r.kind {
        Kind::Hot(k) => r.line == stand.hit[k],
        Kind::Fresh(_) => false,
    };
    let misses: Vec<&OpRec> = recs
        .iter()
        .filter(|r| r.done.is_some() && !is_hit(r))
        .collect();
    let blocked: Vec<f64> = recs
        .iter()
        .filter(|h| is_hit(h))
        .filter(|h| {
            misses
                .iter()
                .any(|m| m.conn != h.conn && m.sent <= h.sent && m.done.is_some_and(|d| h.sent < d))
        })
        .filter_map(OpRec::latency_ms)
        .collect();
    median(&blocked)
}

/// Replays the traced phase's requests, in send order, through an
/// in-process twin service: `wire::parse_line`, `Service::submit`,
/// `wire::reply_json` + `Json::compact`, the `qmldb_db` build + encode,
/// and for misses the portfolio solve and each `anneal` member. Then
/// attributes each op's time along its blocking path: the wire round
/// trip minus the in-process time is `server`; the twin's parse and
/// serialize are `wire`; build + encode is `db`; a miss's solve splits
/// into `anneal`, `portfolio` and `par`; the rest of the submit
/// (signature, cache probe and insert) is `service`; client bookkeeping
/// outside the round trip is unattributed.
fn replay_wire(
    t: &Trace,
    recs: &[OpRec],
    hot: &HotSet,
    fresh: &[Request],
    twin: &mut Service,
    run: &mut Run,
) {
    let spans = t.spans();
    let root_of: BTreeMap<u64, (usize, f64, f64)> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "server.rtt")
        .map(|(_, s)| {
            (
                s.op,
                (
                    s.parent.expect("rtt under op"),
                    s.secs(),
                    spans[s.parent.unwrap()].secs(),
                ),
            )
        })
        .collect();
    let threads = par::thread_count();
    let classical = Portfolio::classical();
    let mut per_op: Vec<[f64; 8]> = Vec::new(); // op, server, wire, service, db, portfolio, anneal, par
    let (mut overhead, mut stalled) = (Vec::new(), 0usize);
    let (mut hit_us, mut miss_ms, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    let mut solves: Vec<SolveReport> = Vec::new();
    let mut sampler: BTreeMap<&'static str, (f64, f64, u64)> = BTreeMap::new(); // calls, secs, proposals
    for r in recs {
        let Some(&(root, rtt, op_s)) = root_of.get(&r.op) else {
            continue;
        };
        let line = match r.kind {
            Kind::Hot(k) => &hot.lines[k],
            Kind::Fresh(f) => &request_json(&fresh[f]).compact(),
        };
        let (parsed, parse_s) = t.time("wire.parse", r.op, Some(root), || parse_line(line));
        let Ok(Op::Solve(req)) = parsed else {
            continue;
        };
        let (reply, submit_s) = t.time("service.submit", r.op, Some(root), || twin.submit(&req));
        let (text, ser_s) = t.time("wire.serialize", r.op, Some(root), || {
            reply_json(&reply).compact()
        });
        bytes.push(text.len() as f64 + 1.0);
        let (problem, db_s) = t.time("db.encode", r.op, Some(root), || {
            let p = Problem::from_spec(&req.workload);
            let e = p.encode();
            (p, e)
        });
        let Reply::Done(outcome) = reply else {
            continue;
        };
        let (mut solve_s, mut portfolio, mut anneal, mut par_s) = (0.0, 0.0, 0.0, 0.0);
        if outcome.cached {
            hit_us.push(submit_s * 1e6);
        } else {
            miss_ms.push(submit_s * 1e3);
            let (p, encoded) = &problem;
            let mut rng = Rng64::for_stream(req.seed, outcome.signature);
            let (report, w) = t.time("portfolio.solve", r.op, Some(root), || {
                p.solve(&classical, Some(encoded), &mut rng)
            });
            solve_s = w;
            let times = replay_heuristics(&encoded.0, &mut Rng64::new(req.seed));
            let work: f64 = report.members.iter().map(|m| m.wall_s).sum();
            let sampled: f64 = report
                .members
                .iter()
                .map(|m| {
                    let a = times
                        .iter()
                        .find(|s| s.solver == m.solver)
                        .map_or(0.0, |s| s.secs);
                    a.min(m.wall_s)
                })
                .sum();
            for s in &times {
                let e = sampler.entry(s.solver).or_default();
                e.0 += 1.0;
                e.1 += s.secs;
                e.2 += s.proposals;
            }
            let (child, idle) = fanout_split(w, work, threads);
            let a_share = if work > 0.0 { sampled / work } else { 0.0 };
            anneal = child * a_share;
            portfolio = child - anneal;
            par_s = idle;
            solves.push(report);
        }
        let inproc = parse_s + submit_s + ser_s;
        overhead.push((rtt - inproc) * 1e6);
        if (rtt - inproc) * 1e3 > STALL_MS {
            stalled += 1;
        }
        per_op.push([
            op_s,
            rtt - inproc,
            parse_s + ser_s,
            submit_s - db_s - solve_s,
            db_s,
            portfolio,
            anneal,
            par_s,
        ]);
    }
    let col = |i: usize| mean(&per_op.iter().map(|e| e[i] * 1e3).collect::<Vec<_>>());
    let op_ms = col(0);
    let attributed: f64 = (1..8).map(col).sum();
    let l = &mut run.layers;
    l.insert("trace.op_ms", op_ms);
    for (i, name) in [
        "self.server_ms",
        "self.wire_ms",
        "self.service_ms",
        "self.db_ms",
        "self.portfolio_ms",
        "self.anneal_ms",
        "self.par_ms",
    ]
    .into_iter()
    .enumerate()
    {
        l.insert(name, col(i + 1));
    }
    l.insert("self.unattributed_ms", op_ms - attributed);
    l.insert("trace.unattributed_share", (op_ms - attributed) / op_ms);
    l.insert("server.overhead_us", median(&overhead));
    l.insert(
        "server.stalled_ratio",
        stalled as f64 / per_op.len().max(1) as f64,
    );
    l.insert("wire.parse_us", median(&t.secs_of("wire.parse")) * 1e6);
    l.insert(
        "wire.serialize_us",
        median(&t.secs_of("wire.serialize")) * 1e6,
    );
    l.insert("wire.reply_bytes", median(&bytes));
    l.insert("service.hit_us", median(&hit_us));
    l.insert("service.miss_ms", median(&miss_ms));
    l.insert("db.encode_us", median(&t.secs_of("db.encode")) * 1e6);
    if !solves.is_empty() {
        crate::solve::member_metrics(&solves, &t.secs_of("portfolio.solve"), l);
        crate::solve::sampler_metrics(&sampler, l);
    }
}
