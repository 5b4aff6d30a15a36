//! Load generator for the `qmldb-serve` optimizer service.
//!
//! Drives a seeded medium request mix (all four workloads, ~12–40
//! variables each) through the in-process [`Service`] API and measures
//! per-request latency (p50/p99) and throughput at 1 and 4 worker
//! threads, cold cache vs warm cache, plus a saturating-load admission
//! case, a configurable repeat-rate mix, and a deadline mix (tight /
//! mid / loose / none). Emits the `serve_load`, `serve_admission`,
//! `serve_mix`, and `serve_deadline` sections of `BENCH_serve.json`.
//!
//! Doubles as an end-to-end determinism check: every outcome must be
//! bit-identical across thread counts and across the cold (fresh solve)
//! and warm (cache hit) paths, and the warm p50 must sit at least 20×
//! below the cold p50 single-threaded — the service's reason to exist.

use qmldb_anneal::{SaParams, TabuParams};
use qmldb_bench::json::{host_record, merge_section, Json};
use qmldb_bench::timing::group;
use qmldb_db::{Portfolio, Solver};
use qmldb_math::{par, Rng64};
use qmldb_serve::{Reply, Request, ServeOutcome, Service, ServiceConfig, WorkloadSpec};
use std::path::Path;
use std::time::Instant;

/// Distinct models in the medium mix.
const MIX_SIZE: usize = 24;
/// Warm passes over the mix per thread count.
const WARM_PASSES: usize = 3;
/// Fraction of repeated (cache-hittable) requests in the mix scenario.
const REPEAT_RATE: f64 = 0.75;
/// Stream length of the repeat-rate scenario.
const MIX_STREAM: usize = 160;

fn quick_portfolio() -> Portfolio {
    Portfolio::new(vec![
        Solver::Sa(SaParams {
            sweeps: 600,
            restarts: 2,
            ..SaParams::default()
        }),
        Solver::Tabu(TabuParams {
            iters: 600,
            ..TabuParams::default()
        }),
    ])
}

fn config() -> ServiceConfig {
    ServiceConfig {
        portfolio: quick_portfolio(),
        cache_capacity: 256,
        max_pending: 64,
    }
}

/// The seeded medium mix: `MIX_SIZE` distinct requests cycling through
/// the four workload families with varied sizes.
fn request_mix(seed: u64) -> Vec<Request> {
    let mut rng = Rng64::new(seed);
    (0..MIX_SIZE)
        .map(|k| {
            let workload = match k % 4 {
                0 => {
                    let n = 4 + rng.index(3); // 16–36 vars
                    let cardinalities: Vec<f64> = (0..n)
                        .map(|_| (10.0f64).powf(rng.uniform_range(1.0, 4.0)).round())
                        .collect();
                    let edges: Vec<(usize, usize, f64)> = (0..n - 1)
                        .map(|i| (i, i + 1, rng.uniform_range(0.001, 0.2)))
                        .collect();
                    WorkloadSpec::JoinOrder {
                        cardinalities,
                        edges,
                    }
                }
                1 => {
                    let queries = 4 + rng.index(3); // 12–18 vars
                    let plan_costs: Vec<Vec<f64>> = (0..queries)
                        .map(|_| (0..3).map(|_| rng.uniform_range(5.0, 50.0)).collect())
                        .collect();
                    let savings = (0..queries - 1)
                        .map(|q| {
                            let p1 = rng.index(3);
                            let p2 = rng.index(3);
                            let cap = plan_costs[q][p1].min(plan_costs[q + 1][p2]);
                            ((q, p1), (q + 1, p2), rng.uniform_range(0.5, cap.max(1.0)))
                        })
                        .collect();
                    WorkloadSpec::Mqo {
                        plan_costs,
                        savings,
                    }
                }
                2 => {
                    let m = 8 + rng.index(5); // 8–12 candidates + slack bits
                    let sizes: Vec<f64> = (0..m).map(|_| rng.uniform_range(10.0, 50.0)).collect();
                    let benefits: Vec<f64> =
                        (0..m).map(|_| rng.uniform_range(20.0, 100.0)).collect();
                    let interactions = vec![
                        (0, 1, rng.uniform_range(1.0, 15.0)),
                        (2, 3, rng.uniform_range(1.0, 15.0)),
                    ];
                    let budget = sizes.iter().sum::<f64>() * 0.4;
                    WorkloadSpec::IndexSelection {
                        sizes,
                        benefits,
                        interactions,
                        budget,
                    }
                }
                _ => {
                    let n_tx = 4 + rng.index(5); // 12–24 vars
                    let mut conflicts = Vec::new();
                    for i in 0..n_tx {
                        for j in (i + 1)..n_tx {
                            if rng.chance(0.4) {
                                conflicts.push((i, j, rng.uniform_range(0.5, 3.0)));
                            }
                        }
                    }
                    WorkloadSpec::TxSchedule {
                        n_tx,
                        n_slots: 3,
                        conflicts,
                        balance_weight: 0.25,
                    }
                }
            };
            Request {
                workload,
                seed: 1000 + k as u64,
                deadline_ms: None,
            }
        })
        .collect()
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let at = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[at]
}

/// Submits each request individually, returning (latencies, outcomes).
fn drive(service: &mut Service, requests: &[Request]) -> (Vec<f64>, Vec<ServeOutcome>) {
    let mut latencies = Vec::with_capacity(requests.len());
    let mut outcomes = Vec::with_capacity(requests.len());
    for req in requests {
        let t0 = Instant::now();
        let reply = service.submit(req);
        latencies.push(t0.elapsed().as_secs_f64());
        match reply {
            Reply::Done(o) => outcomes.push(o),
            other => panic!("load mix request failed: {other:?}"),
        }
    }
    (latencies, outcomes)
}

fn latency_record(name: &str, latencies: &mut [f64], hits: u64, misses: u64) -> (Json, f64) {
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p50 = percentile(latencies, 0.50);
    let p99 = percentile(latencies, 0.99);
    let total: f64 = latencies.iter().sum();
    let rps = latencies.len() as f64 / total;
    println!(
        "{name:<24} p50 {:>9.1} µs   p99 {:>9.1} µs   {rps:>10.0} req/s   hits {hits} misses {misses}",
        p50 * 1e6,
        p99 * 1e6,
    );
    let record = Json::Obj(vec![
        ("name".to_string(), Json::Str(name.to_string())),
        ("requests".to_string(), Json::Num(latencies.len() as f64)),
        ("p50_s".to_string(), Json::Num(p50)),
        ("p99_s".to_string(), Json::Num(p99)),
        ("throughput_rps".to_string(), Json::Num(rps)),
        ("hits".to_string(), Json::Num(hits as f64)),
        ("misses".to_string(), Json::Num(misses as f64)),
    ]);
    (record, p50)
}

fn assert_identical(a: &[ServeOutcome], b: &[ServeOutcome], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.solution, y.solution, "{what}: solution");
        assert_eq!(
            x.objective.to_bits(),
            y.objective.to_bits(),
            "{what}: objective bits"
        );
        assert_eq!(x.solver, y.solver, "{what}: solver");
        assert_eq!(x.signature, y.signature, "{what}: signature");
    }
}

fn main() {
    let mix = request_mix(501);
    let mut load_records = Vec::new();
    let mut outcomes_by_threads: Vec<(Vec<ServeOutcome>, Vec<ServeOutcome>)> = Vec::new();
    let mut cold_p50_t1 = 0.0;
    let mut warm_p50_t1 = 0.0;

    for &threads in &[1usize, 4] {
        group(&format!("serve_load_medium_mix_{threads}threads"));
        par::set_threads(threads);
        let mut service = Service::new(config());

        // Cold pass: every request is a distinct model, all misses.
        let (mut cold_lat, cold_outcomes) = drive(&mut service, &mix);
        let cold_stats = service.stats();
        assert!(
            cold_outcomes.iter().all(|o| !o.cached),
            "cold pass must miss"
        );
        let (rec, cold_p50) = latency_record(
            &format!("serve/cold_t{threads}"),
            &mut cold_lat,
            cold_stats.hits,
            cold_stats.misses,
        );
        load_records.push(rec);

        // Warm passes: identical traffic, answered from the cache.
        let mut warm_lat = Vec::new();
        let mut warm_outcomes = Vec::new();
        for _ in 0..WARM_PASSES {
            let (lat, outs) = drive(&mut service, &mix);
            warm_lat.extend(lat);
            warm_outcomes = outs;
        }
        let warm_stats = service.stats();
        assert!(warm_outcomes.iter().all(|o| o.cached), "warm pass must hit");
        let (rec, warm_p50) = latency_record(
            &format!("serve/warm_t{threads}"),
            &mut warm_lat,
            warm_stats.hits - cold_stats.hits,
            warm_stats.misses - cold_stats.misses,
        );
        load_records.push(rec);

        // Warm answers are the cold answers, bit for bit.
        assert_identical(&cold_outcomes, &warm_outcomes, "cold vs warm");
        if threads == 1 {
            cold_p50_t1 = cold_p50;
            warm_p50_t1 = warm_p50;
        }
        outcomes_by_threads.push((cold_outcomes, warm_outcomes));
    }
    par::reset_threads();

    // Thread-count invariance: the 1- and 4-thread services answered
    // every request identically on both paths.
    let (t1, t4) = (&outcomes_by_threads[0], &outcomes_by_threads[1]);
    assert_identical(&t1.0, &t4.0, "cold t1 vs t4");
    assert_identical(&t1.1, &t4.1, "warm t1 vs t4");

    // The acceptance bar: warm-cache p50 at least 20× below cold p50,
    // single-threaded.
    let speedup = cold_p50_t1 / warm_p50_t1;
    println!("warm-cache p50 speedup over cold solve (1 thread): {speedup:.1}x");
    assert!(
        speedup >= 20.0,
        "warm p50 must be ≥ 20× lower than cold p50, got {speedup:.1}x"
    );
    load_records.push(Json::Obj(vec![
        ("name".to_string(), Json::Str("serve/warm_speedup".into())),
        ("cold_p50_s".to_string(), Json::Num(cold_p50_t1)),
        ("warm_p50_s".to_string(), Json::Num(warm_p50_t1)),
        ("speedup_p50".to_string(), Json::Num(speedup)),
        (
            "bit_identical_t1_t4".to_string(),
            Json::Bool(true), // asserted above
        ),
    ]));

    // Saturating load: a batch of distinct models against a small
    // admission depth must shed the overflow as retryable rejections,
    // not queue it.
    group("serve_admission_saturation");
    par::set_threads(1);
    let mut throttled = Service::new(ServiceConfig {
        portfolio: quick_portfolio(),
        cache_capacity: 256,
        max_pending: 4,
    });
    let t0 = Instant::now();
    let replies = throttled.submit_batch(&mix);
    let elapsed = t0.elapsed().as_secs_f64();
    let done = replies
        .iter()
        .filter(|r| matches!(r, Reply::Done(_)))
        .count();
    let rejected = replies.iter().filter(|r| r.retryable()).count();
    assert_eq!(done, 4, "admission depth bounds the work");
    assert!(rejected > 0, "saturating load must shed rejections");
    assert_eq!(done + rejected, mix.len());
    println!(
        "saturation: {done} admitted, {rejected} rejected (retryable) in {:.1} ms",
        elapsed * 1e3
    );
    merge_section(
        Path::new(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_serve.json"
        )),
        "serve_admission",
        vec![Json::Obj(vec![
            ("name".to_string(), Json::Str("serve/saturation".into())),
            ("offered".to_string(), Json::Num(mix.len() as f64)),
            ("max_pending".to_string(), Json::Num(4.0)),
            ("admitted".to_string(), Json::Num(done as f64)),
            ("rejected_retryable".to_string(), Json::Num(rejected as f64)),
            ("elapsed_s".to_string(), Json::Num(elapsed)),
        ])],
    );

    // Repeat-rate mix: a request stream where REPEAT_RATE of the traffic
    // revisits already-seen models — the shape the cache is built for.
    group("serve_repeat_rate_mix");
    let mut mixed = Service::new(config());
    let mut stream_rng = Rng64::new(777);
    let mut fresh_seed = 50_000u64;
    let mut stream = Vec::with_capacity(MIX_STREAM);
    for k in 0..MIX_STREAM {
        if k > 0 && stream_rng.chance(REPEAT_RATE) {
            let at = stream_rng.index(mix.len());
            stream.push(mix[at].clone());
        } else {
            // A fresh model: reuse a mix workload shape with a new seed,
            // which changes the cache key without changing the family.
            let mut req = mix[k % mix.len()].clone();
            req.seed = fresh_seed;
            fresh_seed += 1;
            stream.push(req);
        }
    }
    let (mut lat, _) = drive(&mut mixed, &stream);
    let stats = mixed.stats();
    let hit_rate = stats.hits as f64 / (stats.hits + stats.misses) as f64;
    let (rec, _) = latency_record("serve/mix_75pct_repeat", &mut lat, stats.hits, stats.misses);
    let mut fields = match rec {
        Json::Obj(fields) => fields,
        _ => unreachable!(),
    };
    fields.push(("repeat_rate".to_string(), Json::Num(REPEAT_RATE)));
    fields.push(("hit_rate".to_string(), Json::Num(hit_rate)));
    println!("repeat-rate mix: hit rate {:.2}", hit_rate);
    assert!(
        hit_rate > 0.5,
        "a {REPEAT_RATE} repeat-rate stream must mostly hit, got {hit_rate:.2}"
    );
    merge_section(
        Path::new(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_serve.json"
        )),
        "serve_mix",
        vec![Json::Obj(fields)],
    );
    par::reset_threads();

    // Warm point queries: one request per `submit_batch` call on a
    // warmed service, the shape every wire `submit` takes. The p50 is the
    // per-request cost of the batch machinery on a cache hit.
    group("serve_tiny_batch");
    par::set_threads(4);
    let mut warmed_service = Service::new(config());
    drive(&mut warmed_service, &mix); // populate every model in the mix
    let warmed = warmed_service.stats();
    let mut tiny_lat = Vec::with_capacity(mix.len() * WARM_PASSES);
    for _ in 0..WARM_PASSES {
        for req in &mix {
            let t0 = Instant::now();
            let reply = warmed_service
                .submit_batch(std::slice::from_ref(req))
                .pop()
                .expect("one reply per request");
            tiny_lat.push(t0.elapsed().as_secs_f64());
            match reply {
                Reply::Done(o) => assert!(o.cached, "warm tiny batch must hit"),
                other => panic!("warm tiny-batch request failed: {other:?}"),
            }
        }
    }
    let after = warmed_service.stats();
    let (rec, _) = latency_record(
        "serve/tiny_batch",
        &mut tiny_lat,
        after.hits - warmed.hits,
        after.misses - warmed.misses,
    );
    load_records.push(rec);
    par::reset_threads();

    // PR 10 — deadline mix: the same medium mix under tight / mid /
    // loose / no deadlines. Tight (0 ms) must expire at admission and
    // loose (10 s) must finish undegraded; the mid bucket is wall-clock
    // dependent by design, so its expired/degraded rates are recorded
    // but not pinned.
    group("serve_deadline_mix");
    par::set_threads(4);
    let mut deadline_records = Vec::new();
    for (name, deadline_ms) in [
        ("serve/deadline_tight_0ms", Some(0.0)),
        ("serve/deadline_mid_250us", Some(0.25)),
        ("serve/deadline_loose_10s", Some(10_000.0)),
        ("serve/deadline_none", None),
    ] {
        let mut service = Service::new(config());
        let mut requests = mix.clone();
        for r in &mut requests {
            r.deadline_ms = deadline_ms;
        }
        let t0 = Instant::now();
        let (mut expired, mut degraded, mut full) = (0usize, 0usize, 0usize);
        for req in &requests {
            match service.submit(req) {
                Reply::Done(o) if o.degraded => degraded += 1,
                Reply::Done(_) => full += 1,
                Reply::Expired { .. } => expired += 1,
                other => panic!("deadline mix request failed: {other:?}"),
            }
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let stats = service.stats();
        assert_eq!(expired + degraded + full, mix.len());
        assert_eq!(stats.deadline_expired as usize, expired);
        assert_eq!(stats.degraded as usize, degraded);
        match deadline_ms {
            Some(0.0) => {
                assert_eq!(expired, mix.len(), "0 ms deadlines are dead on arrival");
            }
            Some(d) if d >= 10_000.0 => {
                assert_eq!(full, mix.len(), "10 s deadlines never bite on this mix");
            }
            None => assert_eq!(full, mix.len(), "no deadline, no degradation"),
            _ => {}
        }
        let n = mix.len() as f64;
        println!(
            "{name:<28} expired {expired:>3}  degraded {degraded:>3}  full {full:>3}  in {:.1} ms",
            elapsed * 1e3
        );
        deadline_records.push(Json::Obj(vec![
            ("name".to_string(), Json::Str(name.into())),
            (
                "deadline_ms".to_string(),
                deadline_ms.map_or(Json::Null, Json::Num),
            ),
            ("offered".to_string(), Json::Num(n)),
            ("expired".to_string(), Json::Num(expired as f64)),
            ("degraded".to_string(), Json::Num(degraded as f64)),
            ("full".to_string(), Json::Num(full as f64)),
            ("expired_rate".to_string(), Json::Num(expired as f64 / n)),
            ("degraded_rate".to_string(), Json::Num(degraded as f64 / n)),
            ("elapsed_s".to_string(), Json::Num(elapsed)),
        ]));
    }
    par::reset_threads();
    merge_section(
        Path::new(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_serve.json"
        )),
        "serve_deadline",
        deadline_records,
    );

    load_records.push(host_record());
    merge_section(
        Path::new(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_serve.json"
        )),
        "serve_load",
        load_records,
    );
}
