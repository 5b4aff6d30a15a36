//! Integration tests for the optimizer service: cache correctness under
//! common random numbers, admission control, coalescing, arrival-order
//! invariance, and the TCP front end.

use qmldb_anneal::{SaParams, TabuParams};
use qmldb_db::{Portfolio, Solver};
use qmldb_serve::{
    spawn, Reply, Request, ServeOutcome, Service, ServiceConfig, Solution, WorkloadSpec,
    MAX_DEADLINE_MS,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// A fast two-member classical portfolio for tests.
fn quick_portfolio() -> Portfolio {
    Portfolio::new(vec![
        Solver::Sa(SaParams {
            sweeps: 300,
            restarts: 2,
            ..SaParams::default()
        }),
        Solver::Tabu(TabuParams {
            iters: 300,
            ..TabuParams::default()
        }),
    ])
}

fn quick_config() -> ServiceConfig {
    ServiceConfig {
        portfolio: quick_portfolio(),
        cache_capacity: 32,
        max_pending: 16,
    }
}

/// One request per workload family.
fn four_workloads(seed: u64) -> Vec<Request> {
    vec![
        Request {
            workload: WorkloadSpec::JoinOrder {
                cardinalities: vec![1000.0, 10.0, 500.0, 2000.0],
                edges: vec![(0, 1, 0.01), (1, 2, 0.02), (2, 3, 0.001)],
            },
            seed,
            deadline_ms: None,
        },
        Request {
            workload: WorkloadSpec::Mqo {
                plan_costs: vec![vec![10.0, 12.0], vec![8.0, 9.0], vec![15.0, 11.0]],
                savings: vec![((0, 0), (1, 1), 3.5), ((1, 0), (2, 1), 2.0)],
            },
            seed,
            deadline_ms: None,
        },
        Request {
            workload: WorkloadSpec::IndexSelection {
                sizes: vec![40.0, 25.0, 30.0],
                benefits: vec![90.0, 60.0, 45.0],
                interactions: vec![(0, 1, 20.0)],
                budget: 70.0,
            },
            seed,
            deadline_ms: None,
        },
        Request {
            workload: WorkloadSpec::TxSchedule {
                n_tx: 6,
                n_slots: 3,
                conflicts: vec![(0, 1, 2.5), (2, 4, 1.0), (1, 5, 0.5)],
                balance_weight: 0.5,
            },
            seed,
            deadline_ms: None,
        },
    ]
}

fn done(reply: &Reply) -> &ServeOutcome {
    match reply {
        Reply::Done(o) => o,
        other => panic!("expected Done, got {other:?}"),
    }
}

fn assert_outcomes_identical(a: &ServeOutcome, b: &ServeOutcome) {
    assert_eq!(a.solution, b.solution);
    assert_eq!(a.objective.to_bits(), b.objective.to_bits());
    assert_eq!(a.solver, b.solver);
    assert_eq!(a.penalty_doublings, b.penalty_doublings);
    assert_eq!(a.repaired, b.repaired);
    assert_eq!(a.signature, b.signature);
}

#[test]
fn cache_hits_are_bit_identical_to_fresh_solves_for_all_workloads() {
    // Common-random-numbers pin: the cached answer must equal, bit for
    // bit, what a fresh service would compute for the same request seed.
    for req in four_workloads(42) {
        let mut warm = Service::new(quick_config());
        let cold = done(&warm.submit(&req)).clone();
        assert!(!cold.cached);
        let hit = done(&warm.submit(&req)).clone();
        assert!(hit.cached);
        assert_outcomes_identical(&cold, &hit);

        // A brand-new service (fresh cache) reproduces the same answer.
        let mut fresh = Service::new(quick_config());
        let again = done(&fresh.submit(&req)).clone();
        assert!(!again.cached);
        assert_outcomes_identical(&cold, &again);
    }
}

#[test]
fn distinct_seeds_do_not_share_cache_lines() {
    let mut service = Service::new(quick_config());
    let a = four_workloads(1).remove(3);
    let mut b = a.clone();
    b.seed = 2;
    let ra = done(&service.submit(&a)).clone();
    let rb = done(&service.submit(&b)).clone();
    assert!(!ra.cached && !rb.cached, "different seeds must both miss");
    // Same model ⇒ same signature, even though the runs are independent.
    assert_eq!(ra.signature, rb.signature);
    assert_eq!(service.stats().cache_entries, 2);
}

#[test]
fn answers_are_independent_of_arrival_order() {
    let mut batch = four_workloads(7);
    batch.extend(four_workloads(8));
    let forward: Vec<ServeOutcome> = Service::new(quick_config())
        .submit_batch(&batch)
        .iter()
        .map(|r| done(r).clone())
        .collect();

    let mut reversed_batch = batch.clone();
    reversed_batch.reverse();
    let mut backward: Vec<ServeOutcome> = Service::new(quick_config())
        .submit_batch(&reversed_batch)
        .iter()
        .map(|r| done(r).clone())
        .collect();
    backward.reverse();

    for (f, b) in forward.iter().zip(&backward) {
        assert_outcomes_identical(f, b);
    }
}

#[test]
fn batch_and_singles_agree() {
    let batch = four_workloads(21);
    let batched: Vec<ServeOutcome> = Service::new(quick_config())
        .submit_batch(&batch)
        .iter()
        .map(|r| done(r).clone())
        .collect();
    let mut one_by_one = Service::new(quick_config());
    for (req, expect) in batch.iter().zip(&batched) {
        let got = done(&one_by_one.submit(req)).clone();
        assert_outcomes_identical(expect, &got);
    }
}

#[test]
fn tiny_batch_fast_path_matches_general_path_exactly() {
    // PR 9: single-request batches take an inline fast path that skips
    // the fan-out machinery. Replies, counters, and cache state must be
    // indistinguishable from the general batched path.
    for seed in [3u64, 11] {
        for req in four_workloads(seed) {
            let mut fast = Service::new(quick_config());
            let mut general = Service::new(quick_config());
            // Cold miss, then warm hit, on both paths.
            for _ in 0..2 {
                let f = fast.submit_batch(std::slice::from_ref(&req));
                let g = general.submit_batch_general(std::slice::from_ref(&req));
                assert_eq!(f.len(), 1);
                assert_eq!(g.len(), 1);
                assert_outcomes_identical(done(&f[0]), done(&g[0]));
                assert_eq!(done(&f[0]).cached, done(&g[0]).cached);
            }
            assert_eq!(fast.stats(), general.stats());
        }
    }

    // Malformed request: both paths answer a permanent error and count it.
    let bad = Request {
        workload: WorkloadSpec::JoinOrder {
            cardinalities: vec![],
            edges: vec![],
        },
        seed: 1,
        deadline_ms: None,
    };
    let mut fast = Service::new(quick_config());
    let mut general = Service::new(quick_config());
    let f = fast.submit_batch(std::slice::from_ref(&bad));
    let g = general.submit_batch_general(std::slice::from_ref(&bad));
    assert!(matches!((&f[0], &g[0]), (Reply::Error(a), Reply::Error(b)) if a == b));
    assert_eq!(fast.stats(), general.stats());

    // max_pending == 0 edge: a cold single request is rejected with the
    // same retryable reply on both paths.
    let zero = ServiceConfig {
        max_pending: 0,
        ..quick_config()
    };
    let req = four_workloads(9).remove(0);
    let mut fast = Service::new(zero.clone());
    let mut general = Service::new(zero);
    let f = fast.submit_batch(std::slice::from_ref(&req));
    let g = general.submit_batch_general(std::slice::from_ref(&req));
    match (&f[0], &g[0]) {
        (
            Reply::Rejected {
                pending: pf,
                max_pending: mf,
            },
            Reply::Rejected {
                pending: pg,
                max_pending: mg,
            },
        ) => {
            assert_eq!((pf, mf), (pg, mg));
            assert_eq!(*pf, 0);
        }
        other => panic!("expected Rejected on both paths, got {other:?}"),
    }
    assert_eq!(fast.stats(), general.stats());
}

#[test]
fn in_batch_duplicates_coalesce_onto_one_solve() {
    let mut service = Service::new(quick_config());
    let req = four_workloads(5).remove(1);
    let batch = vec![req.clone(), req.clone(), req.clone()];
    let replies = service.submit_batch(&batch);
    let first = done(&replies[0]);
    for r in &replies {
        let o = done(r);
        assert!(!o.cached, "coalesced requests report a fresh solve");
        assert_outcomes_identical(first, o);
    }
    let stats = service.stats();
    assert_eq!(stats.coalesced, 2);
    assert_eq!(stats.cache_entries, 1, "one solve, one cache line");
}

#[test]
fn admission_control_rejects_overflow_and_retry_succeeds() {
    let mut service = Service::new(ServiceConfig {
        portfolio: quick_portfolio(),
        cache_capacity: 32,
        max_pending: 2,
    });
    // Four distinct models: two admitted, two rejected.
    let batch: Vec<Request> = four_workloads(9);
    let replies = service.submit_batch(&batch);
    assert!(matches!(replies[0], Reply::Done(_)));
    assert!(matches!(replies[1], Reply::Done(_)));
    for r in &replies[2..] {
        assert!(r.retryable(), "overflow must be a retryable rejection");
        match r {
            Reply::Rejected {
                pending,
                max_pending,
            } => {
                assert_eq!(*pending, 2);
                assert_eq!(*max_pending, 2);
            }
            other => panic!("expected Rejected, got {other:?}"),
        }
    }
    assert_eq!(service.stats().rejections, 2);

    // Retrying the rejected tail on the drained service succeeds and
    // matches what an unthrottled service computes.
    let retry = service.submit_batch(&batch[2..]);
    let mut unthrottled = Service::new(quick_config());
    let reference = unthrottled.submit_batch(&batch[2..]);
    for (r, expect) in retry.iter().zip(&reference) {
        assert_outcomes_identical(done(r), done(expect));
    }
}

#[test]
fn hits_bypass_admission_control() {
    let mut service = Service::new(ServiceConfig {
        portfolio: quick_portfolio(),
        cache_capacity: 32,
        max_pending: 1,
    });
    let batch = four_workloads(11);
    // Warm the first model.
    let _ = service.submit(&batch[0]);
    // Now a batch of [cached, new, new]: the hit does not consume the
    // single admission slot.
    let replies = service.submit_batch(&batch[..3]);
    assert!(done(&replies[0]).cached);
    assert!(matches!(replies[1], Reply::Done(_)));
    assert!(replies[2].retryable());
}

#[test]
fn eviction_counters_track_capacity_pressure() {
    let mut service = Service::new(ServiceConfig {
        portfolio: quick_portfolio(),
        cache_capacity: 2,
        max_pending: 16,
    });
    let batch = four_workloads(13); // 4 distinct models, capacity 2
    let _ = service.submit_batch(&batch);
    let stats = service.stats();
    assert_eq!(stats.evictions, 2);
    assert_eq!(stats.cache_entries, 2);
    // Two of the four models were displaced. *Which* two is cost-aware
    // (cheapest measured solve goes first), so it is not pinned here;
    // the cache just stays bounded under further pressure.
    let _ = service.submit_batch(&batch);
    assert_eq!(service.stats().cache_entries, 2);
}

#[test]
fn scale_insensitive_cache_keying() {
    // A uniformly rescaled model is the same optimization problem; the
    // canonical signature sends it to the same cache line.
    let mut service = Service::new(quick_config());
    let base = Request {
        workload: WorkloadSpec::Mqo {
            plan_costs: vec![vec![10.0, 12.0], vec![8.0, 9.0]],
            savings: vec![((0, 0), (1, 1), 3.5)],
        },
        seed: 3,
        deadline_ms: None,
    };
    let scaled = Request {
        workload: WorkloadSpec::Mqo {
            plan_costs: vec![vec![20.0, 24.0], vec![16.0, 18.0]],
            savings: vec![((0, 0), (1, 1), 7.0)],
        },
        seed: 3,
        deadline_ms: None,
    };
    let cold = done(&service.submit(&base)).clone();
    let hit = done(&service.submit(&scaled)).clone();
    assert!(hit.cached, "rescaled model must hit the cache");
    assert_eq!(cold.signature, hit.signature);
    assert_eq!(cold.solution, hit.solution);
}

#[test]
fn malformed_requests_get_permanent_errors() {
    let mut service = Service::new(quick_config());
    let bad = Request {
        workload: WorkloadSpec::JoinOrder {
            cardinalities: vec![100.0, 50.0],
            edges: vec![(0, 1, 1.5)], // selectivity out of range
        },
        seed: 1,
        deadline_ms: None,
    };
    let reply = service.submit(&bad);
    assert!(matches!(reply, Reply::Error(_)));
    assert!(!reply.retryable());
    assert_eq!(service.stats().errors, 1);

    // A malformed request in a batch does not poison its neighbours.
    let good = four_workloads(2).remove(3);
    let replies = service.submit_batch(&[bad, good]);
    assert!(matches!(replies[0], Reply::Error(_)));
    assert!(matches!(replies[1], Reply::Done(_)));
}

#[test]
fn solutions_decode_into_the_right_domain() {
    let mut service = Service::new(quick_config());
    let replies = service.submit_batch(&four_workloads(17));
    match &done(&replies[0]).solution {
        Solution::Order(perm) => {
            let mut sorted = perm.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3], "join order is a permutation");
        }
        other => panic!("join-order solution mismatch: {other:?}"),
    }
    match &done(&replies[1]).solution {
        Solution::PlanChoice(choice) => assert_eq!(choice.len(), 3),
        other => panic!("mqo solution mismatch: {other:?}"),
    }
    match &done(&replies[2]).solution {
        Solution::Selection(sel) => assert_eq!(sel.len(), 3),
        other => panic!("index solution mismatch: {other:?}"),
    }
    match &done(&replies[3]).solution {
        Solution::Slots(slots) => {
            assert_eq!(slots.len(), 6);
            assert!(slots.iter().all(|&s| s < 3));
        }
        other => panic!("tx solution mismatch: {other:?}"),
    }
}

#[test]
fn expired_deadline_is_answered_without_solving() {
    let mut service = Service::new(quick_config());
    let mut req = four_workloads(31).remove(0);
    req.deadline_ms = Some(0.0); // dead on arrival
    let reply = service.submit(&req);
    match &reply {
        Reply::Expired { deadline_ms } => assert_eq!(*deadline_ms, 0.0),
        other => panic!("expected Expired, got {other:?}"),
    }
    assert!(!reply.retryable(), "an expired deadline is the client's");
    let stats = service.stats();
    assert_eq!(stats.deadline_expired, 1);
    assert_eq!(stats.degraded, 0);
    assert_eq!(stats.cache_entries, 0, "no solve ran, nothing was cached");

    // The same request without a deadline is a cold miss — expiry never
    // touched the cache.
    req.deadline_ms = None;
    assert!(!done(&service.submit(&req)).cached);

    // Batch path: the expired request does not poison its neighbours.
    let mut doa = four_workloads(32).remove(1);
    doa.deadline_ms = Some(0.0);
    let good = four_workloads(32).remove(2);
    let replies = service.submit_batch(&[doa, good]);
    assert!(matches!(replies[0], Reply::Expired { .. }));
    assert!(matches!(replies[1], Reply::Done(_)));
    assert_eq!(service.stats().deadline_expired, 2);
}

#[test]
fn invalid_deadlines_are_permanent_errors() {
    let mut service = Service::new(quick_config());
    let bads = [-5.0, f64::NAN, f64::INFINITY, 1e25, MAX_DEADLINE_MS + 1.0];
    for bad in bads {
        let mut req = four_workloads(36).remove(0);
        req.deadline_ms = Some(bad);
        let reply = service.submit(&req);
        assert!(matches!(reply, Reply::Error(_)), "deadline {bad}");
        assert!(!reply.retryable());
    }
    assert_eq!(service.stats().errors, bads.len() as u64);
}

#[test]
fn cancelled_service_returns_degraded_but_feasible_answers() {
    // Cancelling the service token before submitting makes every solve
    // cut out at its first boundary check — a deterministic stand-in for
    // a deadline expiring mid-solve. The reply still carries a feasible
    // decoded solution, flagged degraded, and is never cached.
    let mut service = Service::new(quick_config());
    service.cancel_token().cancel();

    let o = done(&service.submit(&four_workloads(33).remove(3))).clone();
    assert!(o.degraded, "cancelled solve must report degradation");
    match &o.solution {
        Solution::Slots(slots) => {
            assert_eq!(slots.len(), 6);
            assert!(slots.iter().all(|&s| s < 3), "slots stay in range");
        }
        other => panic!("tx solution mismatch: {other:?}"),
    }
    let stats = service.stats();
    assert_eq!(stats.degraded, 1);
    assert_eq!(stats.cache_entries, 0, "degraded answers are not cached");

    // The batched path degrades every admitted solve the same way.
    let replies = service.submit_batch(&four_workloads(34));
    for r in &replies {
        assert!(done(r).degraded);
    }
    assert_eq!(service.stats().degraded, 5);
    assert_eq!(service.stats().cache_entries, 0);
}

#[test]
fn mid_solve_deadline_cuts_the_solve_short() {
    // A few-ms deadline against a portfolio scheduled for tens of
    // millions of delta-evaluations: the deadline fires mid-solve (the
    // normal case) or — on a badly descheduled runner — at admission.
    // Either way the service answers promptly and counts the event.
    let heavy = Portfolio::new(vec![Solver::Sa(SaParams {
        sweeps: 200_000,
        restarts: 8,
        ..SaParams::default()
    })]);
    let mut service = Service::new(ServiceConfig {
        portfolio: heavy,
        cache_capacity: 8,
        max_pending: 4,
    });
    let mut req = four_workloads(35).remove(3);
    req.deadline_ms = Some(4.0);
    match &service.submit(&req) {
        Reply::Done(o) => assert!(o.degraded, "in-time full solve is implausible"),
        Reply::Expired { .. } => {}
        other => panic!("expected Done(degraded) or Expired, got {other:?}"),
    }
    let stats = service.stats();
    assert_eq!(stats.degraded + stats.deadline_expired, 1);
    assert_eq!(stats.cache_entries, 0);
}

#[test]
fn tcp_end_to_end_with_cache_and_stats() {
    let handle = spawn("127.0.0.1:0", Service::new(quick_config())).expect("bind");
    let addr = handle.local_addr();

    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();

    let solve = "{\"op\":\"solve\",\"workload\":\"tx-schedule\",\"seed\":4,\
                 \"n_tx\":5,\"n_slots\":2,\"conflicts\":[[0,1,2.0],[2,3,1.0]],\
                 \"balance_weight\":0.25}";
    writeln!(writer, "{solve}").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"status\": \"ok\""), "got: {line}");
    assert!(line.contains("\"cached\": false"), "got: {line}");
    let first = line.clone();

    // Same request again: answered from cache with identical payload.
    writeln!(writer, "{solve}").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"cached\": true"), "got: {line}");
    let strip = |s: &str| {
        s.replace("\"cached\": true", "")
            .replace("\"cached\": false", "")
    };
    assert_eq!(strip(&first), strip(&line));

    // Batch op over a second connection shares the same cache.
    let stream2 = TcpStream::connect(addr).expect("connect 2");
    let mut writer2 = stream2.try_clone().expect("clone 2");
    let mut reader2 = BufReader::new(stream2);
    let batch = format!(
        "{{\"op\":\"batch\",\"requests\":[{}]}}",
        &solve.replace("{\"op\":\"solve\",", "{")
    );
    writeln!(writer2, "{batch}").unwrap();
    line.clear();
    reader2.read_line(&mut line).unwrap();
    assert!(line.contains("\"status\": \"batch\""), "got: {line}");
    assert!(line.contains("\"cached\": true"), "got: {line}");

    // A dead-on-arrival deadline over the wire.
    let doa = "{\"op\":\"solve\",\"workload\":\"tx-schedule\",\"seed\":5,\
               \"n_tx\":5,\"n_slots\":2,\"conflicts\":[[0,1,2.0]],\
               \"balance_weight\":0.25,\"deadline_ms\":0}";
    writeln!(writer, "{doa}").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"status\": \"expired\""), "got: {line}");
    assert!(line.contains("\"retryable\": false"), "got: {line}");

    // Stats reflect both connections.
    let stats_op = "{\"op\":\"stats\"}";
    writeln!(writer, "{stats_op}").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"status\": \"stats\""), "got: {line}");
    assert!(line.contains("\"hits\": 2"), "got: {line}");
    assert!(line.contains("\"deadline_expired\": 1"), "got: {line}");
    assert!(line.contains("\"degraded\": 0"), "got: {line}");

    // Malformed line gets an error reply, connection stays usable.
    writeln!(writer, "]]]garbage").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"status\": \"error\""), "got: {line}");

    handle.shutdown();
}

#[test]
fn tcp_absurd_deadline_gets_an_error_and_the_server_keeps_answering() {
    let handle = spawn("127.0.0.1:0", Service::new(quick_config())).expect("bind");
    let addr = handle.local_addr();

    // A deadline too large for `Instant` arithmetic: an error reply for
    // this request alone, not a panic under the service lock.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let absurd = "{\"op\":\"solve\",\"workload\":\"tx-schedule\",\"seed\":4,\
                  \"n_tx\":5,\"n_slots\":2,\"conflicts\":[[0,1,2.0]],\
                  \"balance_weight\":0.25,\"deadline_ms\":1e25}";
    writeln!(writer, "{absurd}").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"status\": \"error\""), "got: {line}");
    assert!(line.contains("deadline_ms"), "got: {line}");

    // The service is still healthy for everyone else.
    let stream2 = TcpStream::connect(addr).expect("connect 2");
    let mut writer2 = stream2.try_clone().expect("clone 2");
    let mut reader2 = BufReader::new(stream2);
    writeln!(writer2, "{{\"op\":\"stats\"}}").unwrap();
    line.clear();
    reader2.read_line(&mut line).unwrap();
    assert!(line.contains("\"status\": \"stats\""), "got: {line}");
    assert!(line.contains("\"errors\": 1"), "got: {line}");

    handle.shutdown();
}

#[test]
fn tcp_deeply_nested_line_gets_an_error_and_the_server_keeps_answering() {
    let handle = spawn("127.0.0.1:0", Service::new(quick_config())).expect("bind");
    let addr = handle.local_addr();

    // 100 000 open brackets: deep enough to overflow a connection
    // thread's stack in an unbounded recursive-descent parser.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writeln!(writer, "{}", "[".repeat(100_000)).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"status\": \"error\""), "got: {line}");
    assert!(line.contains("nesting"), "got: {line}");

    // The service is still healthy for everyone else.
    let stream2 = TcpStream::connect(addr).expect("connect 2");
    let mut writer2 = stream2.try_clone().expect("clone 2");
    let mut reader2 = BufReader::new(stream2);
    writeln!(writer2, "{{\"op\":\"stats\"}}").unwrap();
    line.clear();
    reader2.read_line(&mut line).unwrap();
    assert!(line.contains("\"status\": \"stats\""), "got: {line}");

    handle.shutdown();
}

#[test]
fn tcp_shutdown_op_stops_the_server() {
    let handle = spawn("127.0.0.1:0", Service::new(quick_config())).expect("bind");
    let addr = handle.local_addr();
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let shutdown_op = "{\"op\":\"shutdown\"}";
    writeln!(writer, "{shutdown_op}").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("shutting-down"), "got: {line}");
    handle.shutdown();
}
