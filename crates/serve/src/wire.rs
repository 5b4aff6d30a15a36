//! The line-delimited JSON wire format.
//!
//! One JSON object per line in both directions. Client → server ops:
//!
//! ```text
//! {"op":"solve","workload":"join-order","seed":7,
//!  "cardinalities":[1000,10,500],"edges":[[0,1,0.01],[1,2,0.02]]}
//! {"op":"solve","workload":"mqo","seed":1,
//!  "plan_costs":[[10,12],[8,9]],"savings":[[0,0,1,1,3.5]]}
//! {"op":"solve","workload":"index-selection","seed":1,
//!  "sizes":[40,25],"benefits":[90,60],"interactions":[[0,1,20]],"budget":60}
//! {"op":"solve","workload":"tx-schedule","seed":1,
//!  "n_tx":6,"n_slots":3,"conflicts":[[0,1,2.5]],"balance_weight":0.5}
//! {"op":"batch","requests":[{...solve fields...}, ...]}
//! {"op":"stats"}
//! {"op":"shutdown"}
//! ```
//!
//! Any solve-shaped object may add `"deadline_ms":<number>` — a
//! wall-clock budget in milliseconds from service receipt, at most
//! [`crate::MAX_DEADLINE_MS`] (one day; longer is a permanent error). Expired at
//! admission → `{"status":"expired",...}`; expired mid-solve → the
//! normal `ok` reply with `"degraded":true` and the best feasible
//! answer found in time.
//!
//! Server → client: `{"status":"ok",...}` per solved request (signature
//! as a hex string — u64 does not fit a JSON number losslessly),
//! `{"status":"rejected","retryable":true,...}` on admission rejection,
//! `{"status":"expired","retryable":false,...}` on a dead-on-arrival
//! deadline, `{"status":"error","message":...}` on malformed input,
//! `{"status":"batch","replies":[...]}` for batches, and
//! `{"status":"stats",...}` for the counters. Seeds travel as JSON
//! numbers and are exact up to 2⁵³.

use crate::request::{Reply, Request, ServeOutcome, Solution, WorkloadSpec};
use crate::service::ServiceStats;
use qmldb_math::json::Json;

/// A decoded client line.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Solve one request.
    Solve(Request),
    /// Solve a batch; one reply per request, in order.
    Batch(Vec<Request>),
    /// Report service counters.
    Stats,
    /// Stop the server.
    Shutdown,
}

/// Parses one client line into an [`Op`].
pub fn parse_line(text: &str) -> Result<Op, String> {
    let v = Json::parse(text)?;
    let op = field_str(&v, "op")?;
    match op {
        "solve" => Ok(Op::Solve(parse_request(&v)?)),
        "batch" => {
            let items = v
                .get("requests")
                .and_then(Json::as_arr)
                .ok_or("batch: missing \"requests\" array")?;
            items
                .iter()
                .map(parse_request)
                .collect::<Result<Vec<_>, _>>()
                .map(Op::Batch)
        }
        "stats" => Ok(Op::Stats),
        "shutdown" => Ok(Op::Shutdown),
        other => Err(format!("unknown op {other:?}")),
    }
}

/// Parses one solve-shaped object into a [`Request`] (the `op` field is
/// ignored, so batch elements reuse the same shape).
pub fn parse_request(v: &Json) -> Result<Request, String> {
    let seed = field_num(v, "seed")? as u64;
    let workload = match field_str(v, "workload")? {
        "join-order" => WorkloadSpec::JoinOrder {
            cardinalities: num_array(v, "cardinalities")?,
            edges: triples(v, "edges")?
                .into_iter()
                .map(|(a, b, s)| (a as usize, b as usize, s))
                .collect(),
        },
        "mqo" => {
            let costs = v
                .get("plan_costs")
                .and_then(Json::as_arr)
                .ok_or("mqo: missing \"plan_costs\"")?;
            let plan_costs = costs
                .iter()
                .map(|row| {
                    row.as_arr()
                        .and_then(|xs| xs.iter().map(Json::as_num).collect::<Option<Vec<f64>>>())
                        .ok_or_else(|| "mqo: plan_costs rows must be number arrays".to_string())
                })
                .collect::<Result<Vec<_>, _>>()?;
            let savings = rows(v, "savings", 5)?
                .into_iter()
                .map(|r| {
                    (
                        (r[0] as usize, r[1] as usize),
                        (r[2] as usize, r[3] as usize),
                        r[4],
                    )
                })
                .collect();
            WorkloadSpec::Mqo {
                plan_costs,
                savings,
            }
        }
        "index-selection" => WorkloadSpec::IndexSelection {
            sizes: num_array(v, "sizes")?,
            benefits: num_array(v, "benefits")?,
            interactions: triples(v, "interactions")?
                .into_iter()
                .map(|(i, j, o)| (i as usize, j as usize, o))
                .collect(),
            budget: field_num(v, "budget")?,
        },
        "tx-schedule" => WorkloadSpec::TxSchedule {
            n_tx: field_num(v, "n_tx")? as usize,
            n_slots: field_num(v, "n_slots")? as usize,
            conflicts: triples(v, "conflicts")?
                .into_iter()
                .map(|(i, j, w)| (i as usize, j as usize, w))
                .collect(),
            balance_weight: field_num(v, "balance_weight")?,
        },
        other => return Err(format!("unknown workload {other:?}")),
    };
    let deadline_ms = match v.get("deadline_ms") {
        None => None,
        Some(j) => Some(
            j.as_num()
                .ok_or("\"deadline_ms\" must be a number (milliseconds)")?,
        ),
    };
    Ok(Request {
        workload,
        seed,
        deadline_ms,
    })
}

/// Encodes a [`Request`] as a solve-shaped object (round-trips through
/// [`parse_request`]; the in-process load generator and tests use this).
pub fn request_json(req: &Request) -> Json {
    let mut fields = vec![
        ("op".to_string(), Json::Str("solve".into())),
        ("workload".to_string(), Json::Str(req.workload.tag().into())),
        ("seed".to_string(), Json::Num(req.seed as f64)),
    ];
    if let Some(d) = req.deadline_ms {
        fields.push(("deadline_ms".into(), Json::Num(d)));
    }
    match &req.workload {
        WorkloadSpec::JoinOrder {
            cardinalities,
            edges,
        } => {
            fields.push(("cardinalities".into(), nums(cardinalities)));
            fields.push((
                "edges".into(),
                Json::Arr(
                    edges
                        .iter()
                        .map(|&(a, b, s)| nums(&[a as f64, b as f64, s]))
                        .collect(),
                ),
            ));
        }
        WorkloadSpec::Mqo {
            plan_costs,
            savings,
        } => {
            fields.push((
                "plan_costs".into(),
                Json::Arr(plan_costs.iter().map(|row| nums(row)).collect()),
            ));
            fields.push((
                "savings".into(),
                Json::Arr(
                    savings
                        .iter()
                        .map(|&((q1, p1), (q2, p2), s)| {
                            nums(&[q1 as f64, p1 as f64, q2 as f64, p2 as f64, s])
                        })
                        .collect(),
                ),
            ));
        }
        WorkloadSpec::IndexSelection {
            sizes,
            benefits,
            interactions,
            budget,
        } => {
            fields.push(("sizes".into(), nums(sizes)));
            fields.push(("benefits".into(), nums(benefits)));
            fields.push((
                "interactions".into(),
                Json::Arr(
                    interactions
                        .iter()
                        .map(|&(i, j, o)| nums(&[i as f64, j as f64, o]))
                        .collect(),
                ),
            ));
            fields.push(("budget".into(), Json::Num(*budget)));
        }
        WorkloadSpec::TxSchedule {
            n_tx,
            n_slots,
            conflicts,
            balance_weight,
        } => {
            fields.push(("n_tx".into(), Json::Num(*n_tx as f64)));
            fields.push(("n_slots".into(), Json::Num(*n_slots as f64)));
            fields.push((
                "conflicts".into(),
                Json::Arr(
                    conflicts
                        .iter()
                        .map(|&(i, j, w)| nums(&[i as f64, j as f64, w]))
                        .collect(),
                ),
            ));
            fields.push(("balance_weight".into(), Json::Num(*balance_weight)));
        }
    }
    Json::Obj(fields)
}

/// Encodes a [`Reply`] as the wire object.
pub fn reply_json(reply: &Reply) -> Json {
    match reply {
        Reply::Done(outcome) => outcome_json(outcome),
        Reply::Rejected {
            pending,
            max_pending,
        } => Json::Obj(vec![
            ("status".into(), Json::Str("rejected".into())),
            ("retryable".into(), Json::Bool(true)),
            ("pending".into(), Json::Num(*pending as f64)),
            ("max_pending".into(), Json::Num(*max_pending as f64)),
        ]),
        Reply::Expired { deadline_ms } => Json::Obj(vec![
            ("status".into(), Json::Str("expired".into())),
            ("retryable".into(), Json::Bool(false)),
            ("deadline_ms".into(), Json::Num(*deadline_ms)),
        ]),
        Reply::Error(message) => Json::Obj(vec![
            ("status".into(), Json::Str("error".into())),
            ("message".into(), Json::Str(message.clone())),
        ]),
    }
}

fn outcome_json(o: &ServeOutcome) -> Json {
    let solution = match &o.solution {
        Solution::Order(xs) | Solution::PlanChoice(xs) | Solution::Slots(xs) => {
            Json::Arr(xs.iter().map(|&x| Json::Num(x as f64)).collect())
        }
        Solution::Selection(xs) => Json::Arr(xs.iter().map(|&b| Json::Bool(b)).collect()),
    };
    Json::Obj(vec![
        ("status".into(), Json::Str("ok".into())),
        ("workload".into(), Json::Str(o.workload.into())),
        ("solution".into(), solution),
        ("objective".into(), Json::Num(o.objective)),
        ("solver".into(), Json::Str(o.solver.into())),
        (
            "penalty_doublings".into(),
            Json::Num(o.penalty_doublings as f64),
        ),
        ("repaired".into(), Json::Bool(o.repaired)),
        ("degraded".into(), Json::Bool(o.degraded)),
        (
            "signature".into(),
            Json::Str(format!("0x{:016x}", o.signature)),
        ),
        ("cached".into(), Json::Bool(o.cached)),
    ])
}

/// Encodes the batch reply envelope.
pub fn batch_json(replies: &[Reply]) -> Json {
    Json::Obj(vec![
        ("status".into(), Json::Str("batch".into())),
        (
            "replies".into(),
            Json::Arr(replies.iter().map(reply_json).collect()),
        ),
    ])
}

/// Encodes the counters reply.
pub fn stats_json(s: &ServiceStats) -> Json {
    Json::Obj(vec![
        ("status".into(), Json::Str("stats".into())),
        ("requests".into(), Json::Num(s.requests as f64)),
        ("hits".into(), Json::Num(s.hits as f64)),
        ("misses".into(), Json::Num(s.misses as f64)),
        ("evictions".into(), Json::Num(s.evictions as f64)),
        ("rejections".into(), Json::Num(s.rejections as f64)),
        ("coalesced".into(), Json::Num(s.coalesced as f64)),
        ("errors".into(), Json::Num(s.errors as f64)),
        (
            "deadline_expired".into(),
            Json::Num(s.deadline_expired as f64),
        ),
        ("degraded".into(), Json::Num(s.degraded as f64)),
        ("cost_evictions".into(), Json::Num(s.cost_evictions as f64)),
        ("cache_entries".into(), Json::Num(s.cache_entries as f64)),
    ])
}

fn nums(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect())
}

fn field_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

fn field_num(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

fn num_array(v: &Json, key: &str) -> Result<Vec<f64>, String> {
    let arr = v
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array field {key:?}"))?;
    arr.iter()
        .map(|x| {
            x.as_num()
                .ok_or_else(|| format!("{key:?} must contain numbers"))
        })
        .collect()
}

/// Fixed-width numeric rows, e.g. `[[0,1,0.5], ...]`.
fn rows(v: &Json, key: &str, width: usize) -> Result<Vec<Vec<f64>>, String> {
    let arr = match v.get(key) {
        Some(j) => j
            .as_arr()
            .ok_or_else(|| format!("{key:?} must be an array"))?,
        None => return Ok(Vec::new()), // absent = empty
    };
    arr.iter()
        .map(|row| {
            let xs: Vec<f64> = row
                .as_arr()
                .map(|r| r.iter().filter_map(Json::as_num).collect())
                .unwrap_or_default();
            if xs.len() == width {
                Ok(xs)
            } else {
                Err(format!("{key:?} rows must be {width} numbers"))
            }
        })
        .collect()
}

fn triples(v: &Json, key: &str) -> Result<Vec<(f64, f64, f64)>, String> {
    Ok(rows(v, key, 3)?
        .into_iter()
        .map(|r| (r[0], r[1], r[2]))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request {
                workload: WorkloadSpec::JoinOrder {
                    cardinalities: vec![1000.0, 10.0, 500.0],
                    edges: vec![(0, 1, 0.01), (1, 2, 0.02)],
                },
                seed: 7,
                deadline_ms: None,
            },
            Request {
                workload: WorkloadSpec::Mqo {
                    plan_costs: vec![vec![10.0, 12.0], vec![8.0, 9.0]],
                    savings: vec![((0, 0), (1, 1), 3.5)],
                },
                seed: 8,
                deadline_ms: Some(2_000.0),
            },
            Request {
                workload: WorkloadSpec::IndexSelection {
                    sizes: vec![40.0, 25.0],
                    benefits: vec![90.0, 60.0],
                    interactions: vec![(0, 1, 20.0)],
                    budget: 60.0,
                },
                seed: 9,
                deadline_ms: None,
            },
            Request {
                workload: WorkloadSpec::TxSchedule {
                    n_tx: 6,
                    n_slots: 3,
                    conflicts: vec![(0, 1, 2.5), (2, 4, 1.0)],
                    balance_weight: 0.5,
                },
                seed: 10,
                deadline_ms: Some(0.0),
            },
        ]
    }

    #[test]
    fn requests_roundtrip_through_the_wire() {
        for req in sample_requests() {
            let line = request_json(&req).compact();
            match parse_line(&line).unwrap() {
                Op::Solve(back) => assert_eq!(back, req),
                other => panic!("parsed {other:?}"),
            }
        }
    }

    #[test]
    fn batch_op_roundtrips() {
        let reqs = sample_requests();
        let line = Json::Obj(vec![
            ("op".into(), Json::Str("batch".into())),
            (
                "requests".into(),
                Json::Arr(reqs.iter().map(request_json).collect()),
            ),
        ])
        .compact();
        match parse_line(&line).unwrap() {
            Op::Batch(back) => assert_eq!(back, reqs),
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn control_ops_parse() {
        assert_eq!(parse_line("{\"op\":\"stats\"}").unwrap(), Op::Stats);
        assert_eq!(parse_line("{\"op\":\"shutdown\"}").unwrap(), Op::Shutdown);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(parse_line("not json").is_err());
        assert!(parse_line("{\"op\":\"fly\"}").is_err());
        assert!(parse_line("{\"op\":\"solve\",\"workload\":\"nope\",\"seed\":1}").is_err());
        assert!(parse_line("{\"op\":\"solve\",\"workload\":\"mqo\",\"seed\":1}").is_err());
        // Wrong row width.
        assert!(parse_line(
            "{\"op\":\"solve\",\"workload\":\"join-order\",\"seed\":1,\
             \"cardinalities\":[10,20],\"edges\":[[0,1]]}"
        )
        .is_err());
    }

    #[test]
    fn reply_encodings_carry_status() {
        let rejected = Reply::Rejected {
            pending: 4,
            max_pending: 4,
        };
        let j = reply_json(&rejected);
        assert_eq!(j.get("status").unwrap().as_str(), Some("rejected"));
        assert_eq!(j.get("retryable").unwrap().as_bool(), Some(true));
        assert!(rejected.retryable());

        let err = Reply::Error("bad".into());
        let j = reply_json(&err);
        assert_eq!(j.get("status").unwrap().as_str(), Some("error"));
        assert!(!err.retryable());

        let done = Reply::Done(ServeOutcome {
            workload: "mqo",
            solution: Solution::PlanChoice(vec![0, 1]),
            objective: 14.5,
            solver: "sa",
            penalty_doublings: 0,
            repaired: false,
            degraded: true,
            signature: 0xdead_beef,
            cached: true,
        });
        let j = reply_json(&done);
        assert_eq!(j.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(
            j.get("signature").unwrap().as_str(),
            Some("0x00000000deadbeef")
        );
        assert_eq!(j.get("cached").unwrap().as_bool(), Some(true));
        assert_eq!(j.get("degraded").unwrap().as_bool(), Some(true));
        assert_eq!(j.get("solution").unwrap().as_arr().unwrap().len(), 2);

        let expired = Reply::Expired { deadline_ms: 5.0 };
        let j = reply_json(&expired);
        assert_eq!(j.get("status").unwrap().as_str(), Some("expired"));
        assert_eq!(j.get("retryable").unwrap().as_bool(), Some(false));
        assert_eq!(j.get("deadline_ms").unwrap().as_num(), Some(5.0));
        assert!(!expired.retryable());
    }

    #[test]
    fn deadline_ms_roundtrips_and_rejects_non_numbers() {
        // `sample_requests` carries None, Some(2000.0), and Some(0.0)
        // variants through `requests_roundtrip_through_the_wire`; here we
        // check the explicit field handling.
        let line = "{\"op\":\"solve\",\"workload\":\"join-order\",\"seed\":1,\
             \"cardinalities\":[10,20],\"edges\":[],\"deadline_ms\":250}";
        match parse_line(line).unwrap() {
            Op::Solve(req) => assert_eq!(req.deadline_ms, Some(250.0)),
            other => panic!("parsed {other:?}"),
        }
        let bad = "{\"op\":\"solve\",\"workload\":\"join-order\",\"seed\":1,\
             \"cardinalities\":[10,20],\"edges\":[],\"deadline_ms\":\"soon\"}";
        assert!(parse_line(bad).is_err());
    }
}
