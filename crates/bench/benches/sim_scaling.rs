//! Bench for E1: state-vector simulation cost vs qubit count, plus the
//! compiled-vs-generic comparison the circuit-compilation layer is judged
//! by (PR 2): a 16-qubit QAOA-style circuit whose dense RZZ cost layers
//! collapse into single diagonal passes under compilation.
//!
//! Emits the `sim_scaling` section of `BENCH_sim.json` (op/s and wall
//! times) alongside the human-readable report lines.

use qmldb_bench::experiments::e01_sim_scaling::random_layered_circuit;
use qmldb_bench::json::{host_record, merge_section, timing_record, Json};
use qmldb_bench::timing::{bench, group};
use qmldb_math::{par, Rng64};
use qmldb_sim::{Circuit, StateVector};
use std::path::Path;

/// Complete-graph QAOA circuit: p rounds of (cost = RZZ on every pair,
/// mixer = RX per qubit) after an H layer — 16 qubits and p = 2 give
/// 2·120 = 240 RZZ gates, the shape the diagonal-run fusion targets.
fn qaoa_style_circuit(n: usize, p: usize, rng: &mut Rng64) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    for _ in 0..p {
        for a in 0..n {
            for b in (a + 1)..n {
                c.rzz(a, b, rng.uniform_range(-1.0, 1.0));
            }
        }
        for q in 0..n {
            c.rx(q, rng.uniform_range(-1.0, 1.0));
        }
    }
    c
}

fn main() {
    let mut records = Vec::new();

    group("statevector_depth20");
    for n in [8usize, 12, 16] {
        let mut rng = Rng64::new(1);
        let circuit = random_layered_circuit(n, 20, &mut rng);
        let gates = circuit.len() as f64;
        let t = bench(&format!("{n}_qubits"), 10, || {
            let mut s = StateVector::zero(n);
            s.run(&circuit, &[]);
            s.norm()
        });
        records.push(timing_record(
            &format!("random_layered/{n}q_depth20"),
            &t,
            Some(gates),
        ));
    }

    // The acceptance measurement: one 16-qubit QAOA-style circuit, timed
    // through the seed's generic dense gate path and through the compiled
    // kernel program (compilation hoisted out of the loop, as training
    // loops run it). The speedup must be ≥ 3× single-threaded, so the
    // whole comparison is pinned to one worker — the generic path is
    // serial and letting the compiled path fan out would flatter it.
    group("qaoa16_compiled_vs_generic");
    par::set_threads(1);
    let n = 16;
    let mut rng = Rng64::new(2);
    let circuit = qaoa_style_circuit(n, 2, &mut rng);
    let gates = circuit.len() as f64;

    let generic = bench("generic_dense_path", 10, || {
        let mut s = StateVector::zero(n);
        s.run_generic(&circuit, &[]);
        s.norm()
    });
    records.push(timing_record("qaoa16/generic", &generic, Some(gates)));

    let t_compile = bench("compile_only", 10, || circuit.compile().n_ops());
    records.push(timing_record("qaoa16/compile_only", &t_compile, None));

    let compiled = circuit.compile();
    let run = bench("compiled_run", 10, || compiled.execute(&[]).norm());
    records.push(timing_record("qaoa16/compiled", &run, Some(gates)));

    // Sanity: both paths compute the same state.
    let mut a = StateVector::zero(n);
    a.run_generic(&circuit, &[]);
    let b = compiled.execute(&[]);
    assert!(a.fidelity(&b) > 1.0 - 1e-9, "paths diverged");

    let speedup = generic.median / run.median;
    println!(
        "compiled speedup over generic (median): {speedup:.2}x  \
         ({} source instrs -> {} kernel ops)",
        circuit.len(),
        compiled.n_ops(),
    );
    par::reset_threads();
    records.push(Json::Obj(vec![
        ("name".to_string(), Json::Str("qaoa16/speedup".to_string())),
        ("speedup_median".to_string(), Json::Num(speedup)),
        ("source_instrs".to_string(), Json::Num(circuit.len() as f64)),
        ("kernel_ops".to_string(), Json::Num(compiled.n_ops() as f64)),
    ]));

    // Anchored to the workspace root: cargo bench runs with the package
    // directory as cwd, and the report belongs next to EXPERIMENTS.md.
    records.push(host_record());
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    merge_section(Path::new(out), "sim_scaling", records);

    // The amplitude-parallelism acceptance grid: one compiled gate stream
    // per qubit count, timed at each worker count. On a multi-core host
    // the 4-thread row must show the ≥4×-class scaling the intra-kernel
    // splits buy; on a single-core container the timings collapse but the
    // bit-identity assertion below still pins correctness.
    group("threads_x_qubits");
    let mut grid = Vec::new();
    for n in [14usize, 16, 18] {
        let mut rng = Rng64::new(3);
        let circuit = qaoa_style_circuit(n, 1, &mut rng);
        let gates = circuit.len() as f64;
        let compiled = circuit.compile();
        let mut states = Vec::new();
        for threads in [1usize, 2, 4] {
            par::set_threads(threads);
            let t = bench(&format!("{n}q_{threads}t"), 5, || {
                compiled.execute(&[]).norm()
            });
            states.push(compiled.execute(&[]));
            par::reset_threads();
            let mut rec = timing_record(&format!("qaoa/{n}q/{threads}threads"), &t, Some(gates));
            rec.set("qubits", Json::Num(n as f64));
            rec.set("threads", Json::Num(threads as f64));
            grid.push(rec);
        }
        // Determinism across the whole grid row: amplitude-level splits
        // must not change a single bit, whatever the worker count.
        assert!(
            states.windows(2).all(|w| w[0] == w[1]),
            "{n}q: thread counts diverged bitwise"
        );
    }
    grid.push(host_record());
    merge_section(Path::new(out), "threads_x_qubits", grid);

    // Per-fan-out dispatch overhead: the persistent pool against one
    // fresh OS thread per job, the spawn-per-call scheme the pool
    // replaced. Both sides run the same four near-empty jobs `par::map`
    // builds at set_threads(4), so each call is all dispatch and no work
    // and the timing gap is exactly the cost the pool amortizes away.
    group("dispatch_overhead");
    par::set_threads(4);
    let tiny: Vec<u64> = (0..4).collect();
    let job = |i: usize, x: u64| x.wrapping_add(i as u64);
    let pooled = bench("tiny_fanout_pooled", 300, || {
        par::map(&tiny, |i, &x| job(i, x)).iter().sum::<u64>()
    });
    let scoped = bench("tiny_fanout_scoped", 300, || {
        let mut out = [0u64; 4];
        std::thread::scope(|scope| {
            for (i, (slot, &x)) in out.iter_mut().zip(&tiny).enumerate() {
                scope.spawn(move || *slot = job(i, x));
            }
        });
        out.iter().sum::<u64>()
    });
    let ratio = scoped.median / pooled.median;
    println!("pooled dispatch overhead: {ratio:.1}x lower than scoped spawning (median)");
    assert!(
        ratio >= 5.0,
        "pooled per-fan-out overhead must be ≥ 5× lower than scoped, got {ratio:.1}x"
    );
    let mut overhead = vec![
        timing_record("dispatch/tiny_fanout_pooled", &pooled, None),
        timing_record("dispatch/tiny_fanout_scoped", &scoped, None),
        Json::Obj(vec![
            (
                "name".to_string(),
                Json::Str("dispatch/overhead_ratio".to_string()),
            ),
            ("scoped_over_pooled_median".to_string(), Json::Num(ratio)),
            ("threads".to_string(), Json::Num(4.0)),
            ("jobs_per_fanout".to_string(), Json::Num(4.0)),
        ]),
    ];
    par::reset_threads();
    overhead.push(host_record());
    merge_section(Path::new(out), "dispatch_overhead", overhead);
}
