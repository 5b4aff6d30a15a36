//! Bench for E15: Gram-matrix construction, exact vs shots, and the
//! classical RBF reference — plus the parallel-scaling check for the
//! deterministic fork-join layer (serial vs `QMLDB_THREADS`-wide).
//!
//! Emits the `kernels` section of `BENCH_sim.json` (entries/s and wall
//! times) alongside the human-readable report lines.

use qmldb_bench::json::{host_record, merge_section, timing_record, Json};
use qmldb_bench::timing::{bench, group};
use qmldb_core::kernel::{FeatureMap, QuantumKernel};
use qmldb_math::{par, Rng64};
use qmldb_ml::{dataset, Kernel};
use std::path::Path;

/// Entries computed per Gram build over `n` points (upper triangle).
fn gram_entries(n: usize) -> f64 {
    (n * (n - 1) / 2) as f64
}

fn main() {
    let mut records = Vec::new();

    group("gram_matrix");
    for n in [10usize, 20] {
        let mut rng = Rng64::new(5);
        let d = dataset::two_moons(n, 0.1, &mut rng).rescaled(0.0, std::f64::consts::PI);
        let qk = QuantumKernel::new(2, FeatureMap::ZZ { reps: 2 });
        let t = bench(&format!("quantum_exact/{n}"), 10, || qk.gram(&d.x));
        records.push(timing_record(
            &format!("gram_exact/{n}pts_2q"),
            &t,
            Some(gram_entries(n)),
        ));
        let t = bench(&format!("quantum_512shots/{n}"), 10, || {
            let mut rng = Rng64::new(9);
            qk.gram_sampled(&d.x, 512, &mut rng)
        });
        records.push(timing_record(
            &format!("gram_512shots/{n}pts_2q"),
            &t,
            Some(gram_entries(n)),
        ));
        let rbf = Kernel::Rbf { gamma: 2.0 };
        let t = bench(&format!("classical_rbf/{n}"), 10, || rbf.gram(&d.x));
        records.push(timing_record(
            &format!("gram_rbf/{n}pts"),
            &t,
            Some(gram_entries(n)),
        ));
    }

    // Parallel scaling on a production-shaped instance: an 8-qubit ZZ
    // feature map over 64 points, where per-pair work is large enough for
    // the fork-join layer to pay. Prints the 4-thread speedup and checks
    // bit-identical results across thread counts.
    group("gram_matrix_parallel_scaling");
    let mut rng = Rng64::new(7);
    let d = dataset::two_moons(64, 0.1, &mut rng).rescaled(0.0, std::f64::consts::PI);
    let xs: Vec<Vec<f64>> =
        d.x.iter()
            .map(|p| {
                // Lift 2-d points to 8 features so the ZZ map spans 8 qubits.
                (0..8).map(|k| p[k % 2] * (1.0 + 0.1 * k as f64)).collect()
            })
            .collect();
    let qk = QuantumKernel::new(8, FeatureMap::ZZ { reps: 2 });
    par::set_threads(1);
    let serial = bench("quantum_exact_64pts_8q/1thread", 10, || qk.gram(&xs));
    records.push(timing_record(
        "gram_exact_64pts_8q/1thread",
        &serial,
        Some(gram_entries(64)),
    ));
    let reference = qk.gram(&xs);
    par::set_threads(4);
    let wide = bench("quantum_exact_64pts_8q/4threads", 10, || qk.gram(&xs));
    records.push(timing_record(
        "gram_exact_64pts_8q/4threads",
        &wide,
        Some(gram_entries(64)),
    ));
    assert_eq!(
        reference,
        qk.gram(&xs),
        "thread count changed the Gram matrix"
    );
    println!(
        "speedup (median, 4 threads vs 1): {:.2}x",
        serial.median / wide.median
    );
    records.push(Json::Obj(vec![
        (
            "name".to_string(),
            Json::Str("gram_exact_64pts_8q/speedup_4v1".to_string()),
        ),
        (
            "speedup_median".to_string(),
            Json::Num(serial.median / wide.median),
        ),
    ]));

    par::set_threads(1);
    let mut rng = Rng64::new(11);
    let serial_shots = bench("quantum_4096shots_64pts_8q/1thread", 5, || {
        let mut r = rng.fork();
        qk.gram_sampled(&xs, 4096, &mut r)
    });
    records.push(timing_record(
        "gram_4096shots_64pts_8q/1thread",
        &serial_shots,
        Some(gram_entries(64)),
    ));
    par::set_threads(4);
    let mut rng = Rng64::new(11);
    let wide_shots = bench("quantum_4096shots_64pts_8q/4threads", 5, || {
        let mut r = rng.fork();
        qk.gram_sampled(&xs, 4096, &mut r)
    });
    records.push(timing_record(
        "gram_4096shots_64pts_8q/4threads",
        &wide_shots,
        Some(gram_entries(64)),
    ));
    println!(
        "speedup (median, 4 threads vs 1): {:.2}x",
        serial_shots.median / wide_shots.median
    );
    par::reset_threads();

    // Anchored to the workspace root: cargo bench runs with the package
    // directory as cwd, and the report belongs next to EXPERIMENTS.md.
    records.push(host_record());
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    merge_section(Path::new(out), "kernels", records);
}
