//! Bench for E10-adjacent timing: cost per sweep of SA, SQA and parallel
//! tempering on a 64-spin glass, plus the acceptance measurement of the
//! incremental local-field engine — field-cache SA vs the seed's
//! `delta_flip`-per-proposal loop, and incremental vs naive tabu, on a
//! 256-spin/-variable dense instance, all single-threaded.
//!
//! Emits the `annealers` and `naive_vs_field_cache` sections of
//! `BENCH_anneal.json` alongside the human-readable report lines.

use qmldb_anneal::{
    parallel_tempering, sharded_anneal, simulated_annealing, simulated_quantum_annealing, Ising,
    Qubo, SaParams, ShardedParams, SparseQubo, SqaParams, TabuParams, TemperingParams,
};
use qmldb_bench::json::{host_record, merge_section, timing_record, Json};
use qmldb_bench::timing::{bench, group};
use qmldb_math::{par, Rng64};
use std::path::Path;

fn spin_glass(n: usize, density: f64, seed: u64) -> Ising {
    let mut rng = Rng64::new(seed);
    let mut couplings = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.chance(density) {
                couplings.push((i, j, rng.uniform_range(-1.0, 1.0)));
            }
        }
    }
    Ising::new(vec![0.0; n], couplings, 0.0)
}

fn dense_qubo(n: usize, seed: u64) -> Qubo {
    let mut rng = Rng64::new(seed);
    let mut q = Qubo::new(n);
    for i in 0..n {
        q.add_linear(i, rng.uniform_range(-1.0, 1.0));
        for j in (i + 1)..n {
            q.add(i, j, rng.uniform_range(-1.0, 1.0));
        }
    }
    q
}

/// The seed's SA sweep loop verbatim: every Metropolis proposal rescans
/// the neighbor list through `Ising::delta_flip` (O(degree) per
/// proposal). This is the baseline the field-cache engine is judged
/// against.
fn naive_sa_best(model: &Ising, sweeps: usize, rng: &mut Rng64) -> f64 {
    let scale = model.energy_scale();
    let t_start = SaParams::default().t_start_factor * scale;
    let t_end = SaParams::default().t_end_factor * scale;
    let cooling = (t_end / t_start).powf(1.0 / sweeps.max(2) as f64);
    let mut s: Vec<i8> = (0..model.n())
        .map(|_| if rng.chance(0.5) { 1 } else { -1 })
        .collect();
    let mut energy = model.energy(&s);
    let mut best = energy;
    let mut temp = t_start;
    for _ in 0..sweeps {
        for i in 0..model.n() {
            let d = model.delta_flip(&s, i);
            if d <= 0.0 || rng.chance((-d / temp).exp()) {
                s[i] = -s[i];
                energy += d;
                if energy < best {
                    best = energy;
                }
            }
        }
        temp *= cooling;
    }
    best
}

/// The seed's tabu iteration verbatim: all `n` candidate deltas are
/// recomputed per iteration through `Qubo::delta_energy` (O(n) each, so
/// O(n²) per flip on a dense instance).
fn naive_tabu_best(qubo: &Qubo, params: &TabuParams, rng: &mut Rng64) -> f64 {
    let n = qubo.n();
    let mut x: Vec<bool> = (0..n).map(|_| rng.chance(0.5)).collect();
    let mut energy = qubo.energy(&x);
    let mut run_best = energy;
    let mut tabu_until = vec![0usize; n];
    for it in 1..=params.iters {
        let mut chosen: Option<(usize, f64)> = None;
        for i in 0..n {
            let d = qubo.delta_energy(&x, i);
            let is_tabu = tabu_until[i] > it;
            if is_tabu && energy + d >= run_best - 1e-15 {
                continue;
            }
            match chosen {
                Some((_, dbest)) if d >= dbest => {}
                _ => chosen = Some((i, d)),
            }
        }
        let Some((i, d)) = chosen else { break };
        x[i] = !x[i];
        energy += d;
        tabu_until[i] = it + params.tenure;
        if energy < run_best {
            run_best = energy;
        }
    }
    run_best
}

/// A community-structured sparse QUBO with scattered variable indices:
/// ~`size`-variable communities with a handful of random internal
/// couplings per variable, weak links between neighbouring communities,
/// and a random global permutation of the variable names. The permutation
/// matters: production QUBOs (join graphs, conflict graphs) have cluster
/// structure but no reason to number each cluster contiguously, so a flat
/// solver pays scattered memory traffic the partitioner removes by
/// relabelling each shard into a compact local model.
fn community_qubo(communities: usize, size: usize, seed: u64) -> SparseQubo {
    let mut rng = Rng64::new(seed);
    let n = communities * size;
    let mut perm: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut perm);
    let mut linear = vec![0.0; n];
    let mut quad = Vec::new();
    for c in 0..communities {
        let base = c * size;
        for v in 0..size {
            linear[perm[base + v]] = rng.uniform_range(-1.0, 1.0);
            for _ in 0..4 {
                let u = rng.index(size);
                if u != v {
                    quad.push((perm[base + v], perm[base + u], rng.uniform_range(-1.0, 1.0)));
                }
            }
        }
        if c + 1 < communities {
            for _ in 0..4 {
                let a = perm[base + rng.index(size)];
                let b = perm[base + size + rng.index(size)];
                quad.push((a, b, rng.uniform_range(-0.25, 0.25)));
            }
        }
    }
    SparseQubo::from_terms(linear, quad, 0.0)
}

fn main() {
    let mut records = Vec::new();

    group("annealers_64spin_200sweeps");
    let model = spin_glass(64, 0.2, 1);
    let mut rng = Rng64::new(2);
    let t = bench("sa", 10, || {
        simulated_annealing(
            &model,
            &SaParams {
                sweeps: 200,
                restarts: 1,
                ..SaParams::default()
            },
            &mut rng,
        )
        .energy
    });
    records.push(timing_record("64spin/sa_200sweeps", &t, Some(200.0)));
    let mut rng = Rng64::new(2);
    let t = bench("sqa_16replicas", 10, || {
        simulated_quantum_annealing(
            &model,
            &SqaParams {
                sweeps: 200,
                replicas: 16,
                restarts: 1,
                ..SqaParams::default()
            },
            &mut rng,
        )
        .energy
    });
    records.push(timing_record(
        "64spin/sqa_16replicas_200sweeps",
        &t,
        Some(200.0),
    ));
    let mut rng = Rng64::new(2);
    let t = bench("parallel_tempering_8chains", 10, || {
        parallel_tempering(
            &model,
            &TemperingParams {
                sweeps: 200,
                chains: 8,
                ..TemperingParams::default()
            },
            &mut rng,
        )
        .energy
    });
    records.push(timing_record(
        "64spin/tempering_8chains_200sweeps",
        &t,
        Some(200.0),
    ));
    // These rows run at the default `par` width; the host is part of
    // the record.
    records.push(host_record());

    // The acceptance measurement: a 256-spin dense instance, 200 sweeps,
    // single-threaded, seed loop vs field-cache engine. Pinned to one
    // worker so restart-level parallelism cannot flatter either side.
    let mut fc_records = Vec::new();
    group("sa_naive_vs_field_cache_256spin_dense");
    par::set_threads(1);
    let sweeps = 200usize;
    let dense = spin_glass(256, 1.0, 7);

    let mut rng = Rng64::new(8);
    let naive = bench("naive_delta_flip_loop", 10, || {
        naive_sa_best(&dense, sweeps, &mut rng)
    });
    fc_records.push(timing_record(
        "sa256_dense/naive_delta_flip",
        &naive,
        Some(sweeps as f64),
    ));

    let mut rng = Rng64::new(8);
    let cached = bench("field_cache_engine", 10, || {
        simulated_annealing(
            &dense,
            &SaParams {
                sweeps,
                restarts: 1,
                ..SaParams::default()
            },
            &mut rng,
        )
        .energy
    });
    fc_records.push(timing_record(
        "sa256_dense/field_cache",
        &cached,
        Some(sweeps as f64),
    ));

    let sa_speedup = naive.median / cached.median;
    println!(
        "field-cache SA speedup over naive loop (median): {sa_speedup:.2}x  \
         ({:.0} vs {:.0} sweeps/s)",
        sweeps as f64 / cached.median,
        sweeps as f64 / naive.median,
    );
    fc_records.push(Json::Obj(vec![
        ("name".to_string(), Json::Str("sa256_dense/speedup".into())),
        ("speedup_median".to_string(), Json::Num(sa_speedup)),
        ("spins".to_string(), Json::Num(256.0)),
        ("density".to_string(), Json::Num(1.0)),
        ("sweeps".to_string(), Json::Num(sweeps as f64)),
    ]));

    // Tabu: naive O(n·deg) candidate recomputation vs incremental
    // best-delta maintenance (O(n + deg) per iteration).
    group("tabu_naive_vs_incremental_256var_dense");
    let qubo = dense_qubo(256, 9);
    let tabu_params = TabuParams {
        iters: 400,
        tenure: 10,
        restarts: 1,
    };

    let mut rng = Rng64::new(10);
    let naive_t = bench("naive_delta_energy_scan", 10, || {
        naive_tabu_best(&qubo, &tabu_params, &mut rng)
    });
    fc_records.push(timing_record(
        "tabu256_dense/naive_scan",
        &naive_t,
        Some(tabu_params.iters as f64),
    ));

    let mut rng = Rng64::new(10);
    let inc_t = bench("incremental_deltas", 10, || {
        qmldb_anneal::tabu_search(&qubo, &tabu_params, &mut rng).energy
    });
    fc_records.push(timing_record(
        "tabu256_dense/incremental",
        &inc_t,
        Some(tabu_params.iters as f64),
    ));

    let tabu_speedup = naive_t.median / inc_t.median;
    println!("incremental tabu speedup over naive scan (median): {tabu_speedup:.2}x");
    fc_records.push(Json::Obj(vec![
        (
            "name".to_string(),
            Json::Str("tabu256_dense/speedup".into()),
        ),
        ("speedup_median".to_string(), Json::Num(tabu_speedup)),
        ("vars".to_string(), Json::Num(256.0)),
        ("iters".to_string(), Json::Num(tabu_params.iters as f64)),
    ]));

    // The tentpole acceptance measurement: a 480 000-variable
    // community-structured QUBO, graph-partitioned shard annealing vs the
    // flat field-cache engine at an equal proposal budget, still pinned
    // to one worker so the partitioner's win is locality, not threads.
    let mut large_records = Vec::new();
    group("large_instances_sharded_vs_flat_480k");
    let big = community_qubo(8000, 60, 21);
    let model = big.to_ising();
    println!(
        "instance: {} vars, {} couplings",
        model.n(),
        model.couplings().len()
    );
    let sharded_params = ShardedParams {
        rounds: 10,
        sweeps_per_round: 12,
        ..ShardedParams::default()
    };
    let mut sharded_energy = 0.0;
    let mut sharded_proposals = 0u64;
    let mut n_shards = 0usize;
    let t_sharded = bench("sharded_anneal_2048var_shards", 3, || {
        let r = sharded_anneal(&model, &sharded_params, &mut Rng64::new(22));
        sharded_energy = r.energy;
        sharded_proposals = r.proposals;
        n_shards = r.n_shards;
        r.energy
    });
    large_records.push(timing_record(
        "large480k/sharded",
        &t_sharded,
        Some(sharded_proposals as f64),
    ));

    // Equal flip budget for the flat baseline: the same total number of
    // Metropolis proposals, spent as full-model sweeps.
    let flat_sweeps = (sharded_proposals as usize).div_ceil(model.n());
    let mut flat_energy = 0.0;
    let t_flat = bench("flat_field_cache_sa", 3, || {
        let r = simulated_annealing(
            &model,
            &SaParams {
                sweeps: flat_sweeps,
                restarts: 1,
                ..SaParams::default()
            },
            &mut Rng64::new(22),
        );
        flat_energy = r.energy;
        r.energy
    });
    let flat_proposals = (flat_sweeps * model.n()) as f64;
    large_records.push(timing_record(
        "large480k/flat_sa",
        &t_flat,
        Some(flat_proposals),
    ));

    let vars_per_sec_sharded = sharded_proposals as f64 / t_sharded.median;
    let vars_per_sec_flat = flat_proposals / t_flat.median;
    let large_speedup = vars_per_sec_sharded / vars_per_sec_flat;
    println!(
        "sharded vars/sec {:.3e} vs flat {:.3e}: {large_speedup:.2}x  \
         (energy {sharded_energy:.1} vs {flat_energy:.1}, {n_shards} shards)",
        vars_per_sec_sharded, vars_per_sec_flat,
    );
    large_records.push(Json::Obj(vec![
        (
            "name".to_string(),
            Json::Str("large480k/sharded_vs_flat".into()),
        ),
        ("vars".to_string(), Json::Num(model.n() as f64)),
        (
            "couplings".to_string(),
            Json::Num(model.couplings().len() as f64),
        ),
        ("n_shards".to_string(), Json::Num(n_shards as f64)),
        ("proposals".to_string(), Json::Num(sharded_proposals as f64)),
        (
            "vars_per_sec_sharded".to_string(),
            Json::Num(vars_per_sec_sharded),
        ),
        (
            "vars_per_sec_flat".to_string(),
            Json::Num(vars_per_sec_flat),
        ),
        ("speedup_median".to_string(), Json::Num(large_speedup)),
        ("energy_sharded".to_string(), Json::Num(sharded_energy)),
        ("energy_flat".to_string(), Json::Num(flat_energy)),
    ]));

    // Multi-threaded shard fan-out: the color classes inside each
    // exchange round dispatch through `par::map_rng`, so the same run at
    // 4 workers must land on the bit-identical energy (the repo-wide
    // determinism invariant) while spreading shard sweeps across
    // threads. On multi-core hosts the wall-clock column shows the
    // fan-out win; on the single-core CI runner the row still pins the
    // 1-vs-4-thread identity.
    group("large_instances_sharded_4threads");
    par::set_threads(4);
    let mut sharded_energy_t4 = 0.0;
    let t_sharded_t4 = bench("sharded_anneal_4threads", 3, || {
        let r = sharded_anneal(&model, &sharded_params, &mut Rng64::new(22));
        sharded_energy_t4 = r.energy;
        r.energy
    });
    par::set_threads(1);
    assert_eq!(
        sharded_energy.to_bits(),
        sharded_energy_t4.to_bits(),
        "sharded annealing must be bit-identical at 1 and 4 threads"
    );
    large_records.push(timing_record(
        "large480k/sharded_t4",
        &t_sharded_t4,
        Some(sharded_proposals as f64),
    ));
    let thread_scaling = t_sharded.median / t_sharded_t4.median;
    println!(
        "sharded 4-thread wall-clock ratio vs 1-thread: {thread_scaling:.2}x  \
         (energy bit-identical: {sharded_energy:.1})"
    );
    large_records.push(Json::Obj(vec![
        (
            "name".to_string(),
            Json::Str("large480k/sharded_thread_scaling".into()),
        ),
        ("threads_baseline".to_string(), Json::Num(1.0)),
        ("threads".to_string(), Json::Num(4.0)),
        ("median_s_t1".to_string(), Json::Num(t_sharded.median)),
        ("median_s_t4".to_string(), Json::Num(t_sharded_t4.median)),
        ("speedup_median".to_string(), Json::Num(thread_scaling)),
        (
            "energy_bit_identical".to_string(),
            Json::Bool(sharded_energy.to_bits() == sharded_energy_t4.to_bits()),
        ),
    ]));
    par::reset_threads();

    // Anchored to the workspace root, like BENCH_sim.json.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_anneal.json");
    merge_section(Path::new(out), "annealers", records);
    merge_section(Path::new(out), "naive_vs_field_cache", fc_records);
    merge_section(Path::new(out), "large_instances", large_records);
}
