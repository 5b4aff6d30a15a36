//! Domain-decomposition annealing: graph-partitioned shard solvers with
//! boundary-term exchange.
//!
//! The field-cache engine made a single SA sweep O(n + flips·deg), so at
//! 10⁵–10⁶ variables the ceiling is memory, not compute: one sweep
//! streams a multi-megabyte working set (fields, spins, CSR rows) through
//! DRAM, and every best-so-far snapshot copies the full spin vector. This
//! module restores locality by decomposition:
//!
//! 1. [`partition_graph`] — a deterministic multilevel partitioner over
//!    [`CsrAdjacency`]: greedy heavy-edge-matching coarsening, seeded
//!    region-growing initial assignment at the coarsest level, and
//!    KL/FM-style boundary refinement projected back level by level,
//!    minimizing the cut weight `Σ|J|` under a hard per-shard size cap.
//! 2. [`sharded_anneal`] — outer rounds of shard-local simulated
//!    annealing. Within a round every spin *outside* a shard is frozen;
//!    its cut-coupling contribution is folded into the shard's effective
//!    local fields (`h'ᵢ = hᵢ + Σ_{j∉shard} Jᵢⱼ·sⱼ`), so each shard is a
//!    self-contained L2-resident subproblem. Shards anneal in parallel
//!    via [`par::map_rng`] (per-shard streams forked serially → results
//!    bit-identical for any `QMLDB_THREADS`), commit serially in shard
//!    order, pass a deterministic greedy polish over the boundary
//!    vertices, and re-anchor to an exact global energy recompute.
//! 3. Embedding-aware sizing — [`embedding_shard_budget`] caps shard
//!    sizes at what the configured [`DeviceConfig`] Chimera fabric can
//!    minor-embed regardless of shard structure (the `C(m)` clique bound
//!    of `4m` logical variables), so every shard is a deployable
//!    per-device subproblem.
//!
//! The exact decomposition identity the property tests pin:
//! `E(s) = Σ_p E_internal(p) + Σ_cut Jᵢⱼsᵢsⱼ + offset`.

use crate::budget::{Budget, BudgetMeter};
use crate::csr::CsrAdjacency;
use crate::device::DeviceConfig;
use crate::field::IsingFields;
use crate::ising::Ising;
use crate::metropolis::Metropolis;
use qmldb_math::{par, Rng64};

/// Sentinel for "not yet assigned / not yet matched".
const NONE: u32 = u32::MAX;

// ---------------------------------------------------------------------------
// Partitioner
// ---------------------------------------------------------------------------

/// A disjoint split of a model's variables into shards, plus the
/// cross-shard couplings the shards exchange.
#[derive(Clone, Debug)]
pub struct Partition {
    /// `assignment[v]` = shard of variable `v`.
    assignment: Vec<u32>,
    /// Shard → its variables, ascending. Every variable appears in
    /// exactly one shard.
    shards: Vec<Vec<u32>>,
    /// Couplings whose endpoints live in different shards, `(i, j, w)`
    /// with `i < j` and `w` the original (signed) weight.
    cut_edges: Vec<(u32, u32, f64)>,
    /// Total cut magnitude `Σ|w|` — the partitioner's objective.
    cut_weight: f64,
}

impl Partition {
    /// Number of shards (all non-empty).
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard → sorted variable lists.
    pub fn shards(&self) -> &[Vec<u32>] {
        &self.shards
    }

    /// Variable → shard map.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Cross-shard couplings `(i, j, w)` with `i < j`.
    pub fn cut_edges(&self) -> &[(u32, u32, f64)] {
        &self.cut_edges
    }

    /// Total cut magnitude `Σ|w|`.
    pub fn cut_weight(&self) -> f64 {
        self.cut_weight
    }

    /// Largest shard size.
    pub fn max_shard_size(&self) -> usize {
        self.shards.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Sorted global indices of variables incident to a cut edge.
    pub fn boundary_vars(&self) -> Vec<u32> {
        let mut b: Vec<u32> = self
            .cut_edges
            .iter()
            .flat_map(|&(a, b, _)| [a, b])
            .collect();
        b.sort_unstable();
        b.dedup();
        b
    }

    /// Per-shard internal energies (fields of the shard's spins plus
    /// couplings with both endpoints inside) and the cut term
    /// `Σ_cut Jᵢⱼsᵢsⱼ`. The decomposition identity
    /// `model.energy(s) = Σ internal + cut + model.offset()` holds
    /// exactly — the property tests pin it to 1e-9.
    pub fn shard_energies(&self, model: &Ising, s: &[i8]) -> (Vec<f64>, f64) {
        assert_eq!(s.len(), self.assignment.len(), "spin count");
        let mut internal = vec![0.0f64; self.shards.len()];
        for (i, &hi) in model.fields().iter().enumerate() {
            internal[self.assignment[i] as usize] += hi * s[i] as f64;
        }
        let mut cut = 0.0;
        for &(a, b, j) in model.couplings() {
            let term = j * s[a] as f64 * s[b] as f64;
            if self.assignment[a] == self.assignment[b] {
                internal[self.assignment[a] as usize] += term;
            } else {
                cut += term;
            }
        }
        (internal, cut)
    }
}

/// One level of the multilevel hierarchy: the coarse graph (weights are
/// aggregated `|w|`), per-vertex weights in finest-level variables, and
/// the fine→coarse vertex map.
struct CoarseLevel {
    graph: CsrAdjacency,
    vw: Vec<usize>,
    fine_to_coarse: Vec<u32>,
}

/// Heavy-edge matching: visit vertices in `order`; match each unmatched
/// vertex with its unmatched neighbor of largest `|w|` (ties → smallest
/// index) unless the merged vertex would exceed `max_vw`. Returns the
/// coarse level, or `None` when matching stalls (< 5% shrink).
fn coarsen(
    graph: &CsrAdjacency,
    vw: &[usize],
    max_vw: usize,
    order: &[usize],
) -> Option<CoarseLevel> {
    let n = graph.n();
    let mut mate = vec![NONE; n];
    let mut matched_pairs = 0usize;
    for &v in order {
        if mate[v] != NONE {
            continue;
        }
        let mut best: Option<(f64, usize)> = None;
        for (u, w) in graph.iter_row(v) {
            if mate[u] != NONE || vw[v] + vw[u] > max_vw {
                continue;
            }
            let aw = w.abs();
            match best {
                Some((bw, bu)) if aw < bw || (aw == bw && u >= bu) => {}
                _ => best = Some((aw, u)),
            }
        }
        if let Some((_, u)) = best {
            mate[v] = u as u32;
            mate[u] = v as u32;
            matched_pairs += 1;
        } else {
            mate[v] = v as u32; // singleton
        }
    }
    let coarse_n = n - matched_pairs;
    if coarse_n * 20 > n * 19 {
        return None; // stalled
    }
    // Coarse ids in ascending order of each group's smallest member.
    let mut fine_to_coarse = vec![NONE; n];
    let mut next = 0u32;
    for v in 0..n {
        if fine_to_coarse[v] != NONE {
            continue;
        }
        fine_to_coarse[v] = next;
        let m = mate[v] as usize;
        if m != v {
            fine_to_coarse[m] = next;
        }
        next += 1;
    }
    let mut cvw = vec![0usize; coarse_n];
    for v in 0..n {
        cvw[fine_to_coarse[v] as usize] += vw[v];
    }
    // Aggregate |w| over coarse edge pairs: collect, sort, merge runs.
    let mut edges: Vec<(u32, u32, f64)> = Vec::new();
    for v in 0..n {
        let cv = fine_to_coarse[v];
        for (u, w) in graph.iter_row(v) {
            if u <= v {
                continue; // each fine edge once
            }
            let cu = fine_to_coarse[u];
            if cv != cu {
                let (a, b) = if cv < cu { (cv, cu) } else { (cu, cv) };
                edges.push((a, b, w.abs()));
            }
        }
    }
    edges.sort_unstable_by_key(|&(a, b, _)| (a, b));
    let mut merged: Vec<(usize, usize, f64)> = Vec::with_capacity(edges.len());
    for (a, b, w) in edges {
        match merged.last_mut() {
            Some(last) if last.0 == a as usize && last.1 == b as usize => last.2 += w,
            _ => merged.push((a as usize, b as usize, w)),
        }
    }
    Some(CoarseLevel {
        graph: CsrAdjacency::from_edges(coarse_n, &merged),
        vw: cvw,
        fine_to_coarse,
    })
}

/// Seeded region growing at the coarsest level: each shard starts from
/// the unassigned vertex with the strongest total incidence and absorbs
/// the unassigned vertex best-connected to it until the balance target is
/// reached; leftovers go to their best-connected shard with room.
fn initial_partition(graph: &CsrAdjacency, vw: &[usize], k: usize, cap: usize) -> Vec<u32> {
    let n = graph.n();
    let total: usize = vw.iter().sum();
    let target = total.div_ceil(k);
    let strength: Vec<f64> = (0..n)
        .map(|v| graph.iter_row(v).map(|(_, w)| w.abs()).sum())
        .collect();
    let mut asg = vec![NONE; n];
    let mut weight = vec![0usize; k];
    let mut conn = vec![0.0f64; n];
    for shard in 0..k as u32 {
        // Seed: strongest unassigned vertex (ties → smallest index).
        let mut seed: Option<usize> = None;
        for v in 0..n {
            if asg[v] == NONE && seed.is_none_or(|s| strength[v] > strength[s]) {
                seed = Some(v);
            }
        }
        let Some(seed) = seed else { break };
        conn.fill(0.0);
        fn grow(
            v: usize,
            shard: u32,
            vw: &[usize],
            graph: &CsrAdjacency,
            asg: &mut [u32],
            weight: &mut [usize],
            conn: &mut [f64],
        ) {
            asg[v] = shard;
            weight[shard as usize] += vw[v];
            for (u, w) in graph.iter_row(v) {
                if asg[u] == NONE {
                    conn[u] += w.abs();
                }
            }
        }
        grow(seed, shard, vw, graph, &mut asg, &mut weight, &mut conn);
        while weight[shard as usize] < target {
            // Best-connected unassigned vertex that fits under the cap.
            let mut pick: Option<usize> = None;
            for v in 0..n {
                if asg[v] == NONE
                    && conn[v] > 0.0
                    && weight[shard as usize] + vw[v] <= cap
                    && pick.is_none_or(|p| conn[v] > conn[p])
                {
                    pick = Some(v);
                }
            }
            let Some(v) = pick else { break };
            grow(v, shard, vw, graph, &mut asg, &mut weight, &mut conn);
        }
    }
    // Leftovers (isolated vertices, capped-out regions): best-connected
    // shard with room, else the lightest shard with room.
    for v in 0..n {
        if asg[v] != NONE {
            continue;
        }
        let mut shard_conn = vec![0.0f64; k];
        for (u, w) in graph.iter_row(v) {
            if asg[u] != NONE {
                shard_conn[asg[u] as usize] += w.abs();
            }
        }
        let mut pick: Option<usize> = None;
        for p in 0..k {
            if weight[p] + vw[v] > cap {
                continue;
            }
            pick = match pick {
                Some(q)
                    if (shard_conn[p], std::cmp::Reverse(weight[p]))
                        <= (shard_conn[q], std::cmp::Reverse(weight[q])) =>
                {
                    Some(q)
                }
                _ => Some(p),
            };
        }
        let p = pick.expect("cap × shard count admits every vertex");
        asg[v] = p as u32;
        weight[p] += vw[v];
    }
    asg
}

/// FM-style refinement: repeatedly move boundary vertices to the
/// neighboring shard they are most connected to, when the move strictly
/// reduces the cut and respects the cap. Vertices are visited in index
/// order — fully deterministic.
fn refine(
    graph: &CsrAdjacency,
    vw: &[usize],
    asg: &mut [u32],
    k: usize,
    cap: usize,
    passes: usize,
) {
    let n = graph.n();
    let mut weight = vec![0usize; k];
    for v in 0..n {
        weight[asg[v] as usize] += vw[v];
    }
    let mut conn = vec![0.0f64; k];
    let mut touched: Vec<u32> = Vec::new();
    for _ in 0..passes {
        let mut moved = false;
        for v in 0..n {
            let cur = asg[v] as usize;
            for (u, w) in graph.iter_row(v) {
                let p = asg[u];
                if conn[p as usize] == 0.0 {
                    touched.push(p);
                }
                conn[p as usize] += w.abs();
            }
            let mut best = cur;
            for &p in &touched {
                let p = p as usize;
                if p != cur
                    && weight[p] + vw[v] <= cap
                    && (conn[p] > conn[best] || (conn[p] == conn[best] && p < best && best != cur))
                {
                    // Strictly positive gain only; ties stay put.
                    if conn[p] > conn[cur] {
                        best = p;
                    }
                }
            }
            if best != cur {
                weight[cur] -= vw[v];
                weight[best] += vw[v];
                asg[v] = best as u32;
                moved = true;
            }
            for &p in &touched {
                conn[p as usize] = 0.0;
            }
            touched.clear();
        }
        if !moved {
            break;
        }
    }
}

/// Partitions the adjacency into shards of at most `max_shard_vars`
/// variables, minimizing the cut weight `Σ|w|` with a deterministic
/// multilevel scheme (greedy heavy-edge coarsening → seeded region
/// growing → FM-style refinement per level). Randomness only orders the
/// coarsening visits; two calls with equal-state `rng` produce identical
/// partitions, independent of `QMLDB_THREADS`.
pub fn partition_graph(
    adj: &CsrAdjacency,
    max_shard_vars: usize,
    refine_passes: usize,
    rng: &mut Rng64,
) -> Partition {
    let n = adj.n();
    assert!(n > 0, "empty graph");
    assert!(max_shard_vars > 0, "zero shard size");
    let cap = max_shard_vars;
    // Target 3/4 of the cap so growth, leftovers and refinement always
    // have room below the hard limit (see the fit argument in
    // `initial_partition`: vertex weights never exceed cap/4, so some
    // shard always has room).
    let target = (cap * 3 / 4).max(1);
    let k = n.div_ceil(target);
    if k == 1 {
        return finalize(adj, vec![0u32; n]);
    }

    // Coarsen until the graph is small, keeping vertices mergeable only
    // while they stay under a quarter of the cap.
    let max_vw = (cap / 4).max(1);
    let stop_at = (4 * k).max(256);
    let mut levels: Vec<CoarseLevel> = Vec::new();
    let mut vw = vec![1usize; n];
    loop {
        let (graph, cvw) = match levels.last() {
            Some(l) => (&l.graph, &l.vw),
            None => (adj, &vw),
        };
        if graph.n() <= stop_at {
            break;
        }
        let mut order: Vec<usize> = (0..graph.n()).collect();
        rng.shuffle(&mut order);
        match coarsen(graph, cvw, max_vw, &order) {
            Some(level) => levels.push(level),
            None => break,
        }
    }
    if let Some(l) = levels.last() {
        vw = l.vw.clone();
    }

    // Initial partition at the coarsest level, then refine and project
    // back up the hierarchy.
    let coarsest = levels.last().map(|l| &l.graph).unwrap_or(adj);
    let mut asg = initial_partition(coarsest, &vw, k, cap);
    refine(coarsest, &vw, &mut asg, k, cap, refine_passes);
    for li in (0..levels.len()).rev() {
        let (fine_graph, fine_vw): (&CsrAdjacency, Vec<usize>) = if li == 0 {
            (adj, vec![1usize; n])
        } else {
            (&levels[li - 1].graph, levels[li - 1].vw.clone())
        };
        let map = &levels[li].fine_to_coarse;
        let mut fine_asg: Vec<u32> = (0..fine_graph.n()).map(|v| asg[map[v] as usize]).collect();
        refine(fine_graph, &fine_vw, &mut fine_asg, k, cap, refine_passes);
        asg = fine_asg;
    }
    finalize(adj, asg)
}

/// Drops empty shards, renumbers, and extracts the cut.
fn finalize(adj: &CsrAdjacency, asg: Vec<u32>) -> Partition {
    let n = adj.n();
    let k = asg.iter().map(|&p| p as usize + 1).max().unwrap_or(1);
    let mut sizes = vec![0usize; k];
    for &p in &asg {
        sizes[p as usize] += 1;
    }
    let mut renumber = vec![NONE; k];
    let mut next = 0u32;
    for (p, &sz) in sizes.iter().enumerate() {
        if sz > 0 {
            renumber[p] = next;
            next += 1;
        }
    }
    let assignment: Vec<u32> = asg.iter().map(|&p| renumber[p as usize]).collect();
    let mut shards: Vec<Vec<u32>> = vec![Vec::new(); next as usize];
    for (v, &p) in assignment.iter().enumerate() {
        shards[p as usize].push(v as u32);
    }
    let mut cut_edges = Vec::new();
    let mut cut_weight = 0.0;
    for v in 0..n {
        for (u, w) in adj.iter_row(v) {
            if u > v && assignment[v] != assignment[u] {
                cut_edges.push((v as u32, u as u32, w));
                cut_weight += w.abs();
            }
        }
    }
    Partition {
        assignment,
        shards,
        cut_edges,
        cut_weight,
    }
}

// ---------------------------------------------------------------------------
// Embedding-aware sizing
// ---------------------------------------------------------------------------

/// Largest shard guaranteed minor-embeddable on the device's Chimera
/// fabric *regardless of shard structure*: the `C(m)` clique bound of
/// `4m` logical variables ([`crate::embed::clique_embedding`] rejects
/// anything larger). Sparse shards may embed beyond this, but the clique
/// bound is the only size every possible shard respects.
pub fn embedding_shard_budget(device: &DeviceConfig) -> usize {
    4 * device.fabric_m
}

// ---------------------------------------------------------------------------
// Sharded solver
// ---------------------------------------------------------------------------

/// Parameters of the partitioned annealer.
#[derive(Clone, Copy, Debug)]
pub struct ShardedParams {
    /// Hard cap on shard size (variables).
    pub max_shard_vars: usize,
    /// Outer exchange rounds (boundary contributions refresh between
    /// rounds; each ends with an exact global energy re-anchor).
    pub rounds: usize,
    /// SA sweeps each shard runs per round. The temperature schedule is
    /// one global geometric ramp over `rounds × sweeps_per_round` sweeps,
    /// sliced per round — not re-heated.
    pub sweeps_per_round: usize,
    /// Starting temperature as a multiple of the model's energy scale.
    pub t_start_factor: f64,
    /// Final temperature as a multiple of the energy scale.
    pub t_end_factor: f64,
    /// Partitioner refinement passes per level.
    pub refine_passes: usize,
    /// Serial greedy descent passes over boundary vertices after each
    /// round's commit (repairs cross-shard conflicts; proposals counted).
    pub polish_passes: usize,
}

impl Default for ShardedParams {
    fn default() -> Self {
        ShardedParams {
            max_shard_vars: 2048,
            rounds: 24,
            sweeps_per_round: 4,
            t_start_factor: 2.0,
            t_end_factor: 0.01,
            refine_passes: 4,
            polish_passes: 2,
        }
    }
}

impl ShardedParams {
    /// Sizes shards to the device's embedding budget
    /// ([`embedding_shard_budget`]), so every shard is deployable on the
    /// modeled hardware.
    pub fn for_device(device: &DeviceConfig) -> Self {
        ShardedParams {
            max_shard_vars: embedding_shard_budget(device),
            ..ShardedParams::default()
        }
    }
}

/// Result of a partitioned annealing run.
#[derive(Clone, Debug)]
pub struct ShardedResult {
    /// Best spin configuration seen (exact-energy re-anchored).
    pub spins: Vec<i8>,
    /// Its exact energy (`model.energy(&spins)`).
    pub energy: f64,
    /// Total spin-flip proposals (shard sweeps + boundary polish) — the
    /// budget the equal-flip-budget comparison equalizes on.
    pub proposals: u64,
    /// Number of shards.
    pub n_shards: usize,
    /// Cut weight `Σ|J|` of the partition.
    pub cut_weight: f64,
    /// Best exact energy after each round.
    pub trace: Vec<f64>,
    /// True when a [`Budget`] bound cut the run short of its full round
    /// schedule. The result is still the best re-anchored state seen.
    pub exhausted: bool,
}

/// One shard's local subproblem, renumbered to `0..len`.
struct Shard {
    /// Local → global variable ids (ascending).
    globals: Vec<u32>,
    /// Internal linear fields.
    h: Vec<f64>,
    /// Internal couplings in local ids.
    adj: CsrAdjacency,
    /// Cut couplings incident to this shard: `(local i, global j, w)`.
    ext: Vec<(u32, u32, f64)>,
}

fn build_shards(model: &Ising, partition: &Partition) -> Vec<Shard> {
    let n = model.n();
    let asg = partition.assignment();
    let mut local_of = vec![0u32; n];
    for shard in partition.shards() {
        for (pos, &g) in shard.iter().enumerate() {
            local_of[g as usize] = pos as u32;
        }
    }
    let adj = model.adjacency();
    partition
        .shards()
        .iter()
        .enumerate()
        .map(|(p, globals)| {
            let mut edges = Vec::new();
            let mut ext = Vec::new();
            for (pos, &g) in globals.iter().enumerate() {
                for (u, w) in adj.iter_row(g as usize) {
                    if asg[u] as usize == p {
                        if u > g as usize {
                            edges.push((pos, local_of[u] as usize, w));
                        }
                    } else {
                        ext.push((pos as u32, u as u32, w));
                    }
                }
            }
            Shard {
                h: globals
                    .iter()
                    .map(|&g| model.fields()[g as usize])
                    .collect(),
                adj: CsrAdjacency::from_edges(globals.len(), &edges),
                ext,
                globals: globals.clone(),
            }
        })
        .collect()
}

/// One round of shard-local SA: fold the frozen cross-shard spins into
/// effective fields, then run `sweeps` field-cache Metropolis sweeps on
/// the shard-resident arrays, ending with one greedy plateau pass.
/// Returns the walk's *end* state (not a best-so-far snapshot: the
/// random walk must carry across rounds or the schedule degenerates to
/// greedy descent — the outer loop's exact re-anchor does the
/// best-tracking) and the proposals consumed.
fn run_shard(
    shard: &Shard,
    s_global: &[i8],
    t0: f64,
    cooling: f64,
    sweeps: usize,
    quench: bool,
    rng: &mut Rng64,
) -> (Vec<i8>, u64) {
    let m = shard.globals.len();
    // Effective fields: internal h plus the frozen boundary exchange.
    let mut eff_h = shard.h.clone();
    for &(li, gj, w) in &shard.ext {
        eff_h[li as usize] += w * s_global[gj as usize] as f64;
    }
    // The shard continues from the committed global state.
    let mut ls: Vec<i8> = shard
        .globals
        .iter()
        .map(|&g| s_global[g as usize])
        .collect();
    let mut f: Vec<f64> = (0..m)
        .map(|i| {
            let mut fi = eff_h[i];
            for (j, w) in shard.adj.iter_row(i) {
                fi += w * ls[j] as f64;
            }
            fi
        })
        .collect();
    let mut proposals = 0u64;
    let metropolis = Metropolis::get();
    let mut temp = t0;
    for _ in 0..sweeps {
        let gate = metropolis.gate(temp);
        for i in 0..m {
            proposals += 1;
            let d = -2.0 * ls[i] as f64 * f[i];
            if gate.accept(d, rng) {
                ls[i] = -ls[i];
                let step = 2.0 * ls[i] as f64;
                let (targets, weights) = shard.adj.row(i);
                for (&j, &w) in targets.iter().zip(weights) {
                    f[j as usize] += step * w;
                }
            }
        }
        temp *= cooling;
    }
    // In the cold tail only: one deterministic greedy pass that also
    // accepts plateau (zero-delta) moves in ascending order. Strict
    // improvements are taken, and flat moves march degenerate domain
    // walls toward the shard edge, where the next round's neighbor
    // shard can annihilate them (chains of frozen-boundary ties
    // otherwise random-walk forever). During the hot phase the pass
    // stays off — quenching every round would collapse the Metropolis
    // walk before it equilibrates.
    if quench {
        for i in 0..m {
            proposals += 1;
            if -2.0 * ls[i] as f64 * f[i] <= 0.0 {
                ls[i] = -ls[i];
                let step = 2.0 * ls[i] as f64;
                let (targets, weights) = shard.adj.row(i);
                for (&j, &w) in targets.iter().zip(weights) {
                    f[j as usize] += step * w;
                }
            }
        }
    }
    (ls, proposals)
}

/// Runs partitioned annealing on an Ising model.
///
/// Per outer round: every shard anneals its own variables in parallel
/// against a frozen snapshot of the rest (boundary contributions folded
/// into effective fields), commits serially in shard order, a greedy
/// serial polish sweeps the boundary vertices, and the best state is
/// re-anchored to an exact `model.energy` recompute. RNG streams fork
/// serially (partitioner first, then one per shard per round), so the
/// result is bit-identical for any `QMLDB_THREADS`.
pub fn sharded_anneal(model: &Ising, params: &ShardedParams, rng: &mut Rng64) -> ShardedResult {
    sharded_anneal_with_budget(model, params, &Budget::unlimited(), rng)
}

/// [`sharded_anneal`] under a [`Budget`]. The bound is enforced at round
/// boundaries: a round starts only if its deterministic shard-sweep cost
/// (`n × sweeps_per_round`, plus `n` in the quench regime) still fits
/// the proposal bound, and deadline/cancel are polled there too. Block
/// flips and boundary polish are data-dependent follow-up work within a
/// committed round — they are recorded against the count but never split
/// a round, so proposal-bounded runs stay bit-identical for any thread
/// count (at the cost of a small, deterministic overshoot). The sweep
/// cap bounds `rounds × sweeps_per_round` in whole rounds. The
/// temperature schedule is untouched — budgets cut the schedule short,
/// they don't reshape it.
pub fn sharded_anneal_with_budget(
    model: &Ising,
    params: &ShardedParams,
    budget: &Budget,
    rng: &mut Rng64,
) -> ShardedResult {
    let n = model.n();
    assert!(n > 0, "empty model");
    assert!(
        params.rounds > 0 && params.sweeps_per_round > 0,
        "need at least one round and sweep"
    );
    let partition = partition_graph(
        model.adjacency(),
        params.max_shard_vars,
        params.refine_passes,
        rng,
    );
    let shards = build_shards(model, &partition);
    let boundary = partition.boundary_vars();
    // Chromatic schedule: greedily color the shard quotient graph so
    // shards in one class share no cut edge, then sweep the classes
    // sequentially within a round (same-class shards still run in
    // parallel). Each class anneals against the classes already
    // committed this round — Gauss–Seidel exchange, which converges
    // where a single synchronous commit per round oscillates (the
    // blinker cycles of parallel best-response on a ferromagnet).
    let color_groups: Vec<Vec<u32>> = {
        let k = partition.n_shards();
        let mut neighbors: Vec<Vec<u32>> = vec![Vec::new(); k];
        for &(a, b, _) in partition.cut_edges() {
            let (pa, pb) = (
                partition.assignment()[a as usize],
                partition.assignment()[b as usize],
            );
            neighbors[pa as usize].push(pb);
            neighbors[pb as usize].push(pa);
        }
        let mut color = vec![usize::MAX; k];
        let mut groups: Vec<Vec<u32>> = Vec::new();
        for p in 0..k {
            let mut used = vec![false; groups.len()];
            for &q in &neighbors[p] {
                if color[q as usize] != usize::MAX {
                    used[color[q as usize]] = true;
                }
            }
            let c = used.iter().position(|&u| !u).unwrap_or_else(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            color[p] = c;
            groups[c].push(p as u32);
        }
        groups
    };

    let scale = model.energy_scale();
    let t_start = params.t_start_factor * scale;
    let t_end = params.t_end_factor * scale;
    let total_sweeps = params.rounds * params.sweeps_per_round;
    let cooling = (t_end / t_start).powf(1.0 / total_sweeps.max(2) as f64);
    let mut meter = BudgetMeter::new(budget);
    // The sweep cap cuts in whole rounds: a partial round never runs.
    let rounds = meter.sweep_cap(total_sweeps) / params.sweeps_per_round;

    let mut s: Vec<i8> = (0..n)
        .map(|_| if rng.chance(0.5) { 1 } else { -1 })
        .collect();
    let mut best = s.clone();
    let mut best_e = model.energy(&s);
    let mut trace = Vec::with_capacity(rounds);
    let mut round_t = t_start;

    for _ in 0..rounds {
        let t0 = round_t;
        // The deterministic greedy machinery (plateau passes, shard
        // block flips, boundary polish) only engages once the schedule
        // has cooled into the quench regime — running it every round
        // would collapse the Metropolis walk before it equilibrates.
        let quench = t0 <= 0.05 * scale;
        // Every variable lives in exactly one shard, so the round's
        // shard-sweep cost is exact before dispatch; refuse the round
        // whole if it no longer fits, and poll deadline/cancel here.
        let round_cost = (n * params.sweeps_per_round + if quench { n } else { 0 }) as u64;
        if meter.interrupted() || !meter.try_consume(round_cost) {
            break;
        }
        for group in &color_groups {
            let frozen = &s;
            let runs = par::map_rng(group, rng, |_, &p, stream| {
                run_shard(
                    &shards[p as usize],
                    frozen,
                    t0,
                    cooling,
                    params.sweeps_per_round,
                    quench,
                    stream,
                )
            });
            // Serial commit in shard order within the class. The shard
            // proposals were pre-charged as this round's cost.
            for (&p, (ls, _)) in group.iter().zip(runs) {
                for (pos, &g) in shards[p as usize].globals.iter().enumerate() {
                    s[g as usize] = ls[pos];
                }
            }
        }
        // Block moves: flipping an entire shard leaves its internal
        // couplings invariant, so the exact global delta needs only the
        // shard's fields and cut edges (`ΔE = -2·(Σhᵢsᵢ + Σ_cut Jss)`).
        // Greedy sequential passes annihilate whole misaligned shards —
        // the decomposition failure mode single-spin polish cannot fix.
        let mut flipped = quench;
        while flipped {
            flipped = false;
            for shard in &shards {
                meter.record(1);
                let mut contrib = 0.0;
                for (pos, &g) in shard.globals.iter().enumerate() {
                    contrib += shard.h[pos] * s[g as usize] as f64;
                }
                for &(li, gj, w) in &shard.ext {
                    let gi = shard.globals[li as usize] as usize;
                    contrib += w * s[gi] as f64 * s[gj as usize] as f64;
                }
                if contrib > 0.0 {
                    for &g in &shard.globals {
                        s[g as usize] = -s[g as usize];
                    }
                    flipped = true;
                }
            }
        }
        // Boundary polish: deterministic greedy descent over the cut
        // vertices, repairing conflicts the independent commits created.
        if quench && params.polish_passes > 0 && !boundary.is_empty() {
            let mut fields = IsingFields::new(model, &s);
            for _ in 0..params.polish_passes {
                let mut improved = false;
                for &v in &boundary {
                    meter.record(1);
                    if fields.delta_flip(&s, v as usize) < 0.0 {
                        fields.apply_flip(model, &mut s, v as usize);
                        improved = true;
                    }
                }
                if !improved {
                    break;
                }
            }
        }
        // Exact re-anchor: the round's outcome is scored by a full
        // energy recompute, never by accumulated deltas.
        let e = model.energy(&s);
        if e < best_e {
            best_e = e;
            best = s.clone();
        }
        trace.push(best_e);
        round_t *= cooling.powi(params.sweeps_per_round as i32);
    }

    ShardedResult {
        spins: best,
        energy: best_e,
        proposals: meter.used(),
        n_shards: partition.n_shards(),
        cut_weight: partition.cut_weight(),
        trace,
        exhausted: meter.exhausted(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embed::{clique_embedding, Chimera};
    use crate::ising::spins_to_bits;
    use crate::sparse::SparseQubo;

    fn banded_glass(n: usize, band: usize, rng: &mut Rng64) -> Ising {
        let mut couplings = Vec::new();
        for i in 0..n {
            for d in 1..=band {
                if i + d < n && rng.chance(0.6) {
                    couplings.push((i, i + d, rng.uniform_range(-1.0, 1.0)));
                }
            }
        }
        let h: Vec<f64> = (0..n).map(|_| rng.uniform_range(-0.5, 0.5)).collect();
        Ising::new(h, couplings, rng.uniform_range(-1.0, 1.0))
    }

    #[test]
    fn every_variable_lands_in_exactly_one_shard() {
        let mut rng = Rng64::new(71);
        let m = banded_glass(300, 3, &mut rng);
        let p = partition_graph(m.adjacency(), 64, 4, &mut rng);
        let mut seen = vec![0usize; 300];
        for shard in p.shards() {
            for &v in shard {
                seen[v as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
        for (v, &shard) in p.assignment().iter().enumerate() {
            assert!(p.shards()[shard as usize].contains(&(v as u32)));
        }
        assert!(p.max_shard_size() <= 64);
        assert!(p.n_shards() >= 2);
    }

    #[test]
    fn budget_cuts_rounds_deterministically() {
        let mut rng = Rng64::new(83);
        let m = banded_glass(200, 3, &mut rng);
        let p = ShardedParams {
            max_shard_vars: 64,
            rounds: 24,
            sweeps_per_round: 4,
            ..ShardedParams::default()
        };

        // A sweep cap of 8 = exactly 2 whole rounds.
        let r = sharded_anneal_with_budget(&m, &p, &Budget::sweeps(8), &mut Rng64::new(85));
        assert_eq!(r.trace.len(), 2);
        assert!(r.exhausted);
        assert!((m.energy(&r.spins) - r.energy).abs() < 1e-9);

        // Fewer budgeted sweeps than one round: zero rounds run, and the
        // initial random state comes back anchored with an empty trace.
        let cut = sharded_anneal_with_budget(&m, &p, &Budget::sweeps(3), &mut Rng64::new(85));
        assert!(cut.trace.is_empty());
        assert!(cut.exhausted);
        assert!((m.energy(&cut.spins) - cut.energy).abs() < 1e-9);

        // A round costs 200 × 4 = 800 proposals pre-quench; a bound of
        // 1000 runs round one whole and refuses round two.
        let tight =
            sharded_anneal_with_budget(&m, &p, &Budget::proposals(1000), &mut Rng64::new(85));
        assert_eq!(tight.proposals, 800);
        assert_eq!(tight.trace.len(), 1);
        assert!(tight.exhausted);

        // A roomy budget is bit-identical to the unbudgeted path.
        let plain = sharded_anneal(&m, &p, &mut Rng64::new(87));
        let roomy =
            sharded_anneal_with_budget(&m, &p, &Budget::proposals(u64::MAX), &mut Rng64::new(87));
        assert_eq!(plain.energy.to_bits(), roomy.energy.to_bits());
        assert_eq!(plain.spins, roomy.spins);
        assert_eq!(plain.proposals, roomy.proposals);
        assert!(!roomy.exhausted);
    }

    #[test]
    fn shard_energies_reconstruct_global_energy() {
        let mut rng = Rng64::new(73);
        let m = banded_glass(200, 4, &mut rng);
        let p = partition_graph(m.adjacency(), 48, 3, &mut rng);
        for _ in 0..10 {
            let s: Vec<i8> = (0..200)
                .map(|_| if rng.chance(0.5) { 1 } else { -1 })
                .collect();
            let (internal, cut) = p.shard_energies(&m, &s);
            let sum: f64 = internal.iter().sum::<f64>() + cut + m.offset();
            assert!((sum - m.energy(&s)).abs() < 1e-9);
        }
    }

    #[test]
    fn partitioner_prefers_the_weak_links() {
        // Two dense 16-var cliques joined by one weak edge: the cut must
        // be the bridge, not a clique interior.
        let mut couplings = Vec::new();
        for base in [0usize, 16] {
            for i in 0..16 {
                for j in (i + 1)..16 {
                    couplings.push((base + i, base + j, -1.0));
                }
            }
        }
        couplings.push((7, 23, 0.05));
        let m = Ising::new(vec![0.0; 32], couplings, 0.0);
        let mut rng = Rng64::new(75);
        let p = partition_graph(m.adjacency(), 16, 4, &mut rng);
        assert_eq!(p.n_shards(), 2);
        assert_eq!(p.cut_edges().len(), 1);
        assert!((p.cut_weight() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn partitioner_is_deterministic_for_a_seed() {
        let mut rng = Rng64::new(77);
        let m = banded_glass(400, 3, &mut rng);
        let p1 = partition_graph(m.adjacency(), 50, 4, &mut Rng64::new(5));
        let p2 = partition_graph(m.adjacency(), 50, 4, &mut Rng64::new(5));
        assert_eq!(p1.assignment(), p2.assignment());
        assert_eq!(p1.cut_edges(), p2.cut_edges());
    }

    #[test]
    fn single_shard_when_the_model_fits() {
        let mut rng = Rng64::new(79);
        let m = banded_glass(40, 2, &mut rng);
        let p = partition_graph(m.adjacency(), 64, 4, &mut rng);
        assert_eq!(p.n_shards(), 1);
        assert!(p.cut_edges().is_empty());
        assert_eq!(p.cut_weight(), 0.0);
    }

    #[test]
    fn embedding_budget_matches_the_clique_bound() {
        for m in 1..=4 {
            let device = DeviceConfig {
                fabric_m: m,
                ..DeviceConfig::default()
            };
            let budget = embedding_shard_budget(&device);
            assert_eq!(budget, 4 * m);
            let fabric = Chimera::new(m);
            assert!(clique_embedding(budget, &fabric).is_some());
            assert!(clique_embedding(budget + 1, &fabric).is_none());
        }
    }

    #[test]
    fn device_sized_shards_respect_the_qubit_budget() {
        let device = DeviceConfig::default(); // C(4): 16-var budget
        let params = ShardedParams::for_device(&device);
        assert_eq!(params.max_shard_vars, 16);
        let mut rng = Rng64::new(81);
        let m = banded_glass(120, 2, &mut rng);
        let p = partition_graph(m.adjacency(), params.max_shard_vars, 4, &mut rng);
        let fabric = Chimera::new(device.fabric_m);
        for shard in p.shards() {
            assert!(shard.len() <= 16);
            assert!(clique_embedding(shard.len(), &fabric).is_some());
        }
    }

    #[test]
    fn sharded_anneal_solves_a_ferromagnetic_chain() {
        // 96-spin ferromagnetic chain split across ~6 shards: boundary
        // exchange + polish must align the domains to the ground state.
        let m = Ising::new(
            vec![0.0; 96],
            (0..95).map(|i| (i, i + 1, -1.0)).collect(),
            0.0,
        );
        let mut rng = Rng64::new(83);
        let r = sharded_anneal(
            &m,
            &ShardedParams {
                max_shard_vars: 16,
                rounds: 80,
                sweeps_per_round: 5,
                ..ShardedParams::default()
            },
            &mut rng,
        );
        assert!(
            (r.energy + 95.0).abs() < 1e-12,
            "ground -95, got {}",
            r.energy
        );
        assert!(r.n_shards >= 4);
    }

    #[test]
    fn sharded_matches_brute_force_on_a_small_glass() {
        let mut rng = Rng64::new(85);
        let m = banded_glass(18, 3, &mut rng);
        let (_, exact) = m.brute_force_ground();
        let r = sharded_anneal(
            &m,
            &ShardedParams {
                max_shard_vars: 6,
                rounds: 60,
                sweeps_per_round: 8,
                ..ShardedParams::default()
            },
            &mut rng,
        );
        assert!(
            (r.energy - exact).abs() < 1e-9,
            "sharded {} vs exact {exact}",
            r.energy
        );
    }

    #[test]
    fn reported_energy_matches_reported_spins_exactly() {
        let mut rng = Rng64::new(87);
        let m = banded_glass(150, 3, &mut rng);
        let r = sharded_anneal(
            &m,
            &ShardedParams {
                max_shard_vars: 32,
                rounds: 4,
                sweeps_per_round: 4,
                ..ShardedParams::default()
            },
            &mut rng,
        );
        assert_eq!(r.energy.to_bits(), m.energy(&r.spins).to_bits());
        assert!(r.proposals > 0);
        for w in r.trace.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "trace must be non-increasing");
        }
    }

    #[test]
    fn qubo_entry_point_round_trips() {
        let mut rng = Rng64::new(89);
        let linear: Vec<f64> = (0..60).map(|_| rng.uniform_range(-1.0, 1.0)).collect();
        let mut quad = Vec::new();
        for i in 0..59usize {
            quad.push((i, i + 1, rng.uniform_range(-1.0, 1.0)));
        }
        let q = SparseQubo::from_terms(linear, quad, 0.3);
        let r = sharded_anneal(
            &q.to_ising(),
            &ShardedParams {
                max_shard_vars: 16,
                rounds: 6,
                sweeps_per_round: 10,
                ..ShardedParams::default()
            },
            &mut rng,
        );
        let bits = spins_to_bits(&r.spins);
        assert_eq!(bits.len(), 60);
        assert!((q.energy(&bits) - r.energy).abs() < 1e-9);
    }
}
