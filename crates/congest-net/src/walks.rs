//! Random walks and mixing-time estimation.
//!
//! `QuantumRWLE` (Section 5.2) replaces the neighbourhood exploration of the
//! complete-graph protocol by Θ(τ)-length random walks, where τ is the mixing
//! time of the network. This module provides:
//!
//! * walk stepping, both with a live RNG and with a *pre-committed* choice
//!   sequence (the paper's protocol requires the walk initiator to fix and
//!   propagate its random choices in advance, because part of Grover search
//!   is centralised — see Section 5.2),
//! * spectral-gap estimation of the lazy random walk by power iteration,
//! * mixing-time estimates, both spectral (`O(log n / gap)`) and exact
//!   total-variation for small graphs,
//! * exact lazy-walk hit probabilities for many start nodes at once
//!   ([`lazy_walk_hit_probabilities`]), which `QuantumRWLE` uses for the
//!   marked fraction of every candidate's Grover search. It pushes blocks of
//!   distributions through a flat adjacency table, and each result is
//!   bit-identical to a single-start propagation.
//!
//! Both exact propagations share one lazy-walk push loop.

use rand::rngs::StdRng;
use rand::Rng;

use crate::graph::{Graph, NodeId};

/// Performs a single step of the simple random walk from `v` using `rng`.
///
/// # Panics
///
/// Panics if `v` has no neighbours (impossible in a connected graph with
/// `n >= 2`).
#[must_use]
pub fn walk_step(graph: &Graph, v: NodeId, rng: &mut StdRng) -> NodeId {
    graph.neighbor(v, rng.gen_range(0..graph.degree(v)))
}

/// Runs a `length`-step simple random walk from `start`, returning the full
/// trajectory (`length + 1` nodes, starting with `start`).
#[must_use]
pub fn random_walk(graph: &Graph, start: NodeId, length: usize, rng: &mut StdRng) -> Vec<NodeId> {
    let mut path = Vec::with_capacity(length + 1);
    let mut here = start;
    path.push(here);
    for _ in 0..length {
        here = walk_step(graph, here, rng);
        path.push(here);
    }
    path
}

/// The walk determined by a *pre-committed* sequence of random choices: at a
/// node of degree `d`, choice `c` selects the neighbour at port `c mod d`.
///
/// This is how `QuantumRWLE` delegates its walks: the initiator samples the
/// choice sequence once (so the whole walk is a deterministic function the
/// initiator can re-evaluate in superposition inside Grover search) and the
/// sequence is forwarded along the walk itself, at a cost of `O(τ)` messages
/// carrying `O(log n)` bits each per hop — the τ² blow-up discussed in
/// Section 5.2.
#[must_use]
pub fn walk_from_choices(graph: &Graph, start: NodeId, choices: &[u64]) -> Vec<NodeId> {
    let mut path = Vec::with_capacity(choices.len() + 1);
    let mut here = start;
    path.push(here);
    for &c in choices {
        let degree = graph.degree(here);
        here = graph.neighbor(here, (c % degree as u64) as usize);
        path.push(here);
    }
    path
}

/// Estimates the spectral gap `δ = 1 - λ₂` of the **lazy** random walk
/// `P' = (I + P)/2` on `graph`, by power iteration in the π-weighted inner
/// product (deflating the stationary eigenvector).
///
/// The lazy walk is aperiodic, so `λ₂ ∈ [0, 1)` and the estimate is a valid
/// input for [`spectral_mixing_time`]. `iterations` around 200 is plenty for
/// the graph sizes used in this workspace.
#[must_use]
pub fn spectral_gap(graph: &Graph, iterations: usize) -> f64 {
    let n = graph.node_count();
    if n <= 1 {
        return 1.0;
    }
    let pi = graph.stationary_distribution();
    // Start from a deterministic but unstructured vector (a fixed linear
    // congruential sequence), so the start has overlap with the second
    // eigenvector for every graph; a structured start such as an alternating
    // ±1 vector can be an exact eigenvector of a *different* eigenvalue (it
    // is on even cycles) and would trap the iteration.
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut x: Vec<f64> = (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect();
    deflate(&mut x, &pi);
    normalize(&mut x, &pi);
    let mut eigenvalue = 0.0;
    // Double-buffered power iteration: `y` is reused every round, so the
    // whole loop performs no allocation after this point.
    let mut y = vec![0.0; n];
    for _ in 0..iterations {
        apply_lazy_walk_into(graph, &x, &mut y);
        deflate(&mut y, &pi);
        eigenvalue = pi_dot(&y, &x, &pi);
        let norm = pi_norm(&y, &pi);
        if norm < 1e-300 {
            // x was (numerically) in the span of π: the chain mixes in one step.
            return 1.0;
        }
        for value in &mut y {
            *value /= norm;
        }
        std::mem::swap(&mut x, &mut y);
    }
    (1.0 - eigenvalue.abs()).clamp(1e-12, 1.0)
}

/// Spectral upper estimate of the ε-mixing time: `τ ≈ ln(n/ε) / δ` for the
/// lazy walk, with `δ` estimated by [`spectral_gap`].
#[must_use]
pub fn spectral_mixing_time(graph: &Graph, epsilon: f64) -> usize {
    let n = graph.node_count().max(2) as f64;
    let gap = spectral_gap(graph, 200);
    ((n / epsilon.max(1e-9)).ln() / gap).ceil().max(1.0) as usize
}

/// Exact total-variation ε-mixing time of the lazy walk, computed by
/// propagating the distribution from every start node (cost `O(n · m · τ)`,
/// intended for small validation graphs only).
///
/// Returns `max_t` if the chain has not mixed within `max_t` steps.
#[must_use]
pub fn total_variation_mixing_time(graph: &Graph, epsilon: f64, max_t: usize) -> usize {
    let n = graph.node_count();
    let pi = graph.stationary_distribution();
    let adjacency = FlatAdjacency::new(graph);
    let mut worst = 0;
    // One pair of distribution buffers reused across all n starts.
    let mut dist = vec![0.0; n];
    let mut next = vec![0.0; n];
    for start in 0..n {
        dist.fill(0.0);
        dist[start] = 1.0;
        let mut t = 0;
        while t < max_t {
            let tv: f64 = 0.5
                * dist
                    .iter()
                    .zip(&pi)
                    .map(|(a, b)| (a - b).abs())
                    .sum::<f64>();
            if tv <= epsilon {
                break;
            }
            push_lazy_step::<1>(&adjacency, &dist, &mut next);
            std::mem::swap(&mut dist, &mut next);
            t += 1;
        }
        worst = worst.max(t);
    }
    worst
}

/// Applies the lazy walk operator to a function on vertices, writing
/// `(P'f)(v)` into `out` (reused by callers to avoid per-iteration
/// allocation).
fn apply_lazy_walk_into(graph: &Graph, f: &[f64], out: &mut [f64]) {
    for v in 0..graph.node_count() {
        let degree = graph.degree(v);
        let avg: f64 = graph.neighbors(v).map(|u| f[u]).sum::<f64>() / degree as f64;
        out[v] = 0.5 * f[v] + 0.5 * avg;
    }
}

/// How many distributions [`lazy_walk_hit_probabilities`] propagates side by
/// side: wide enough that each adjacency read feeds a vector of adds, small
/// enough that a block's two buffers stay cache-resident.
const BLOCK: usize = 8;

/// For each `i`, the probability that a `length`-step lazy walk from
/// `starts[i]` ends at a node `v` with `is_marked(i, v)`, by exact
/// distribution propagation.
///
/// The starts are propagated eight at a time (a block `B`) through
/// node-major buffers (`dist[v * B + j]` is column `j`'s mass at `v`) over a
/// flat copy of the adjacency, so every neighbour read serves a whole block
/// and implicit graphs resolve each port once per call rather than once per
/// step and start. Extra memory is `O(n · B + m)`, whatever `starts.len()`
/// is.
///
/// Every column performs exactly the floating-point operations of a
/// single-start push propagation — contributions to each node in ascending
/// source order with the self term `0.5 · mass` at its own position,
/// `share = 0.5 · mass / deg`, then an ascending sum over the marked nodes —
/// so each result is bit-identical to propagating its start alone.
#[must_use]
pub fn lazy_walk_hit_probabilities(
    graph: &Graph,
    starts: &[NodeId],
    length: usize,
    is_marked: impl Fn(usize, NodeId) -> bool,
) -> Vec<f64> {
    let n = graph.node_count();
    let adjacency = FlatAdjacency::new(graph);
    let mut dist = vec![0.0; n * BLOCK];
    let mut next = vec![0.0; n * BLOCK];
    let mut hits = Vec::with_capacity(starts.len());
    for block in starts.chunks(BLOCK) {
        dist.fill(0.0);
        for (j, &start) in block.iter().enumerate() {
            dist[start * BLOCK + j] = 1.0;
        }
        for _ in 0..length {
            push_lazy_step::<BLOCK>(&adjacency, &dist, &mut next);
            std::mem::swap(&mut dist, &mut next);
        }
        for j in 0..block.len() {
            let i = hits.len();
            hits.push(
                (0..n)
                    .filter(|&v| is_marked(i, v))
                    .map(|v| dist[v * BLOCK + j])
                    .sum(),
            );
        }
    }
    hits
}

/// A graph's adjacency copied into flat `offsets`/`targets` arrays in port
/// order, so propagation loops read neighbours from memory on both backends.
struct FlatAdjacency {
    /// `targets[offsets[v]..offsets[v + 1]]` are `v`'s neighbours.
    offsets: Vec<usize>,
    targets: Vec<NodeId>,
}

impl FlatAdjacency {
    fn new(graph: &Graph) -> Self {
        let n = graph.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(graph.directed_edge_count());
        offsets.push(0);
        for v in 0..n {
            targets.extend(graph.neighbors(v));
            offsets.push(targets.len());
        }
        FlatAdjacency { offsets, targets }
    }
}

/// Pushes `W` probability distributions, stored node-major (`dist[v * W + j]`
/// is column `j`'s mass at `v`), one step through the lazy walk, writing into
/// `out`. This is the workspace's one lazy-walk push loop.
///
/// Per column the operations are those of the plain single-distribution push:
/// sources in ascending order, each adding `0.5 · mass` to itself and
/// `0.5 · mass / deg` to every neighbour in port order. A source whose `W`
/// masses are all zero would add only `+0.0` to non-negative values, so it is
/// skipped.
fn push_lazy_step<const W: usize>(adjacency: &FlatAdjacency, dist: &[f64], out: &mut [f64]) {
    out.fill(0.0);
    for (v, bounds) in adjacency.offsets.windows(2).enumerate() {
        let mass: &[f64; W] = dist[v * W..(v + 1) * W].try_into().expect("W columns");
        if mass.iter().all(|&m| m == 0.0) {
            continue;
        }
        let neighbors = &adjacency.targets[bounds[0]..bounds[1]];
        let degree = neighbors.len() as f64;
        let own: &mut [f64; W] = (&mut out[v * W..(v + 1) * W])
            .try_into()
            .expect("W columns");
        let mut share = [0.0; W];
        for j in 0..W {
            own[j] += 0.5 * mass[j];
            share[j] = 0.5 * mass[j] / degree;
        }
        for &u in neighbors {
            let row: &mut [f64; W] = (&mut out[u * W..(u + 1) * W])
                .try_into()
                .expect("W columns");
            for j in 0..W {
                row[j] += share[j];
            }
        }
    }
}

fn pi_dot(a: &[f64], b: &[f64], pi: &[f64]) -> f64 {
    a.iter().zip(b).zip(pi).map(|((x, y), w)| x * y * w).sum()
}

fn pi_norm(a: &[f64], pi: &[f64]) -> f64 {
    pi_dot(a, a, pi).sqrt()
}

fn deflate(x: &mut [f64], pi: &[f64]) {
    // Remove the component along the constant function (the top eigenvector
    // in the π-weighted inner product): ⟨x, 1⟩_π / ⟨1, 1⟩_π, where
    // ⟨1, 1⟩_π = Σ π(v) = 1.
    let coeff: f64 = x.iter().zip(pi).map(|(v, w)| v * w).sum();
    for value in x.iter_mut() {
        *value -= coeff;
    }
}

fn normalize(x: &mut [f64], pi: &[f64]) {
    let norm = pi_norm(x, pi);
    if norm > 0.0 {
        for value in x.iter_mut() {
            *value /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;
    use proptest::prelude::*;
    use rand::SeedableRng;

    /// The single-start propagation that [`lazy_walk_hit_probabilities`]
    /// replaced, kept verbatim as its bit-identity oracle.
    fn walk_hit_probability(
        graph: &Graph,
        start: NodeId,
        length: usize,
        is_marked: impl Fn(NodeId) -> bool,
    ) -> f64 {
        let n = graph.node_count();
        let mut dist = vec![0.0f64; n];
        dist[start] = 1.0;
        for _ in 0..length {
            let mut next = vec![0.0f64; n];
            for v in 0..n {
                let mass = dist[v];
                if mass == 0.0 {
                    continue;
                }
                next[v] += 0.5 * mass;
                let share = 0.5 * mass / graph.degree(v) as f64;
                for u in graph.neighbors(v) {
                    next[u] += share;
                }
            }
            dist = next;
        }
        (0..n).filter(|&v| is_marked(v)).map(|v| dist[v]).sum()
    }

    /// A connected irregular CSR graph from `from_edges`: a random tree plus
    /// random chords.
    fn random_from_edges(n: usize, rng: &mut StdRng) -> Graph {
        let mut edges: Vec<(NodeId, NodeId)> = (1..n).map(|v| (rng.gen_range(0..v), v)).collect();
        for _ in 0..n {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            let (u, v) = (u.min(v), u.max(v));
            if u != v && !edges.iter().any(|&(a, b)| (a.min(b), a.max(b)) == (u, v)) {
                edges.push((u, v));
            }
        }
        Graph::from_edges(n, &edges).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn blocked_hit_probabilities_are_bit_identical_to_single_start(
            size in 0usize..12,
            seed in 0u64..10_000,
            length in 0usize..41,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let graphs = [
                // The pairing construction can fail; the next seed will do.
                (seed..)
                    .find_map(|s| topology::random_regular(2 * size + 8, 3 + size % 3, s).ok())
                    .unwrap(),
                random_from_edges(size + 3, &mut rng),
                topology::hypercube(1 + size as u32 % 5).unwrap(),
                topology::cycle(size + 3).unwrap(),
                topology::torus(3 + size % 3, 3 + size / 3).unwrap(),
                topology::complete(size + 2).unwrap(),
            ];
            for graph in &graphs {
                let n = graph.node_count();
                // Node values in 1..=n against thresholds in 0..=n+1: threshold
                // 0 marks every node and n + 1 marks none.
                let values: Vec<usize> = (0..n).map(|_| rng.gen_range(1..n + 1)).collect();
                for count in [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3] {
                    let mut starts: Vec<NodeId> = (0..count).map(|_| rng.gen_range(0..n)).collect();
                    let mut thresholds: Vec<usize> =
                        (0..count).map(|_| rng.gen_range(0..n + 2)).collect();
                    if count > 1 {
                        starts[count - 1] = starts[0];
                        thresholds[0] = 0;
                        thresholds[count - 1] = n + 1;
                    }
                    let marked = |i: usize, v: NodeId| values[v] > thresholds[i];
                    let blocked = lazy_walk_hit_probabilities(graph, &starts, length, marked);
                    prop_assert_eq!(blocked.len(), count);
                    for (i, &hit) in blocked.iter().enumerate() {
                        let oracle = walk_hit_probability(graph, starts[i], length, |v| marked(i, v));
                        prop_assert_eq!(
                            hit.to_bits(),
                            oracle.to_bits(),
                            "column {} of {} (start {}, n = {}, implicit = {})",
                            i, count, starts[i], n, graph.is_implicit()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn walk_stays_on_graph() {
        let graph = topology::cycle(12).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let path = random_walk(&graph, 3, 50, &mut rng);
        assert_eq!(path.len(), 51);
        for pair in path.windows(2) {
            assert!(graph.are_adjacent(pair[0], pair[1]));
        }
    }

    #[test]
    fn walk_from_choices_is_deterministic() {
        let graph = topology::hypercube(4).unwrap();
        let choices: Vec<u64> = (0..10).map(|i| i * 7 + 3).collect();
        let a = walk_from_choices(&graph, 0, &choices);
        let b = walk_from_choices(&graph, 0, &choices);
        assert_eq!(a, b);
        assert_eq!(a.len(), 11);
        for pair in a.windows(2) {
            assert!(graph.are_adjacent(pair[0], pair[1]));
        }
    }

    #[test]
    fn complete_graph_has_large_gap() {
        let graph = topology::complete(32).unwrap();
        let gap = spectral_gap(&graph, 300);
        // Lazy walk on K_n has gap 0.5 + O(1/n).
        assert!(gap > 0.4, "gap = {gap}");
    }

    #[test]
    fn cycle_has_small_gap() {
        let big_cycle = spectral_gap(&topology::cycle(64).unwrap(), 600);
        let small_cycle = spectral_gap(&topology::cycle(8).unwrap(), 600);
        assert!(big_cycle < small_cycle);
        assert!(big_cycle < 0.05, "gap = {big_cycle}");
    }

    #[test]
    fn hypercube_mixes_polylogarithmically() {
        let graph = topology::hypercube(6).unwrap(); // 64 nodes
        let tau = spectral_mixing_time(&graph, 0.25);
        assert!(tau <= 80, "tau = {tau}");
        assert!(tau >= 3);
    }

    #[test]
    fn spectral_and_tv_mixing_agree_in_order() {
        let graph = topology::hypercube(4).unwrap(); // 16 nodes
        let tv = total_variation_mixing_time(&graph, 0.25, 1000);
        let spectral = spectral_mixing_time(&graph, 0.25);
        assert!(tv <= spectral * 4 + 4, "tv = {tv}, spectral = {spectral}");
        assert!(spectral <= tv * 20 + 20, "tv = {tv}, spectral = {spectral}");
    }

    #[test]
    fn barbell_mixes_slowly() {
        let barbell = topology::barbell(8, 1).unwrap();
        let expander =
            topology::random_regular(17, 4, 3).unwrap_or_else(|_| topology::complete(17).unwrap());
        let tau_barbell = total_variation_mixing_time(&barbell, 0.25, 4000);
        let tau_expander = total_variation_mixing_time(&expander, 0.25, 4000);
        assert!(
            tau_barbell > tau_expander * 2,
            "barbell {tau_barbell} vs expander {tau_expander}"
        );
    }
}
