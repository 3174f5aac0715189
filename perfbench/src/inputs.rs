//! Seeded input generation. Every input a workload feeds the program —
//! protocol seeds, flood sources, the expander seed, fault plans and the
//! scenario text — is derived here from the workload seed, so the same
//! seed always gives the same inputs.

use std::fmt::Write;

/// Input variants per run. A run cycles through them, so each timing
/// median covers several inputs and every variant met twice is a repeat
/// check.
pub const SLOTS: usize = 12;

/// Problem sizes: `Full` is what the benchmark measures, `Tiny` is for the
/// benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured sizes.
    Full,
    /// Smallest sizes that still exercise every code path.
    Tiny,
}

/// SplitMix64: a small deterministic generator for inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` of input `slot` under the workload `seed`.
    #[must_use]
    pub fn new(seed: u64, stream: &str, slot: usize) -> Self {
        // FNV-1a over the stream name keeps streams independent.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        let mut rng = Rng(seed ^ h ^ (slot as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `lo..hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    /// An index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// `paper-le` inputs: the protocol seeds of each slot.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperLeInputs {
    /// `log2` of the complete graph's size.
    pub complete_log2: u32,
    /// The hypercube dimension.
    pub hypercube_dim: u32,
    /// The clique-of-cliques side.
    pub cliques: usize,
    /// `seeds[slot][i]` seeds protocol `i` of the pass.
    pub seeds: Vec<[u64; 6]>,
}

impl PaperLeInputs {
    /// Generates the inputs for `seed`.
    #[must_use]
    pub fn generate(seed: u64, scale: Scale) -> Self {
        let (complete_log2, hypercube_dim, cliques) = match scale {
            Scale::Full => (14, 11, 16),
            Scale::Tiny => (6, 5, 4),
        };
        let seeds = (0..SLOTS)
            .map(|slot| {
                let mut rng = Rng::new(seed, "paper-le", slot);
                std::array::from_fn(|_| rng.next_u64() >> 1)
            })
            .collect();
        PaperLeInputs {
            complete_log2,
            hypercube_dim,
            cliques,
            seeds,
        }
    }
}

/// Flood sources on the cycle, evenly spaced: a flood on `C_n` then takes
/// `n / 8 + 1` rounds instead of `n / 2 + 1`, so a run holds four times
/// as many floods, while a round still scans all `n` nodes.
pub const CYCLE_SOURCES: usize = 4;

/// `sparse-flood` inputs: a cycle and the flood sources of each slot.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseFloodInputs {
    /// Nodes on the cycle.
    pub n: usize,
    /// The [`CYCLE_SOURCES`] flood sources of each slot: a seeded first
    /// source and the nodes `n / CYCLE_SOURCES` apart from it.
    pub sources: Vec<Vec<usize>>,
}

impl SparseFloodInputs {
    /// Generates the inputs for `seed`.
    #[must_use]
    pub fn generate(seed: u64, scale: Scale) -> Self {
        let n = match scale {
            Scale::Full => 1 << 14,
            Scale::Tiny => 64,
        };
        let spacing = n / CYCLE_SOURCES;
        let sources = (0..SLOTS)
            .map(|slot| {
                let first = Rng::new(seed, "sparse-flood", slot).below(spacing);
                (0..CYCLE_SOURCES).map(|i| first + i * spacing).collect()
            })
            .collect();
        SparseFloodInputs { n, sources }
    }
}

/// `dense-flood` inputs, per slot: a hypercube source, the expander's
/// generator seed, and the expander floods' sources.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseFloodInputs {
    /// The hypercube dimension.
    pub hypercube_dim: u32,
    /// Nodes in the expander.
    pub expander_n: usize,
    /// The expander's degree.
    pub expander_degree: usize,
    /// Per slot: the hypercube flood's source.
    pub hypercube_sources: Vec<usize>,
    /// Per slot: the expander's generator seed.
    pub expander_seeds: Vec<u64>,
    /// Per slot: the expander floods' sources.
    pub expander_sources: Vec<Vec<usize>>,
}

/// Expander floods per pass: a hypercube flood costs several expander
/// floods, so a pass has more samples of the short kind.
pub const EXPANDER_FLOODS: usize = 3;

impl DenseFloodInputs {
    /// Generates the inputs for `seed`.
    #[must_use]
    pub fn generate(seed: u64, scale: Scale) -> Self {
        let (hypercube_dim, expander_n) = match scale {
            Scale::Full => (18, 1 << 16),
            Scale::Tiny => (6, 128),
        };
        let mut inputs = DenseFloodInputs {
            hypercube_dim,
            expander_n,
            expander_degree: 8,
            hypercube_sources: Vec::new(),
            expander_seeds: Vec::new(),
            expander_sources: Vec::new(),
        };
        for slot in 0..SLOTS {
            let mut rng = Rng::new(seed, "dense-flood", slot);
            inputs.hypercube_sources.push(rng.below(1 << hypercube_dim));
            inputs.expander_seeds.push(rng.next_u64() >> 1);
            inputs.expander_sources.push(
                (0..EXPANDER_FLOODS)
                    .map(|_| rng.below(expander_n))
                    .collect(),
            );
        }
        inputs
    }
}

/// `fault-sweep` inputs: one generated `.scn` text per slot.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSweepInputs {
    /// The scenario text of each slot.
    pub texts: Vec<String>,
}

/// Scenario sizes of the fault sweep.
struct SweepSizes {
    torus_side: usize,
    hypercube_n: usize,
    expander_n: usize,
    ghs_side: usize,
    seeds: usize,
}

impl FaultSweepInputs {
    /// Generates the inputs for `seed`.
    #[must_use]
    pub fn generate(seed: u64, scale: Scale) -> Self {
        let sizes = match scale {
            Scale::Full => SweepSizes {
                torus_side: 48,
                hypercube_n: 1024,
                expander_n: 4096,
                ghs_side: 32,
                seeds: 4,
            },
            Scale::Tiny => SweepSizes {
                torus_side: 6,
                hypercube_n: 16,
                expander_n: 32,
                ghs_side: 4,
                seeds: 1,
            },
        };
        let texts = (0..SLOTS)
            .map(|slot| sweep_text(&mut Rng::new(seed, "fault-sweep", slot), &sizes))
            .collect();
        FaultSweepInputs { texts }
    }
}

/// One slot's scenario file: flood-ft under drop, latency, outage and
/// crash-recovery faults on a torus; flood-bft under Byzantine windows and
/// the frontier adversary on a hypercube; event-mode flood under the
/// latency-skew and worst-case schedulers on an expander; ghs-le with drops
/// on a torus and an expander.
fn sweep_text(rng: &mut Rng, s: &SweepSizes) -> String {
    let side = s.torus_side;
    let torus_n = side * side;
    let mut out = String::new();
    let scenario = |out: &mut String, rng: &mut Rng, name: &str, head: &str, faults: &str| {
        let seeds: Vec<String> = (0..s.seeds)
            .map(|_| rng.range(1, 1 << 30).to_string())
            .collect();
        writeln!(
            out,
            "[scenario]\nname = \"{name}\"\n{head}seeds = [{}]",
            seeds.join(", ")
        )
        .expect("writing to a String cannot fail");
        if !faults.is_empty() {
            writeln!(
                out,
                "\n[faults]\nseed = {}\n{faults}",
                rng.range(1, 1 << 30)
            )
            .expect("writing to a String cannot fail");
        }
        out.push('\n');
    };
    // A torus link: node and its right-hand neighbour on the same row.
    let link = |rng: &mut Rng| {
        let v = rng.below(torus_n);
        (v, v - v % side + (v % side + 1) % side)
    };
    let torus = format!(
        "topology = \"torus\"\nprotocol = \"flood-ft\"\nsizes = [{torus_n}]\nmax_rounds = 2000\n"
    );

    let drop = format!("drop = {:.3}\n", rng.range(20, 80) as f64 / 1000.0);
    scenario(&mut out, rng, "ft-torus-drop", &torus, &drop);
    let mut latency = String::new();
    for _ in 0..4 {
        let (a, b) = link(rng);
        writeln!(latency, "latency = [{a}, {b}, {}]", rng.range(1, 5)).expect("String write");
    }
    scenario(&mut out, rng, "ft-torus-latency", &torus, &latency);
    let mut outage = String::new();
    for _ in 0..4 {
        let (a, b) = link(rng);
        let from = rng.range(0, 8);
        writeln!(
            outage,
            "outage = [{a}, {b}, {from}, {}]",
            from + rng.range(4, 20)
        )
        .expect("String write");
    }
    scenario(&mut out, rng, "ft-torus-outage", &torus, &outage);
    let mut recover = String::new();
    for _ in 0..3 {
        let from = rng.range(1, 10);
        writeln!(
            recover,
            "recover = [{}, {from}, {}]",
            rng.below(torus_n),
            from + rng.range(3, 15)
        )
        .expect("String write");
    }
    scenario(&mut out, rng, "ft-torus-recover", &torus, &recover);

    let cube = format!(
        "topology = \"hypercube\"\nprotocol = \"flood-bft\"\nsizes = [{}]\nmax_rounds = 2000\n",
        s.hypercube_n
    );
    let mut byzantine = String::new();
    for _ in 0..2 {
        let from = rng.range(0, 4);
        writeln!(
            byzantine,
            "byzantine = [{}, {from}, {}]",
            rng.below(s.hypercube_n),
            from + rng.range(2, 6)
        )
        .expect("String write");
    }
    scenario(&mut out, rng, "bft-cube-byzantine", &cube, &byzantine);
    let adversary = format!("adversary = {}\n", rng.range(1, 4));
    scenario(&mut out, rng, "bft-cube-adversary", &cube, &adversary);

    let expander = |kind: &str, bound: u64, sched_seed: u64| {
        format!(
            "topology = \"expander\"\ndegree = 6\nprotocol = \"flood\"\nsizes = [{}]\nmax_rounds = 2000\nmode = \"event\"\nscheduler = [\"{kind}\", {bound}, {sched_seed}]\n",
            s.expander_n
        )
    };
    let skew = expander("latency-skew", rng.range(2, 5), rng.range(1, 1 << 30));
    scenario(&mut out, rng, "event-expander-skew", &skew, "");
    let worst = expander("worst-case", rng.range(1, 4), 0);
    scenario(&mut out, rng, "event-expander-worst", &worst, "");

    let ghs_n = s.ghs_side * s.ghs_side;
    let ghs = format!("topology = \"torus\"\nprotocol = \"ghs-le\"\nsizes = [{ghs_n}]\n");
    let drop = format!("drop = {:.3}\n", rng.range(5, 30) as f64 / 1000.0);
    scenario(&mut out, rng, "ghs-torus-drop", &ghs, &drop);
    let ghs =
        format!("topology = \"expander\"\ndegree = 4\nprotocol = \"ghs-le\"\nsizes = [{ghs_n}]\n");
    let drop = format!("drop = {:.3}\n", rng.range(5, 30) as f64 / 1000.0);
    scenario(&mut out, rng, "ghs-expander-drop", &ghs, &drop);
    out
}
