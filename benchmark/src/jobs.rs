//! The workloads: which programs a pass runs, under which backend, in
//! which order.
//!
//! The seed permutes the job order within each pass and replaces the
//! Lorenz program with `lorenz::workload_seeded(Size::S, seed)` (seed 0 is
//! the paper's initial condition). The other programs have fixed builders.

use fpvm_workloads::{
    enzo_like, fbench, lorenz, miniaero, nas_cg, nas_ep, nas_is, nas_lu, nas_mg, three_body, Size,
    Workload,
};

/// The arithmetic backend a workload virtualizes onto.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `Vanilla`: IEEE doubles re-implemented in software.
    Vanilla,
    /// `BigFloatCtx::new(200)`: the paper's configuration.
    BigFloat200,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// All ten programs at size S under BigFloat@200.
    PaperBf200,
    /// FBench, Lorenz, Three-Body, miniAero and Enzo under Vanilla.
    VanillaTrapdense,
    /// NAS IS, EP, CG, MG and LU under Vanilla.
    VanillaInterp,
}

/// A program of the suite, by short key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prog {
    Fbench,
    Lorenz,
    ThreeBody,
    MiniAero,
    NasIs,
    NasEp,
    NasCg,
    NasMg,
    NasLu,
    Enzo,
}

impl Prog {
    /// Short key used in digests, spans and reports.
    pub fn key(self) -> &'static str {
        match self {
            Prog::Fbench => "fbench",
            Prog::Lorenz => "lorenz",
            Prog::ThreeBody => "three_body",
            Prog::MiniAero => "miniaero",
            Prog::NasIs => "nas_is",
            Prog::NasEp => "nas_ep",
            Prog::NasCg => "nas_cg",
            Prog::NasMg => "nas_mg",
            Prog::NasLu => "nas_lu",
            Prog::Enzo => "enzo",
        }
    }

    /// Build the program at size S; only Lorenz depends on the seed.
    pub fn build(self, seed: u64) -> Workload {
        let s = Size::S;
        match self {
            Prog::Fbench => fbench::workload(s),
            Prog::Lorenz => lorenz::workload_seeded(s, seed),
            Prog::ThreeBody => three_body::workload(s),
            Prog::MiniAero => miniaero::workload(s),
            Prog::NasIs => nas_is::workload(s),
            Prog::NasEp => nas_ep::workload(s),
            Prog::NasCg => nas_cg::workload(s),
            Prog::NasMg => nas_mg::workload(s),
            Prog::NasLu => nas_lu::workload(s),
            Prog::Enzo => enzo_like::workload(s),
        }
    }
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [
        Kind::PaperBf200,
        Kind::VanillaTrapdense,
        Kind::VanillaInterp,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperBf200 => "paper-bf200",
            Kind::VanillaTrapdense => "vanilla-trapdense",
            Kind::VanillaInterp => "vanilla-interp",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The backend every job of the workload runs on.
    pub fn backend(self) -> Backend {
        match self {
            Kind::PaperBf200 => Backend::BigFloat200,
            Kind::VanillaTrapdense | Kind::VanillaInterp => Backend::Vanilla,
        }
    }

    /// The programs of one pass, in the paper's Fig. 12 order.
    pub fn programs(self) -> &'static [Prog] {
        use Prog::*;
        match self {
            Kind::PaperBf200 => &[
                Fbench, Lorenz, ThreeBody, MiniAero, NasIs, NasEp, NasCg, NasMg, NasLu, Enzo,
            ],
            Kind::VanillaTrapdense => &[Fbench, Lorenz, ThreeBody, MiniAero, Enzo],
            Kind::VanillaInterp => &[NasIs, NasEp, NasCg, NasMg, NasLu],
        }
    }
}

/// SplitMix64: a tiny, well-mixed generator for the job order.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The job order of pass `pass` (a permutation of `0..n`): a pure function
/// of the seed and the pass index.
pub fn pass_order(seed: u64, pass: u64, n: usize) -> Vec<usize> {
    let mut state = seed ^ pass.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}
