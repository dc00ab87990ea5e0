//! Seeded input generation. Everything a workload feeds the program — the
//! kernel order of each suite pass, the serving hot set, the SELECT/PING
//! request sequence and the edited modules — is a pure function of the
//! `--seed` argument and the checked-in kernels.
//!
//! The generator is the benchmark's own (splitmix64), not a library
//! helper, so a change to the program cannot change the inputs it is
//! measured on.

use cayman::ir::instr::{Imm, Instr, Operand};
use cayman::ir::Module;
use cayman::workloads::{Suite, Workload};

/// Kernels in the serving hot set: below the server's 64-entry framework
/// LRU, so every warm request is a framework-cache hit.
pub const HOT_SET: usize = 16;

/// About one request in this many is a PING on `serve-warm`.
pub const PING_EVERY: u64 = 8;

/// Step of a float-immediate edit: the `k`-th edit of one site adds
/// `k × 0.5`, so the first edit of a site is exactly
/// `cayman_bench::diff::single_instr_edit`'s `v + 0.5`.
const EDIT_STEP: f64 = 0.5;

/// splitmix64.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed.
    pub fn stream(seed: u64, tag: u64, index: u64) -> Rng {
        let mut r = Rng(seed ^ tag.wrapping_mul(0xA24B_AED4_963E_E407));
        r.0 ^= r.next_u64() ^ index.wrapping_mul(0x9FB2_1C65_1E98_DF25);
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

const TAG_ORDER: u64 = 1;
const TAG_WARM: u64 = 3;
const TAG_EDIT: u64 = 4;

/// One benchmark kernel: its registry entry (name, input fills) and the
/// module text the benchmark hands the program.
pub struct Kernel {
    pub workload: Workload,
    pub text: String,
}

/// The 132 kernels: the 28 Table II benchmarks (with their input images)
/// followed by the 104 text-corpus kernels, each rendered to module text.
pub fn load_kernels() -> Vec<Kernel> {
    cayman::workloads::full()
        .into_iter()
        .map(|w| Kernel {
            text: w.module.to_text(),
            workload: w,
        })
        .collect()
}

/// The kernel order of suite pass `pass`: a seeded permutation of `0..n`.
pub fn suite_order(seed: u64, pass: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::stream(seed, TAG_ORDER, pass).shuffle(&mut order);
    order
}

/// The serving hot set: the 16 PolyBench kernels of Table II, hottest
/// first in Table II order. The set and its skew are fixed so that every
/// seed samples the same traffic mix; the seed orders the requests.
pub fn hot_set(kernels: &[Kernel]) -> Vec<usize> {
    let hot: Vec<usize> = kernels
        .iter()
        .enumerate()
        .filter(|(_, k)| k.workload.suite == Suite::PolyBench)
        .map(|(i, _)| i)
        .collect();
    assert_eq!(hot.len(), HOT_SET, "PolyBench has 16 kernels");
    hot
}

/// One `serve-warm` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmReq {
    Ping,
    /// SELECT of the hot-set kernel at this rank.
    Select(usize),
}

/// The request sequence of one `serve-warm` client: about one PING in
/// [`PING_EVERY`], otherwise a SELECT whose hot-set rank is drawn with
/// Zipf(1) weights (rank `r` has weight `1 / (r + 1)`).
pub struct WarmStream {
    rng: Rng,
    cdf: Vec<f64>,
}

impl WarmStream {
    pub fn new(seed: u64, client: u64, hot: usize) -> WarmStream {
        let weights: Vec<f64> = (0..hot).map(|r| 1.0 / (r + 1) as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        WarmStream {
            rng: Rng::stream(seed, TAG_WARM, client),
            cdf,
        }
    }

    pub fn next_req(&mut self) -> WarmReq {
        if self.rng.next_u64().is_multiple_of(PING_EVERY) {
            return WarmReq::Ping;
        }
        let u = self.rng.unit();
        let rank = self.cdf.iter().position(|&c| u < c);
        WarmReq::Select(rank.unwrap_or(self.cdf.len() - 1))
    }
}

/// A float-immediate operand slot: (function, instruction, value slot).
pub type Site = (usize, usize, usize);

/// The value-only operand slots of an instruction — never pointers,
/// indices or conditions, so nudging a float immediate keeps the module
/// verifiable and terminating (the rule of
/// `cayman_bench::diff::single_instr_edit`).
fn value_slots(instr: &mut Instr) -> Vec<&mut Operand> {
    match instr {
        Instr::Binary { lhs, rhs, .. } => vec![lhs, rhs],
        Instr::Unary { val, .. } => vec![val],
        Instr::Select {
            then_val, else_val, ..
        } => vec![then_val, else_val],
        Instr::Store { value, .. } => vec![value],
        Instr::Phi { incomings, .. } => incomings.iter_mut().map(|(_, v)| v).collect(),
        Instr::Call { args, .. } => args.iter_mut().collect(),
        _ => Vec::new(),
    }
}

/// Every float-immediate value slot of a module, in a stable order.
pub fn edit_sites(m: &Module) -> Vec<Site> {
    let mut sites = Vec::new();
    for (fi, func) in m.functions.iter().enumerate() {
        let mut probe = func.clone();
        for (ii, instr) in probe.instrs.iter_mut().enumerate() {
            for (oi, op) in value_slots(instr).into_iter().enumerate() {
                if matches!(op, Operand::Const(Imm::Float(_))) {
                    sites.push((fi, ii, oi));
                }
            }
        }
    }
    sites
}

/// `m` with the float immediate at `site` raised by `steps × 0.5`.
pub fn apply_edit(m: &Module, (fi, ii, oi): Site, steps: u32) -> Module {
    let mut out = m.clone();
    let slot = &mut value_slots(&mut out.functions[fi].instrs[ii])[oi];
    if let Operand::Const(Imm::Float(v)) = **slot {
        **slot = Operand::float(v + EDIT_STEP * f64::from(steps));
    }
    out
}

/// One `serve-edits` module: which kernel, which site, how many steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EditSpec {
    pub kernel: usize,
    pub site: Site,
    pub steps: u32,
}

/// The edit-eligible kernels: every kernel with at least one site.
pub struct EditBase {
    /// (kernel index, its parsed module, its sites).
    eligible: Vec<(usize, Module, Vec<Site>)>,
}

impl EditBase {
    pub fn new(kernels: &[Kernel]) -> EditBase {
        let eligible = kernels
            .iter()
            .enumerate()
            .filter_map(|(i, k)| {
                let m = Module::parse_text(&k.text).expect("kernel text parses");
                let sites = edit_sites(&m);
                (!sites.is_empty()).then_some((i, m, sites))
            })
            .collect();
        EditBase { eligible }
    }

    /// Number of kernels with an edit site.
    pub fn eligible(&self) -> usize {
        self.eligible.len()
    }

    /// The module text of a spec drawn from this base.
    pub fn render(&self, spec: EditSpec) -> String {
        let (_, m, _) = self
            .eligible
            .iter()
            .find(|(k, _, _)| *k == spec.kernel)
            .expect("spec names an eligible kernel");
        apply_edit(m, spec.site, spec.steps).to_text()
    }
}

/// The edit sequence of `serve-edits`. Each draw picks a seeded
/// edit-eligible kernel and a seeded site of it; a site drawn before gets
/// one more step than last time, so no two specs — and no two module
/// texts — are equal.
pub struct EditSeq {
    rng: Rng,
    uses: std::collections::HashMap<(usize, Site), u32>,
}

impl EditSeq {
    pub fn new(seed: u64) -> EditSeq {
        EditSeq {
            rng: Rng::stream(seed, TAG_EDIT, 0),
            uses: Default::default(),
        }
    }

    pub fn next_spec(&mut self, base: &EditBase) -> EditSpec {
        let (kernel, _, sites) = &base.eligible[self.rng.below(base.eligible.len())];
        let site = sites[self.rng.below(sites.len())];
        let steps = self.uses.entry((*kernel, site)).or_insert(0);
        *steps += 1;
        EditSpec {
            kernel: *kernel,
            site,
            steps: *steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every input the program would receive from `seed`, serialised.
    fn inputs(seed: u64, kernels: &[Kernel]) -> Vec<u8> {
        let mut out = Vec::new();
        for pass in 0..3 {
            for i in suite_order(seed, pass, kernels.len()) {
                out.extend_from_slice(kernels[i].text.as_bytes());
            }
        }
        let hot = hot_set(kernels);
        for client in 0..2 {
            let mut s = WarmStream::new(seed, client, hot.len());
            for _ in 0..500 {
                out.extend_from_slice(format!("{:?};", s.next_req()).as_bytes());
            }
        }
        let base = EditBase::new(kernels);
        let mut edits = EditSeq::new(seed);
        for _ in 0..40 {
            let spec = edits.next_spec(&base);
            out.extend_from_slice(base.render(spec).as_bytes());
        }
        out
    }

    #[test]
    fn one_seed_gives_identical_inputs_and_two_seeds_differ() {
        let kernels = load_kernels();
        assert_eq!(kernels.len(), 132);
        let a = inputs(7, &kernels);
        assert_eq!(a, inputs(7, &kernels), "same seed, same bytes");
        assert_ne!(a, inputs(8, &kernels), "different seeds differ");
        assert_ne!(suite_order(7, 0, 132), suite_order(8, 0, 132));
    }

    #[test]
    fn edited_modules_are_new_and_verify() {
        let kernels = load_kernels();
        let base = EditBase::new(&kernels);
        let mut edits = EditSeq::new(3);
        assert_eq!(base.eligible(), 120, "edit-eligible kernels");
        let mut seen: std::collections::HashSet<String> =
            kernels.iter().map(|k| k.text.clone()).collect();
        for _ in 0..300 {
            let spec = edits.next_spec(&base);
            let text = base.render(spec);
            let m = Module::parse_text(&text).expect("edited text parses");
            m.verify().expect("edited module verifies");
            assert!(seen.insert(text), "{spec:?} repeats a module");
        }
    }

    #[test]
    fn warm_stream_is_skewed_with_pings() {
        let mut s = WarmStream::new(1, 0, HOT_SET);
        let mut counts = [0usize; HOT_SET];
        let mut pings = 0;
        for _ in 0..16_000 {
            match s.next_req() {
                WarmReq::Ping => pings += 1,
                WarmReq::Select(r) => counts[r] += 1,
            }
        }
        assert!((1_500..2_500).contains(&pings), "{pings} pings");
        assert!(counts[0] > 3 * counts[HOT_SET - 1], "{counts:?}");
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    }
}
