//! Output checks. Every output is reduced to a canonical byte encoding of
//! its deterministic fields only — f64 values as their bits, no timings, no
//! thread counts — and compared against an expectation that does not come
//! from the run being measured: a digest file checked in next to the
//! benchmark (`suite-cold`), the independent tree-walking interpreter
//! (`Interp::reference`), or an in-process `Framework` built outside the
//! timed window (`serve-*`).

use cayman::ir::interp::{ExecProfile, Interp, Memory, Value};
use cayman::{BudgetReport, Framework, Solution};

/// FNV-1a, 64 bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn put(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f(out: &mut Vec<u8>, v: f64) {
    put(out, v.to_bits());
}

/// Canonical bytes of a Pareto front: every solution's area and saving,
/// and every selected kernel's vertex and accelerator design.
pub fn encode_front(out: &mut Vec<u8>, front: &[Solution]) {
    put(out, front.len() as u64);
    for sol in front {
        put_f(out, sol.area);
        put_f(out, sol.saved_seconds);
        put(out, sol.kernels.len() as u64);
        for k in &sol.kernels {
            let d = &k.design;
            put(out, u64::from(k.node.0));
            put(out, u64::from(d.func.0));
            put(out, d.blocks.len() as u64);
            for b in &d.blocks {
                put(out, u64::from(b.0));
            }
            put(out, u64::from(d.unroll));
            put(out, d.pipelined.len() as u64);
            for l in &d.pipelined {
                put(out, u64::from(l.0));
            }
            put(out, d.interfaces.len() as u64);
            for (i, spec) in &d.interfaces {
                put(out, u64::from(i.0));
                out.extend_from_slice(spec.to_string().as_bytes());
                out.push(0);
            }
            put(out, d.seq_blocks as u64);
            put_f(out, d.accel_cycles_total);
            put_f(out, d.area);
            put(out, d.cpu_cycles);
            put(out, d.entries);
        }
    }
}

/// Digest of a front (bit-for-bit comparison without keeping the front).
pub fn front_digest(front: &[Solution]) -> u64 {
    let mut out = Vec::new();
    encode_front(&mut out, front);
    fnv1a(&out)
}

fn encode_report(out: &mut Vec<u8>, r: &BudgetReport) {
    put_f(out, r.budget_frac);
    put_f(out, r.speedup);
    put_f(out, r.area);
    for n in [r.kernels, r.sb, r.pr, r.c, r.d, r.s, r.lb, r.reusable] {
        put(out, n as u64);
    }
    put_f(out, r.area_saving_pct);
    put_f(out, r.avg_regions_per_reusable);
}

/// Everything one `suite-cold` kernel produces.
pub struct KernelOutputs<'a> {
    pub cayman: &'a [Solution],
    pub novia: &'a [Solution],
    pub qscores: &'a [Solution],
    pub reports: [&'a BudgetReport; 2],
    pub rtl: &'a [(String, String)],
}

/// The digest a `suite-cold` kernel is checked against.
pub fn kernel_digest(o: &KernelOutputs) -> u64 {
    let mut out = Vec::new();
    for front in [o.cayman, o.novia, o.qscores] {
        encode_front(&mut out, front);
    }
    for r in o.reports {
        encode_report(&mut out, r);
    }
    put(&mut out, o.rtl.len() as u64);
    for (name, text) in o.rtl {
        out.extend_from_slice(name.as_bytes());
        out.push(0);
        out.extend_from_slice(text.as_bytes());
        out.push(0);
    }
    fnv1a(&out)
}

/// The checked-in `name digest` lines, as a lookup table.
pub fn parse_digests(text: &str) -> std::collections::HashMap<String, u64> {
    text.lines()
        .filter_map(|l| {
            let (name, hex) = l.split_once(' ')?;
            Some((name.to_string(), u64::from_str_radix(hex.trim(), 16).ok()?))
        })
        .collect()
}

fn value_bits(v: &Option<Value>) -> Option<(u8, u64)> {
    v.map(|v| match v {
        Value::I(i) => (0, i as u64),
        Value::F(f) => (1, f.to_bits()),
        Value::B(b) => (2, u64::from(b)),
        Value::P(p) => (3, p as u64),
    })
}

fn same_profile(a: &ExecProfile, b: &ExecProfile) -> Result<(), String> {
    if a.block_counts != b.block_counts {
        return Err("block counts differ".into());
    }
    if a.total_cycles != b.total_cycles {
        return Err(format!("cycles {} vs {}", a.total_cycles, b.total_cycles));
    }
    if value_bits(&a.return_value) != value_bits(&b.return_value) {
        return Err(format!(
            "return value {:?} vs {:?}",
            a.return_value, b.return_value
        ));
    }
    Ok(())
}

/// Re-executes the analysed (normalized) module on `memory` with the
/// decoded interpreter and with the independent tree walker, and checks
/// that both agree on block counts, total cycles, return value and final
/// memory, and that the profile the pipeline analysed is the walker's.
pub fn check_interp(fw: &Framework, memory: &Memory) -> Result<(), String> {
    let module = &fw.app.module;
    let mut decoded = Interp::new(module);
    decoded.memory = memory.clone();
    let pd = decoded.run(&[]).map_err(|e| format!("decoded run: {e}"))?;
    let mut walker = Interp::reference(module);
    walker.memory = memory.clone();
    let pr = walker.run(&[]).map_err(|e| format!("reference run: {e}"))?;
    same_profile(&pd, &pr).map_err(|e| format!("decoded vs reference: {e}"))?;
    let cells = |m: &Memory| {
        m.cells()
            .iter()
            .map(|v| value_bits(&Some(*v)))
            .collect::<Vec<_>>()
    };
    if cells(&decoded.memory) != cells(&walker.memory) {
        return Err("decoded vs reference: final memory differs".into());
    }
    same_profile(&fw.app.exec, &pr).map_err(|e| format!("pipeline profile vs reference: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn front_digest_sees_every_bit() {
        let w = cayman::workloads::by_name("atax").expect("atax");
        let fw = Framework::from_workload(&w).expect("analyses");
        let sel = fw.select(&crate::select_options());
        let mut front = sel.pareto.clone();
        let d = front_digest(&front);
        assert_eq!(d, front_digest(&fw.select(&crate::select_options()).pareto));
        let last = front.last_mut().expect("non-empty front");
        last.saved_seconds = f64::from_bits(last.saved_seconds.to_bits() ^ 1);
        assert_ne!(d, front_digest(&front));
    }

    #[test]
    fn interpreters_agree_on_a_benchmark_with_inputs() {
        let w = cayman::workloads::by_name("atax").expect("atax");
        let fw = Framework::from_workload(&w).expect("analyses");
        check_interp(&fw, &w.memory()).expect("engines agree");
    }
}
