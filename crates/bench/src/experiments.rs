//! One function per table/figure of the paper.
//!
//! Analytic reproductions (Tables 1–3, the §3.1 model, §4) are exact;
//! simulation-backed reproductions (Figures 3–7, §3.2, §8 accuracy) run
//! the benchmark analogues on the Table 2 core and report the same rows
//! and series the paper plots. Each one resolves its configuration grid
//! through a named [`crate::scenario`] preset (so `sweep --preset fig6`
//! reproduces the same runs) and takes a [`Scenario`] for sizing,
//! workloads and core overrides; `RunSettings::threads` parallelizes the
//! grid without changing a byte of output.

use crate::scenario::{self, Scenario};
use crate::sweep::SweepResults;
use crate::trace_cache::TraceCache;
use vpsim_core::{ConfidenceScheme, PredictorKind};
use vpsim_isa::DynInst;
use vpsim_stats::mean;
use vpsim_stats::table::{fmt_f, fmt_pct, Table};
use vpsim_uarch::penalty::{PenaltyModel, RecoveryPenalties};
use vpsim_uarch::regfile::vp_port_cost;
use vpsim_uarch::{CoreConfig, RecoveryPolicy};
use vpsim_workloads::{Benchmark, Class, Suite};

/// The four single-scheme predictors of Figures 4 and 5.
pub const SINGLE_SCHEMES: [PredictorKind; 4] = PredictorKind::PAPER_SET;

/// Run `sc` under the grid of the named built-in preset: sizing, workload
/// list and core overrides come from `sc`, the grid axes/points from the
/// preset. This is the single path every simulation-backed experiment
/// resolves its configurations through.
fn preset_results(sc: &Scenario, name: &str) -> SweepResults {
    let grid = scenario::preset(name).expect("built-in preset");
    sc.with_grid_of(&grid).run()
}

/// Table 1: predictor layout summary (entries, tag width, size in KB).
pub fn table1() -> Table {
    let mut t =
        Table::new(vec!["Predictor".into(), "#Entries".into(), "Tag".into(), "Size (KB)".into()]);
    let scheme = ConfidenceScheme::baseline();
    for kind in [
        PredictorKind::Lvp,
        PredictorKind::TwoDeltaStride,
        PredictorKind::Fcm4,
        PredictorKind::Vtage,
    ] {
        let p = kind.build(scheme.clone(), 0);
        for c in p.storage().components() {
            let tag = match (kind, c.name.as_str()) {
                (PredictorKind::Vtage, "VTAGE base") => "-".to_string(),
                (PredictorKind::Vtage, _) => "12+rank".to_string(),
                (PredictorKind::Fcm4, name) if name.contains("VPT") => "-".to_string(),
                _ => "Full (51)".to_string(),
            };
            t.row(vec![
                c.name.clone(),
                c.entries.to_string(),
                tag,
                fmt_f(c.bits() as f64 / 8000.0, 1),
            ]);
        }
    }
    t
}

/// Table 2: simulator configuration overview.
pub fn table2() -> Table {
    let c = CoreConfig::default();
    let mut t = Table::new(vec!["Parameter".into(), "Value".into()]);
    let rows: Vec<(&str, String)> = vec![
        ("Fetch/decode/rename width", format!("{} µops (2 taken branches/cycle)", c.fetch_width)),
        ("Front-end depth", format!("{} cycles", c.frontend_depth)),
        ("Branch prediction", "TAGE 1+12 components (~15K entries), 4K-entry 2-way BTB, 32-entry RAS".into()),
        ("ROB / IQ / LQ / SQ", format!("{} / {} / {} / {}", c.rob_entries, c.iq_entries, c.lq_entries, c.sq_entries)),
        ("Physical registers", format!("{} INT / {} FP", c.int_prf, c.fp_prf)),
        ("Memory dependence", format!("{}-entry SSIT store sets", c.store_set_entries)),
        ("Issue / retire width", format!("{} / {}", c.issue_width, c.retire_width)),
        ("FUs", format!(
            "{} ALU(1c), {} MulDiv({}c/{}c*), {} FP({}c), {} FPMulDiv({}c/{}c*), {} Ld + {} St ports",
            c.fu.alu_units, c.fu.muldiv_units, c.fu.mul_latency, c.fu.div_latency,
            c.fu.fp_units, c.fu.fp_latency, c.fu.fpmuldiv_units, c.fu.fpmul_latency,
            c.fu.fpdiv_latency, c.fu.load_ports, c.fu.store_ports,
        )),
        ("L1I", "4-way 32KB, 64B lines".into()),
        ("L1D", "4-way 32KB, 2 cycles, 64 MSHRs, 4 load ports".into()),
        ("L2", "16-way 2MB, 12 cycles, stride prefetcher degree 8 distance 1".into()),
        ("Memory", "DDR3-1600 11-11-11 model: min 75 / max 185 cycles".into()),
    ];
    for (k, v) in rows {
        t.row(vec![k.into(), v]);
    }
    t
}

/// Table 3: the benchmark suite.
pub fn table3(benches: &[Benchmark]) -> Table {
    let mut t = Table::new(vec!["Program".into(), "Suite".into(), "Class".into()]);
    for b in benches {
        t.row(vec![
            b.name.into(),
            match b.suite {
                Suite::Cpu2000 => "CPU2000".into(),
                Suite::Cpu2006 => "CPU2006".into(),
                Suite::Micro => "micro".into(),
            },
            match b.class {
                Class::Int => "INT".into(),
                Class::Fp => "FP".into(),
            },
        ]);
    }
    t
}

/// §3.1's synthetic example: net cycles per Kinst for the two
/// coverage/accuracy scenarios under the three recovery schemes.
pub fn sec3_model() -> Table {
    let m = PenaltyModel::default();
    let p = RecoveryPenalties::default();
    let mut t = Table::new(vec![
        "Scenario".into(),
        "Reissue (5c)".into(),
        "Squash@exec (20c)".into(),
        "Squash@commit (40c)".into(),
    ]);
    for (label, cov, acc) in [
        ("40% coverage, 95% accuracy", 0.40, 0.95),
        ("30% coverage, 99.75% accuracy", 0.30, 0.9975),
    ] {
        let [a, b, c] = m.scenario(cov, acc, &p);
        t.row(vec![label.into(), fmt_f(a, 0), fmt_f(b, 0), fmt_f(c, 0)]);
    }
    t
}

/// §4: register file port-cost model.
pub fn sec4_regfile() -> Table {
    let c = vp_port_cost(8);
    let mut t =
        Table::new(vec!["Configuration".into(), "Area (W² units)".into(), "Overhead".into()]);
    t.row(vec!["R=2W baseline (12W²)".into(), fmt_f(c.baseline / 64.0, 1), "-".into()]);
    t.row(vec![
        "+W write ports, naive (24W²)".into(),
        fmt_f(c.naive_vp / 64.0, 1),
        fmt_pct(c.naive_overhead(), 0),
    ]);
    t.row(vec![
        "+W/2 buffered ports (17.5W²)".into(),
        fmt_f(c.buffered_vp / 64.0, 1),
        fmt_pct(c.buffered_overhead(), 0),
    ]);
    t
}

/// §3.2: fraction of VP-eligible µops fetched back-to-back, per benchmark.
pub fn sec3_backtoback(sc: &Scenario) -> Table {
    let mut t = Table::new(vec!["Benchmark".into(), "B2B eligible".into()]);
    let mut fracs = Vec::new();
    let base = preset_results(sc, "backtoback").baseline;
    for (name, r) in &base.rows {
        let f = r.back_to_back.fraction();
        fracs.push(f);
        t.row(vec![(*name).into(), fmt_pct(f, 1)]);
    }
    if let Some(a) = mean::arithmetic(&fracs) {
        t.row(vec!["a-mean".into(), fmt_pct(a, 1)]);
    }
    if let Some(&max) = fracs.iter().max_by(|a, b| a.partial_cmp(b).unwrap()).as_ref() {
        t.row(vec!["max".into(), fmt_pct(*max, 1)]);
    }
    t
}

/// Figure 3: speedup upper bound with an oracle predictor.
pub fn fig3(sc: &Scenario) -> Table {
    let results = preset_results(sc, "fig3");
    let base = &results.baseline;
    let oracle = &results.points[0].1;
    let mut t = Table::new(vec!["Benchmark".into(), "Oracle speedup".into()]);
    let speedups = oracle.speedups(base);
    for ((name, _), sp) in oracle.rows.iter().zip(&speedups) {
        t.row(vec![(*name).into(), fmt_f(*sp, 2)]);
    }
    t.row(vec!["g-mean".into(), fmt_f(mean::geometric(&speedups).unwrap_or(1.0), 2)]);
    t
}

/// Shared engine for Figures 4 and 5: speedups of the four single-scheme
/// predictors under a given recovery policy, with baseline 3-bit counters
/// ("(a)") or FPC ("(b)") — presets `fig4a`/`fig4b`/`fig5a`/`fig5b`.
pub fn fig45(sc: &Scenario, recovery: RecoveryPolicy, fpc: bool) -> Table {
    let name = match (recovery, fpc) {
        (RecoveryPolicy::SquashAtCommit, false) => "fig4a",
        (RecoveryPolicy::SquashAtCommit, true) => "fig4b",
        (RecoveryPolicy::SelectiveReissue, false) => "fig5a",
        (RecoveryPolicy::SelectiveReissue, true) => "fig5b",
    };
    let results = preset_results(sc, name);
    let base = &results.baseline;
    let mut headers = vec!["Benchmark".into()];
    headers.extend(results.points.iter().map(|(p, _)| p.kind.label().to_string()));
    let mut t = Table::new(headers);
    let per_kind: Vec<Vec<f64>> =
        results.points.iter().map(|(_, suite)| suite.speedups(base)).collect();
    for (i, b) in sc.benches.iter().enumerate() {
        let mut row = vec![b.name.to_string()];
        for col in &per_kind {
            row.push(fmt_f(col[i], 3));
        }
        t.row(row);
    }
    let mut grow = vec!["g-mean".to_string()];
    for col in &per_kind {
        grow.push(fmt_f(mean::geometric(col).unwrap_or(1.0), 3));
    }
    t.row(grow);
    t
}

/// Figure 6: VTAGE speedup and coverage, baseline counters vs FPC
/// (squash-at-commit recovery) — preset `fig6`.
pub fn fig6(sc: &Scenario) -> Table {
    let results = preset_results(sc, "fig6");
    let base = &results.baseline;
    let baseline_cnt = &results.points[0].1;
    let fpc = &results.points[1].1;
    let sp_b = baseline_cnt.speedups(base);
    let sp_f = fpc.speedups(base);
    let mut t = Table::new(vec![
        "Benchmark".into(),
        "Speedup base".into(),
        "Speedup FPC".into(),
        "Coverage base".into(),
        "Coverage FPC".into(),
        "Accuracy base".into(),
        "Accuracy FPC".into(),
    ]);
    for (i, b) in sc.benches.iter().enumerate() {
        t.row(vec![
            b.name.into(),
            fmt_f(sp_b[i], 3),
            fmt_f(sp_f[i], 3),
            fmt_pct(baseline_cnt.rows[i].1.vp.coverage(), 1),
            fmt_pct(fpc.rows[i].1.vp.coverage(), 1),
            fmt_pct(baseline_cnt.rows[i].1.vp.accuracy(), 2),
            fmt_pct(fpc.rows[i].1.vp.accuracy(), 2),
        ]);
    }
    t.row(vec![
        "g-mean".into(),
        fmt_f(mean::geometric(&sp_b).unwrap_or(1.0), 3),
        fmt_f(mean::geometric(&sp_f).unwrap_or(1.0), 3),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
    ]);
    t
}

/// Figure 7: the two symmetric hybrids vs their components (FPC,
/// squash-at-commit): speedup and coverage — preset `fig7`.
pub fn fig7(sc: &Scenario) -> Table {
    let results = preset_results(sc, "fig7");
    let base = &results.baseline;
    let mut headers = vec!["Benchmark".into()];
    for (p, _) in &results.points {
        headers.push(format!("{} spd", p.kind.label()));
    }
    for (p, _) in &results.points {
        headers.push(format!("{} cov", p.kind.label()));
    }
    let mut t = Table::new(headers);
    let speedups: Vec<Vec<f64>> =
        results.points.iter().map(|(_, suite)| suite.speedups(base)).collect();
    for (i, b) in sc.benches.iter().enumerate() {
        let mut row = vec![b.name.to_string()];
        for sp in &speedups {
            row.push(fmt_f(sp[i], 3));
        }
        for (_, suite) in &results.points {
            row.push(fmt_pct(suite.rows[i].1.vp.coverage(), 1));
        }
        t.row(row);
    }
    let mut grow = vec!["g-mean".to_string()];
    for sp in &speedups {
        grow.push(fmt_f(mean::geometric(sp).unwrap_or(1.0), 3));
    }
    t.row(grow);
    t
}

/// §8.2.1/§8.2.2: per-predictor accuracy under baseline counters vs FPC
/// (squash-at-commit) — preset `accuracy` (kind-major, baseline before
/// FPC).
pub fn accuracy(sc: &Scenario) -> Table {
    use crate::sweep::SchemeChoice;
    let results = preset_results(sc, "accuracy");
    // One column per grid point, headers derived from the points so the
    // preset stays free to evolve ("base" keeps the paper's shorthand for
    // the baseline counters).
    let mut headers = vec!["Benchmark".into()];
    for (p, _) in &results.points {
        let scheme = match p.scheme {
            SchemeChoice::Baseline => "base".into(),
            SchemeChoice::Fpc => "FPC".into(),
            other => other.label(),
        };
        headers.push(format!("{} {scheme}", p.kind.label()));
    }
    let mut t = Table::new(headers);
    for (i, b) in sc.benches.iter().enumerate() {
        let mut row = vec![b.name.to_string()];
        for (_, suite) in &results.points {
            row.push(fmt_pct(suite.rows[i].1.vp.accuracy(), 2));
        }
        t.row(row);
    }
    t
}

/// Compare squash-at-commit against idealistic selective reissue under FPC
/// for VTAGE — the §8.2.4 "recovery mechanism has little impact" claim,
/// distilled — preset `recovery`.
pub fn recovery_comparison(sc: &Scenario) -> Table {
    let results = preset_results(sc, "recovery");
    let base = &results.baseline;
    let squash = &results.points[0].1;
    let reissue = &results.points[1].1;
    let sp_s = squash.speedups(base);
    let sp_r = reissue.speedups(base);
    let mut t = Table::new(vec![
        "Benchmark".into(),
        "Squash@commit".into(),
        "Selective reissue".into(),
        "Delta".into(),
    ]);
    for (i, b) in sc.benches.iter().enumerate() {
        t.row(vec![
            b.name.into(),
            fmt_f(sp_s[i], 3),
            fmt_f(sp_r[i], 3),
            fmt_f(sp_r[i] - sp_s[i], 3),
        ]);
    }
    t.row(vec![
        "g-mean".into(),
        fmt_f(mean::geometric(&sp_s).unwrap_or(1.0), 3),
        fmt_f(mean::geometric(&sp_r).unwrap_or(1.0), 3),
        String::new(),
    ]);
    t
}

/// The first `n` dynamic µops of `bench` for an offline experiment,
/// replayed from the shared [`TraceCache`] and handed to `f`.
fn with_offline_stream<R>(
    sc: &Scenario,
    bench: &Benchmark,
    n: u64,
    f: impl FnOnce(&mut dyn Iterator<Item = DynInst>) -> R,
) -> R {
    let (trace, _) = TraceCache::global().get(&sc.settings, bench, n);
    f(&mut trace.cursor().take(n as usize))
}

/// Offline predictor evaluation: stream a benchmark's dynamic trace
/// (from the inline [`Executor`](vpsim_isa::Executor) or a replayed
/// [`Trace`](vpsim_isa::Trace) cursor — any [`DynInst`] iterator) through
/// a predictor (in-order predict → train, with the correct-path branch
/// history — identical to what the pipeline's front-end sees) and report
/// coverage/accuracy over eligible µops.
pub fn offline_eval(
    predictor: &mut dyn vpsim_core::Predictor,
    stream: impl Iterator<Item = DynInst>,
) -> (f64, f64) {
    use vpsim_core::{HistoryState, PredictCtx};
    let mut hist = HistoryState::default();
    let (mut eligible, mut used, mut correct) = (0u64, 0u64, 0u64);
    for di in stream {
        if di.vp_eligible() {
            eligible += 1;
            let ctx = PredictCtx { seq: di.seq, pc: di.pc, hist, actual: None };
            let actual = di.result.expect("eligible µop has a result");
            if let Some(guess) = predictor.predict(&ctx).confident_value() {
                used += 1;
                if guess == actual {
                    correct += 1;
                }
            }
            predictor.train(di.seq, actual);
        }
        let op = di.inst.op;
        if op.is_cond_branch() {
            hist.push_branch(di.pc, di.taken);
        } else if op.is_control() {
            hist.push_path(di.pc);
        }
    }
    let coverage = if eligible == 0 { 0.0 } else { used as f64 / eligible as f64 };
    let accuracy = if used == 0 { 1.0 } else { correct as f64 / used as f64 };
    (coverage, accuracy)
}

/// Ablation: VTAGE tagged-component count (offline evaluation — the
/// geometry sweep isolates the predictor from pipeline effects). Shows
/// how much of VTAGE's coverage the longer histories contribute.
pub fn ablation_vtage(sc: &Scenario) -> Table {
    use vpsim_core::{Predictor as _, Vtage, VtageConfig};
    let s = &sc.settings;
    let geometries: Vec<(String, Vec<u32>)> = vec![
        ("1 comp (2)".into(), vec![2]),
        ("2 comps (2,4)".into(), vec![2, 4]),
        ("4 comps (2..16)".into(), vec![2, 4, 8, 16]),
        ("6 comps (2..64), paper".into(), vec![2, 4, 8, 16, 32, 64]),
        ("8 comps (2..128)".into(), vec![2, 4, 8, 16, 32, 64, 96, 128]),
    ];
    let mut t = Table::new(vec![
        "Geometry".into(),
        "Coverage (a-mean)".into(),
        "Accuracy (a-mean)".into(),
        "Size (KB)".into(),
    ]);
    let instructions = s.warmup + s.measure;
    for (label, lengths) in geometries {
        let config = VtageConfig { history_lengths: lengths, ..VtageConfig::default() };
        let size_kb =
            Vtage::new(config.clone(), ConfidenceScheme::fpc_squash(), 0).storage().total_kb();
        let mut covs = Vec::new();
        let mut accs = Vec::new();
        for b in &sc.benches {
            let mut p = Vtage::new(config.clone(), ConfidenceScheme::fpc_squash(), s.seed);
            let (cov, acc) =
                with_offline_stream(sc, b, instructions, |stream| offline_eval(&mut p, stream));
            covs.push(cov);
            accs.push(acc);
        }
        t.row(vec![
            label,
            fmt_pct(mean::arithmetic(&covs).unwrap_or(0.0), 1),
            fmt_pct(mean::arithmetic(&accs).unwrap_or(0.0), 2),
            fmt_f(size_kb, 1),
        ]);
    }
    t
}

/// Ablation: extended predictor set (per-path stride, D-FCM, gDiff over
/// VTAGE) against the paper's headline hybrid — the paper's future-work
/// section, made concrete — preset `ablation-extended`.
pub fn ablation_extended(sc: &Scenario) -> Table {
    let results = preset_results(sc, "ablation-extended");
    let base = &results.baseline;
    let mut headers = vec!["Benchmark".into()];
    headers.extend(results.points.iter().map(|(p, _)| p.kind.label().to_string()));
    let mut t = Table::new(headers);
    let speedups: Vec<Vec<f64>> =
        results.points.iter().map(|(_, suite)| suite.speedups(base)).collect();
    for (i, b) in sc.benches.iter().enumerate() {
        let mut row = vec![b.name.to_string()];
        for sp in &speedups {
            row.push(fmt_f(sp[i], 3));
        }
        t.row(row);
    }
    let mut grow = vec!["g-mean".to_string()];
    for sp in &speedups {
        grow.push(fmt_f(mean::geometric(sp).unwrap_or(1.0), 3));
    }
    t.row(grow);
    t
}

/// §5 ablation: counter width vs FPC. The paper notes that "simply using
/// wider counters (e.g. 6 or 7 bits) leads to much more accurate
/// predictors" and that 3-bit FPC matches them at a fraction of the
/// storage; this experiment runs VTAGE under 3/6/7-bit full counters and
/// both FPC vectors (squash-at-commit recovery).
pub fn counters(sc: &Scenario) -> Table {
    use crate::sweep::{GridPoint, SchemeChoice};
    // Row label and bits-per-entry column, derived from the grid point
    // itself so the preset stays free to evolve. SAg carries its own
    // pattern table, hence the odd bits-per-entry entry.
    fn row_meta(p: &GridPoint) -> (String, String) {
        if p.kind == PredictorKind::SagLvp {
            return ("SAg-LVP (Burtscher)".into(), "8+4".into());
        }
        let (scheme, bits) = match p.scheme {
            SchemeChoice::Baseline => ("3-bit full".into(), "3".into()),
            SchemeChoice::Full(b) => (format!("{b}-bit full"), b.to_string()),
            SchemeChoice::FpcVector(v)
                if ConfidenceScheme::fpc(v) == ConfidenceScheme::fpc_squash() =>
            {
                ("FPC squash".into(), "3".into())
            }
            SchemeChoice::FpcVector(v)
                if ConfidenceScheme::fpc(v) == ConfidenceScheme::fpc_reissue() =>
            {
                ("FPC reissue".into(), "3".into())
            }
            SchemeChoice::FpcVector(v) => (ConfidenceScheme::fpc(v).to_string(), "3".into()),
            SchemeChoice::Fpc => (format!("FPC {}", p.recovery), "3".into()),
        };
        (format!("{}, {scheme}", p.kind.label()), bits)
    }
    let results = preset_results(sc, "counters");
    let base = &results.baseline;
    let mut t = Table::new(vec![
        "Configuration".into(),
        "g-mean speedup".into(),
        "Worst case".into(),
        "Accuracy (a-mean)".into(),
        "Conf bits/entry".into(),
    ]);
    for (point, res) in &results.points {
        let (label, bits) = row_meta(point);
        let speedups = res.speedups(base);
        let worst = speedups.iter().cloned().fold(f64::INFINITY, f64::min);
        let accs: Vec<f64> =
            res.rows.iter().filter(|(_, r)| r.vp.used > 0).map(|(_, r)| r.vp.accuracy()).collect();
        t.row(vec![
            label,
            fmt_f(mean::geometric(&speedups).unwrap_or(1.0), 3),
            fmt_f(worst, 3),
            fmt_pct(mean::arithmetic(&accs).unwrap_or(0.0), 2),
            bits,
        ]);
    }
    t
}

/// Value-locality breakdown per benchmark (offline): the dynamic-weighted
/// mix of constant / strided / patterned / chaotic value streams — the
/// workload-side explanation of which predictor family wins where.
pub fn locality(sc: &Scenario) -> Table {
    use vpsim_core::locality::{LocalityAnalyzer, ValueClass};
    let s = &sc.settings;
    let mut t = Table::new(vec![
        "Benchmark".into(),
        "Constant".into(),
        "Strided".into(),
        "Patterned".into(),
        "Chaotic".into(),
    ]);
    let instructions = s.warmup + s.measure;
    for b in &sc.benches {
        let mut a = LocalityAnalyzer::new();
        with_offline_stream(sc, b, instructions, |stream| {
            for di in stream {
                if di.vp_eligible() {
                    a.observe(di.pc, di.result.expect("eligible µop has a result"));
                }
            }
        });
        let r = a.report();
        t.row(vec![
            b.name.into(),
            fmt_pct(r.fraction(ValueClass::Constant), 1),
            fmt_pct(r.fraction(ValueClass::Strided), 1),
            fmt_pct(r.fraction(ValueClass::Patterned), 1),
            fmt_pct(r.fraction(ValueClass::Chaotic), 1),
        ]);
    }
    t
}

/// Diagnostic table: per-benchmark baseline IPC and substrate statistics
/// (branch MPKI, cache MPKI, back-to-back fraction) plus the oracle IPC.
/// Not a paper figure — used to sanity-check workload character — preset
/// `ipc`.
pub fn ipc_diagnostics(sc: &Scenario) -> Table {
    let mut t = Table::new(vec![
        "Benchmark".into(),
        "IPC".into(),
        "Oracle IPC".into(),
        "Br MPKI".into(),
        "L1D MPKI".into(),
        "L2 MPKI".into(),
        "B2B".into(),
    ]);
    let results = preset_results(sc, "ipc");
    let bases = &results.baseline;
    let oracles = &results.points[0].1;
    for ((name, base), (_, oracle)) in bases.rows.iter().zip(&oracles.rows) {
        let n = base.metrics.instructions;
        t.row(vec![
            (*name).into(),
            fmt_f(base.metrics.ipc(), 2),
            fmt_f(oracle.metrics.ipc(), 2),
            fmt_f(base.branch.mpki(n), 1),
            fmt_f(base.l1d.mpki(n), 1),
            fmt_f(base.l2.mpki(n), 1),
            fmt_pct(base.back_to_back.fraction(), 1),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpsim_workloads::all_benchmarks;

    #[test]
    fn table1_reproduces_paper_sizes() {
        let t = table1();
        let csv = t.to_csv();
        // The paper's headline sizes, to one decimal.
        for needle in ["120.8", "251.9", "67.6", "68.6"] {
            assert!(csv.contains(needle), "missing {needle} in\n{csv}");
        }
        // VTAGE tagged components: 6 rows of 1024 entries.
        assert_eq!(csv.matches("1024").count(), 6, "{csv}");
    }

    #[test]
    fn table2_mentions_key_parameters() {
        let csv = table2().to_csv();
        for needle in ["256 / 128 / 48 / 48", "TAGE", "DDR3-1600", "15 cycles"] {
            assert!(csv.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn table3_lists_19_benchmarks() {
        let t = table3(&all_benchmarks());
        assert_eq!(t.len(), 19);
    }

    #[test]
    fn sec3_model_matches_paper_numbers() {
        // The paper quotes scenario 2 as ≈88/83/76; the exact formula
        // yields 87.9/82.3/74.8, printed as 88/82/75.
        let csv = sec3_model().to_csv();
        for needle in ["64", "-86", "-286", "88", "82", "75"] {
            assert!(csv.contains(needle), "missing {needle} in\n{csv}");
        }
    }

    #[test]
    fn sec4_regfile_shows_halved_overhead() {
        let csv = sec4_regfile().to_csv();
        assert!(csv.contains("100%"), "{csv}");
        assert!(csv.contains("46%"), "{csv}");
    }
}
