//! Build a custom workload with the program builder and measure how each
//! recovery scheme handles a *deliberately treacherous* value pattern.
//!
//! ```sh
//! cargo run --release --example custom_workload
//! ```
//!
//! The workload's hot loop loads a configuration value that is constant
//! for long stretches and then switches (think: a phase change in an
//! application). Baseline 3-bit confidence gets burned at every switch;
//! FPC rarely bets on the value at all. The example prints the §3.1
//! trade-off live: squash-at-commit vs selective reissue × baseline vs
//! FPC counters.

use vpsim::core::{ConfidenceScheme, PredictorKind};
use vpsim::isa::{Executor, Program, ProgramBuilder, Reg};
use vpsim::stats::table::{fmt_f, fmt_pct, Table};
use vpsim::uarch::tap::NullSink;
use vpsim::uarch::{CoreConfig, RecoveryPolicy, Simulator, VpConfig};

/// A loop whose loaded value is constant within 48-iteration phases and
/// jumps pseudo-randomly between phases.
fn phase_change_workload() -> Program {
    let mut b = ProgramBuilder::new();
    let (i, phase, v, addr, t) = (Reg::int(1), Reg::int(2), Reg::int(3), Reg::int(4), Reg::int(5));
    let acc = Reg::int(6);
    let slot = 0x10_0000u64;
    b.data(slot, 7);
    b.load_imm(addr, slot as i64);
    b.load_imm(Reg::int(9), i64::MAX);
    let top = b.bind_label();
    // The hot, predictable-until-it-isn't load.
    b.load(v, addr, 0);
    // A consumer chain long enough that a wrong value matters.
    b.mul(t, v, v);
    b.add(acc, acc, t);
    b.shri(t, acc, 3);
    b.xor(acc, acc, t);
    // Every 48th iteration, mutate the configuration value.
    b.addi(i, i, 1);
    b.andi(t, i, 47);
    let keep = b.label();
    let zero = Reg::int(0);
    b.bne(t, zero, keep);
    b.load_imm(Reg::int(7), 6364136223846793005);
    b.mul(phase, i, Reg::int(7));
    b.shri(phase, phase, 40);
    b.store(addr, phase, 0);
    b.bind(keep);
    b.blt(i, Reg::int(9), top);
    b.halt();
    b.build().expect("valid workload")
}

fn main() {
    let program = phase_change_workload();
    let budget = 300_000;
    let run =
        |config| Simulator::new(config).replay(Executor::new(&program), 0, budget, &mut NullSink);
    let baseline = run(CoreConfig::default());

    let mut t = Table::new(vec![
        "Recovery × counters".into(),
        "Speedup".into(),
        "Coverage".into(),
        "Accuracy".into(),
        "Squashes".into(),
        "Reissued µops".into(),
    ]);
    for (label, recovery, scheme) in [
        ("squash@commit, 3-bit", RecoveryPolicy::SquashAtCommit, ConfidenceScheme::baseline()),
        ("squash@commit, FPC", RecoveryPolicy::SquashAtCommit, ConfidenceScheme::fpc_squash()),
        ("reissue, 3-bit", RecoveryPolicy::SelectiveReissue, ConfidenceScheme::baseline()),
        ("reissue, FPC", RecoveryPolicy::SelectiveReissue, ConfidenceScheme::fpc_reissue()),
    ] {
        let r = run(CoreConfig::default().with_vp(VpConfig {
            kind: PredictorKind::Lvp,
            scheme,
            recovery,
        }));
        t.row(vec![
            label.into(),
            fmt_f(vpsim::stats::speedup(&baseline.metrics, &r.metrics), 3),
            fmt_pct(r.vp.coverage(), 1),
            if r.vp.used > 0 { fmt_pct(r.vp.accuracy(), 2) } else { "-".into() },
            r.vp_squashes.to_string(),
            r.reissued_uops.to_string(),
        ]);
    }
    println!("Phase-change workload, LVP predictor:");
    println!("{t}");
    println!("Expected shape (paper §3.1/§5): with 3-bit counters, squash-at-commit");
    println!("pays heavily for each phase change while reissue shrugs them off;");
    println!("with FPC both recovery schemes converge because mispredictions");
    println!("almost disappear.");
}
