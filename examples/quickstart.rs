//! Quickstart: simulate a small workload with and without value prediction.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a strided-reduction microkernel, runs it on the paper's Table 2
//! core without VP, with the paper's headline hybrid (VTAGE + 2D-Stride,
//! FPC, squash-at-commit), and with a perfect oracle, then prints the
//! comparison.

use vpsim::core::PredictorKind;
use vpsim::isa::Executor;
use vpsim::stats::table::{fmt_f, fmt_pct, Table};
use vpsim::uarch::tap::NullSink;
use vpsim::uarch::{CoreConfig, RecoveryPolicy, RunResult, Simulator, VpConfig};
use vpsim::workloads::microkernels;

fn main() {
    // A serialized FP reduction: the accumulator chain limits the baseline.
    let program = microkernels::fp_reduction(256);
    let budget = 200_000;

    let run = |vp: Option<PredictorKind>| {
        let mut config = CoreConfig::default();
        if let Some(kind) = vp {
            config = config.with_vp(VpConfig::enabled(kind, RecoveryPolicy::SquashAtCommit));
        }
        Simulator::new(config).replay(Executor::new(&program), 0, budget, &mut NullSink)
    };

    let baseline = run(None);
    let hybrid = run(Some(PredictorKind::VtageStride));
    let oracle = run(Some(PredictorKind::Oracle));

    let mut t = Table::new(vec![
        "Configuration".into(),
        "IPC".into(),
        "Speedup".into(),
        "Coverage".into(),
        "Accuracy".into(),
    ]);
    let row = |name: &str, r: &RunResult, base: &RunResult| {
        vec![
            name.to_string(),
            fmt_f(r.metrics.ipc(), 2),
            fmt_f(vpsim::stats::speedup(&base.metrics, &r.metrics), 2),
            if r.vp.eligible > 0 { fmt_pct(r.vp.coverage(), 1) } else { "-".into() },
            if r.vp.used > 0 { fmt_pct(r.vp.accuracy(), 2) } else { "-".into() },
        ]
    };
    t.row(row("no VP", &baseline, &baseline));
    t.row(row("VTAGE + 2D-Stride (FPC)", &hybrid, &baseline));
    t.row(row("oracle", &oracle, &baseline));
    println!("{t}");

    assert!(
        hybrid.metrics.ipc() >= baseline.metrics.ipc(),
        "value prediction must not slow down a predictable workload"
    );
}
