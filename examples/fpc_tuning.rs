//! Sweep FPC probability vectors and watch the accuracy/coverage frontier
//! move (the run-time adaptation opportunity the paper's §5 points at).
//!
//! ```sh
//! cargo run --release --example fpc_tuning
//! ```
//!
//! Evaluates a VTAGE predictor under several forward-probability vectors,
//! from "plain 3-bit" (all transitions certain) to vectors mimicking 8-bit
//! counters, on a workload whose values break just often enough to hurt.

use vpsim::core::{ConfidenceScheme, PredictorKind};
use vpsim::isa::Executor;
use vpsim::stats::table::{fmt_f, fmt_pct, Table};
use vpsim::uarch::tap::NullSink;
use vpsim::uarch::{CoreConfig, RecoveryPolicy, Simulator, VpConfig};
use vpsim::workloads::{benchmark, WorkloadParams};

fn main() {
    // h264ref's analogue has the occasional residual glitches that
    // punish overconfidence.
    let bench = benchmark("h264ref").expect("h264ref is in Table 3");
    let program = (bench.build)(&WorkloadParams::default());
    let (warmup, measure) = (50_000, 200_000);

    let run = |config| {
        Simulator::new(config).replay(Executor::new(&program), warmup, measure, &mut NullSink)
    };
    let baseline = run(CoreConfig::default());

    // Vectors: log2 denominators of the 7 forward transition probabilities.
    let vectors: [(&str, [u8; 7]); 5] = [
        ("plain 3-bit (≈7 steps)", [0, 0, 0, 0, 0, 0, 0]),
        ("mimic 5-bit (≈33 steps)", [0, 2, 2, 2, 2, 3, 3]),
        ("mimic 6-bit / reissue", [0, 3, 3, 3, 3, 4, 4]),
        ("mimic 7-bit / squash", [0, 4, 4, 4, 4, 5, 5]),
        ("mimic 8-bit (≈257 steps)", [0, 5, 5, 5, 5, 6, 6]),
    ];

    let mut t = Table::new(vec![
        "FPC vector".into(),
        "E[steps]".into(),
        "Speedup".into(),
        "Coverage".into(),
        "Accuracy".into(),
        "Misp/Kinst".into(),
    ]);
    for (label, probs) in vectors {
        let scheme = ConfidenceScheme::fpc(probs);
        let steps = scheme.expected_steps_to_saturation();
        let r = run(CoreConfig::default().with_vp(VpConfig {
            kind: PredictorKind::Vtage,
            scheme,
            recovery: RecoveryPolicy::SquashAtCommit,
        }));
        t.row(vec![
            label.into(),
            fmt_f(steps, 0),
            fmt_f(vpsim::stats::speedup(&baseline.metrics, &r.metrics), 3),
            fmt_pct(r.vp.coverage(), 1),
            if r.vp.used > 0 { fmt_pct(r.vp.accuracy(), 2) } else { "-".into() },
            fmt_f(r.vp.mispredictions_per_kinst(r.metrics.instructions), 2),
        ]);
    }
    println!("VTAGE on h264ref's analogue, squash-at-commit:");
    println!("{t}");
    println!("Reading the frontier: slower counters trade coverage for");
    println!("accuracy, and under expensive commit-time squashes accuracy");
    println!("wins — hence the paper pairs the 7-bit-equivalent vector with");
    println!("squashing and the cheaper 6-bit-equivalent with reissue.");
}
