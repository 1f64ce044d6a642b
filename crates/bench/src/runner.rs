//! Shared machinery for running benchmark × configuration sweeps.

use vpsim_isa::Trace;
use vpsim_uarch::tap::PipeEventSink;
use vpsim_uarch::{CoreConfig, RunResult, SampleConfig, SampledResult, Simulator};
use vpsim_workloads::{Benchmark, WorkloadParams};

/// Simulation sizing for a sweep.
///
/// Paper scale is 50 M warm-up + 50 M measured per Simpoint slice; the
/// defaults here (50 k + 200 k) keep a full `paper all` run to minutes
/// while preserving every qualitative trend. Use `--warmup`/`--measure`
/// to run at larger scales.
///
/// # Examples
///
/// ```
/// use vpsim_bench::RunSettings;
/// use vpsim_workloads::benchmark;
///
/// use vpsim_uarch::tap::NullSink;
///
/// let s = RunSettings { warmup: 1_000, measure: 5_000, ..RunSettings::default() };
/// let trace = s.capture(&benchmark("gzip").unwrap(), s.trace_budget(&s.core()));
/// let r = s.run_trace_with_sink(&trace, s.core(), &mut NullSink);
/// assert_eq!(r.metrics.instructions, 5_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSettings {
    /// Committed instructions simulated before measurement starts.
    pub warmup: u64,
    /// Committed instructions measured.
    pub measure: u64,
    /// Workload scale multiplier.
    pub scale: usize,
    /// Seed for workload data and predictor randomness.
    pub seed: u64,
    /// Worker threads used by grid execution ([`crate::sweep::SweepSpec`]);
    /// `1` runs serially on the calling thread. Parallel output is
    /// bit-identical to serial, so this only affects wall-clock time.
    pub threads: usize,
    /// Opt-in sampled replay (`--sample` / scenario key `sample`): when
    /// set, trace-driven runs measure only the configured number of
    /// intervals in detail and fast-forward functionally between them
    /// (see `vpsim_uarch::sampling`). `None` (the default) replays every
    /// µop — byte-identical to the pre-sampling behaviour.
    pub sample: Option<SampleConfig>,
}

impl Default for RunSettings {
    fn default() -> Self {
        RunSettings {
            warmup: 50_000,
            measure: 200_000,
            scale: 1,
            seed: 0x2014,
            threads: 1,
            sample: None,
        }
    }
}

impl RunSettings {
    /// Check the sizing invariants and return the first violation: a
    /// measurement window and workload scale of zero are meaningless, and a
    /// zero worker count is rejected rather than silently clamped (`1`
    /// means "run serially on the calling thread").
    ///
    /// Scenario loading ([`crate::scenario::Scenario::validate`]) and the
    /// binaries surface these errors before any simulation starts.
    ///
    /// # Examples
    ///
    /// ```
    /// use vpsim_bench::RunSettings;
    ///
    /// assert!(RunSettings::default().validate().is_ok());
    /// let broken = RunSettings { threads: 0, ..RunSettings::default() };
    /// assert!(broken.validate().unwrap_err().contains("threads"));
    /// ```
    pub fn validate(&self) -> Result<(), String> {
        if self.measure == 0 {
            return Err("measure must be > 0 (committed instructions to measure)".into());
        }
        if self.scale == 0 {
            return Err("scale must be > 0 (workload footprint multiplier)".into());
        }
        if self.threads == 0 {
            return Err("threads must be >= 1 (1 runs serially on the calling thread)".into());
        }
        self.sample.map_or(Ok(()), |sample| sample.validate())
    }

    /// Workload generation parameters.
    pub fn params(&self) -> WorkloadParams {
        WorkloadParams { scale: self.scale, seed: self.seed }
    }

    /// The Table 2 core configuration with this sweep's seed.
    pub fn core(&self) -> CoreConfig {
        CoreConfig::default().with_seed(self.seed)
    }

    /// The capture length that makes replay byte-identical to inline
    /// execution under `config`: the measurement window plus the core's
    /// maximum fetch-ahead (see [`CoreConfig::trace_budget`]).
    pub fn trace_budget(&self, config: &CoreConfig) -> u64 {
        config.trace_budget(self.warmup, self.measure)
    }

    /// Capture `bench`'s dynamic trace, `budget` µops long (or the whole
    /// program if shorter) — the capture half of capture-once/replay-many.
    pub fn capture(&self, bench: &Benchmark, budget: u64) -> Trace {
        let program = (bench.build)(&self.params());
        Trace::capture(&program, budget)
    }

    /// Replay a trace in full under one configuration, streaming pipeline
    /// events into `sink` (see [`vpsim_uarch::tap`]; pass a
    /// [`NullSink`](vpsim_uarch::tap::NullSink) for none). Byte-identical
    /// to inline execution of the benchmark the trace was captured from,
    /// given a sufficient capture budget ([`Self::trace_budget`]), and
    /// unperturbed by the sink.
    /// [`Self::sample`] is ignored: per-cycle attribution of a sampled
    /// estimate would attribute cycles that were never simulated.
    pub fn run_trace_with_sink<T: PipeEventSink>(
        &self,
        trace: &Trace,
        config: CoreConfig,
        sink: &mut T,
    ) -> RunResult {
        Simulator::new(config).replay(trace.cursor(), self.warmup, self.measure, sink)
    }

    /// Sampled replay with full per-interval visibility: the
    /// [`SampledResult`] carries one [`RunResult`] per replayed interval
    /// plus the fast-forward accounting the sweep's `--timing-json`
    /// reports. Uses [`Self::sample`], or [`SampleConfig::default`] when
    /// unset.
    pub fn run_trace_sampled(&self, trace: &Trace, config: CoreConfig) -> SampledResult {
        let sample = self.sample.unwrap_or_default();
        Simulator::new(config).run_sampled(trace, self.warmup, self.measure, sample)
    }
}

/// Per-benchmark results of one configuration across the suite.
#[derive(Debug, Clone)]
pub struct SuiteResults {
    /// `(benchmark name, result)` pairs in Table 3 order.
    pub rows: Vec<(&'static str, RunResult)>,
}

impl SuiteResults {
    /// Speedups over the matching baseline rows.
    pub fn speedups(&self, baselines: &SuiteResults) -> Vec<f64> {
        self.rows
            .iter()
            .zip(&baselines.rows)
            .map(|((na, a), (nb, b))| {
                assert_eq!(na, nb, "row order mismatch");
                vpsim_stats::speedup(&b.metrics, &a.metrics)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{SchemeChoice, SweepSpec};
    use vpsim_core::PredictorKind;
    use vpsim_isa::Executor;
    use vpsim_uarch::tap::NullSink;
    use vpsim_uarch::{RecoveryPolicy, VpConfig};
    use vpsim_workloads::benchmark;

    fn tiny() -> RunSettings {
        RunSettings { warmup: 2_000, measure: 10_000, seed: 7, ..RunSettings::default() }
    }

    #[test]
    fn baseline_and_vp_runs_complete() {
        let s = tiny();
        let b = benchmark("gzip").unwrap();
        let vp_config = s
            .core()
            .with_vp(VpConfig::enabled(PredictorKind::Vtage, RecoveryPolicy::SquashAtCommit));
        let trace = s.capture(&b, s.trace_budget(&vp_config));
        let base = s.run_trace_with_sink(&trace, s.core(), &mut NullSink);
        assert_eq!(base.metrics.instructions, 10_000);
        let vp = s.run_trace_with_sink(&trace, vp_config, &mut NullSink);
        assert_eq!(vp.metrics.instructions, 10_000);
        assert!(vp.vp.eligible > 0);
    }

    #[test]
    fn explicit_capture_and_replay_match_inline() {
        let s = tiny();
        let b = benchmark("gzip").unwrap();
        let trace = s.capture(&b, s.trace_budget(&s.core()));
        let program = (b.build)(&s.params());
        let inline = Simulator::new(s.core()).replay(
            Executor::new(&program),
            s.warmup,
            s.measure,
            &mut NullSink,
        );
        assert_eq!(s.run_trace_with_sink(&trace, s.core(), &mut NullSink), inline);
    }

    #[test]
    fn suite_speedups_align_rows() {
        let spec = SweepSpec {
            settings: tiny(),
            predictors: vec![PredictorKind::VtageStride],
            schemes: vec![SchemeChoice::Fpc],
            recoveries: vec![RecoveryPolicy::SquashAtCommit],
            benches: ["gzip", "h264ref"].iter().map(|n| benchmark(n).unwrap()).collect(),
            ..SweepSpec::default()
        };
        let results = spec.run();
        let (base, vp) = (&results.baseline, &results.points[0].1);
        let speedups = vp.speedups(base);
        assert_eq!(speedups.len(), 2);
        assert!(speedups.iter().all(|&x| x > 0.5 && x < 3.0), "{speedups:?}");
    }
}
