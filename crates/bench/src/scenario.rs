//! The scenario layer: one declarative, round-trippable configuration
//! surface for the whole simulator.
//!
//! A [`Scenario`] names every tunable in one typed value — simulation
//! sizing ([`RunSettings`]), the sweep grid (predictor × confidence ×
//! recovery axes, or an explicit [`GridPoint`] list), the workload list,
//! and structural core overrides ([`CoreOverrides`]) on top of the Table 2
//! machine. A new experiment is therefore *data*: a `.vps` text file, a
//! named [`preset`], or a handful of `--set key=value` overrides — never a
//! code change.
//!
//! The text format is a dependency-free `key = value` file (`#` starts a
//! comment; the build container has no serde, and needs none):
//!
//! ```text
//! # compare VTAGE and the hybrid under both recovery schemes
//! measure = 200000
//! predictors = vtage, vtage-2dstr
//! confidence = fpc
//! recovery = squash, reissue
//! benchmarks = gzip, mcf, h264ref, lbm
//! core.fetch_width = 8
//! ```
//!
//! Rendering ([`Display`](std::fmt::Display)) and parsing
//! ([`FromStr`](std::str::FromStr)) are exact inverses:
//! `parse(render(s)) == s` for every valid scenario, so
//! `--dump-scenario` output is itself a loadable scenario file — the
//! reproducibility story in one artifact.
//!
//! # Examples
//!
//! ```
//! use vpsim_bench::scenario::Scenario;
//!
//! let text = "measure = 5000\nwarmup = 1000\npredictors = vtage\nbenchmarks = gzip";
//! let sc: Scenario = text.parse().unwrap();
//! assert_eq!(sc.settings.measure, 5_000);
//! // Round-trip: the rendered form parses back to the same value.
//! assert_eq!(sc.to_string().parse::<Scenario>().unwrap(), sc);
//! ```

use std::fmt;

use crate::runner::RunSettings;
use crate::sweep::{GridPoint, SchemeChoice, SweepResults, SweepSpec};
use vpsim_core::PredictorKind;
use vpsim_uarch::{CoreConfig, RecoveryPolicy, SampleConfig};
use vpsim_workloads::{all_benchmarks, all_microkernels, Benchmark};

/// Every top-level key the text format and `--set` accept, quoted by
/// parse errors; the `core.*` keys are [`CoreOverrides`]' fields.
const KEYS: &str = "warmup, measure, scale, seed, threads, trace_cache, sample, sample.intervals, \
                    sample.period, sample.warmup, predictors, confidence, recovery, points, \
                    benchmarks";

/// The one table of `core.*` keys: each row is a [`CoreConfig`] field of
/// the same name and type. It generates [`CoreOverrides`]' fields, their
/// application onto Table 2, their parsing and their render order.
macro_rules! core_fields {
    ($($(#[$doc:meta])* $field:ident: $ty:ty,)*) => {
        /// Structural overrides on top of the Table 2 [`CoreConfig`]. `None`
        /// keeps the paper default; only set fields are rendered into
        /// scenario files.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct CoreOverrides {
            $($(#[$doc])* pub $field: Option<$ty>,)*
        }

        impl CoreOverrides {
            /// The overridden fields applied to `base`.
            pub fn apply(&self, mut base: CoreConfig) -> CoreConfig {
                $(if let Some(v) = self.$field {
                    base.$field = v;
                })*
                base
            }

            /// Set one field by its `core.`-less name.
            fn set(&mut self, field: &str, value: &str) -> Result<(), String> {
                let n = parse_number(value).map_err(|e| format!("core.{field}: {e}"))?;
                match field {
                    $(stringify!($field) => self.$field = Some(n as $ty),)*
                    other => {
                        let valid = [$(stringify!($field)),*].join(", ");
                        return Err(format!("unknown core field {other} (valid: {valid})"));
                    }
                }
                Ok(())
            }

            /// `(name, value)` pairs for the overridden fields, in render
            /// order.
            fn entries(&self) -> Vec<(&'static str, u64)> {
                let fields = [$((stringify!($field), self.$field.map(|v| v as u64))),*];
                fields.into_iter().filter_map(|(name, v)| v.map(|v| (name, v))).collect()
            }
        }
    };
}

core_fields! {
    /// Fetch/decode/rename width in µops.
    fetch_width: usize,
    /// Maximum taken branches fetched per cycle.
    taken_branches_per_cycle: usize,
    /// Front-end depth in cycles.
    frontend_depth: u64,
    /// Issue width.
    issue_width: usize,
    /// Retire width.
    retire_width: usize,
    /// Reorder buffer entries.
    rob_entries: usize,
    /// Issue queue entries.
    iq_entries: usize,
    /// Load queue entries.
    lq_entries: usize,
    /// Store queue entries.
    sq_entries: usize,
    /// Integer physical registers.
    int_prf: usize,
    /// Floating-point physical registers.
    fp_prf: usize,
    /// Store-set SSIT entries (must stay a power of two).
    store_set_entries: usize,
}

impl CoreOverrides {
    /// [`CoreConfig::validate`] on the overrides applied to Table 2, with
    /// the offending field named by its scenario key.
    fn validate(&self) -> Result<(), String> {
        self.apply(CoreConfig::default()).validate().map_err(|e| format!("core.{e}"))
    }
}

/// One fully-specified simulator configuration point set: sizing, grid,
/// workloads, and core overrides. See the [module docs](self) for the text
/// format and the round-trip guarantee.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Simulation sizing, seed and worker-thread count.
    pub settings: RunSettings,
    /// Predictor axis of the sweep grid.
    pub predictors: Vec<PredictorKind>,
    /// Confidence axis.
    pub schemes: Vec<SchemeChoice>,
    /// Recovery axis.
    pub recoveries: Vec<RecoveryPolicy>,
    /// Explicit grid points (`points = …`), overriding the three axes.
    /// `Some(vec![])` runs the no-VP baseline alone; `points = auto`
    /// restores the cartesian axes.
    pub points: Option<Vec<GridPoint>>,
    /// Workloads: Table 3 benchmarks and/or `k:*` microkernels.
    pub benches: Vec<Benchmark>,
    /// Structural overrides on the Table 2 core.
    pub core: CoreOverrides,
}

impl Default for Scenario {
    /// The paper's headline grid: Table 2 core, the four main predictors
    /// under recovery-matched FPC and squash-at-commit, all 19 benchmarks,
    /// default sizing.
    fn default() -> Self {
        Scenario {
            settings: RunSettings::default(),
            predictors: PredictorKind::PAPER_SET.to_vec(),
            schemes: vec![SchemeChoice::Fpc],
            recoveries: vec![RecoveryPolicy::SquashAtCommit],
            points: None,
            benches: all_benchmarks(),
            core: CoreOverrides::default(),
        }
    }
}

impl Scenario {
    /// Start a fluent [`ScenarioBuilder`] from the paper defaults.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder(Scenario::default())
    }

    /// Apply one `key = value` assignment (the same keys the text format
    /// uses; unknown keys list every valid spelling).
    pub fn apply(&mut self, key: &str, value: &str) -> Result<(), String> {
        let value = value.trim();
        let num = |what: &str| parse_number(value).map_err(|e: String| format!("{what}: {e}"));
        match key {
            "warmup" => self.settings.warmup = num("warmup")?,
            "measure" => self.settings.measure = num("measure")?,
            "scale" => self.settings.scale = num("scale")? as usize,
            "seed" => self.settings.seed = num("seed")?,
            "threads" => self.settings.threads = num("threads")? as usize,
            // Every run replays a captured trace; the key is still accepted
            // (and validated) so older scenario files keep loading.
            "trace_cache" => match value.to_ascii_lowercase().as_str() {
                "on" | "true" | "1" | "off" | "false" | "0" => {}
                other => return Err(format!("trace_cache: {other} is not on|off")),
            },
            "sample" => match value.to_ascii_lowercase().as_str() {
                "on" | "true" | "1" => {
                    self.settings.sample.get_or_insert_with(SampleConfig::default);
                }
                "off" | "false" | "0" => self.settings.sample = None,
                other => return Err(format!("sample: {other} is not on|off")),
            },
            "sample.intervals" => {
                self.settings.sample.get_or_insert_with(SampleConfig::default).intervals =
                    num("sample.intervals")?
            }
            "sample.period" => {
                self.settings.sample.get_or_insert_with(SampleConfig::default).period =
                    num("sample.period")?
            }
            "sample.warmup" => {
                self.settings.sample.get_or_insert_with(SampleConfig::default).warmup =
                    num("sample.warmup")?
            }
            "predictors" => {
                self.predictors = parse_list(value).map_err(|e| format!("predictors: {e}"))?
            }
            "confidence" => {
                self.schemes = parse_list(value).map_err(|e| format!("confidence: {e}"))?
            }
            "recovery" => {
                self.recoveries = parse_list(value).map_err(|e| format!("recovery: {e}"))?
            }
            "points" => {
                self.points = if value == "auto" {
                    None
                } else {
                    Some(parse_list(value).map_err(|e| format!("points: {e}"))?)
                }
            }
            "benchmarks" => {
                self.benches = parse_list(value).map_err(|e| format!("benchmarks: {e}"))?
            }
            _ => match key.strip_prefix("core.") {
                Some(field) => self.core.set(field, value)?,
                None => {
                    return Err(format!("unknown scenario key {key} (valid: {KEYS}, core.<field>)"))
                }
            },
        }
        Ok(())
    }

    /// Apply one `key=value` override in `--set` syntax.
    pub fn set(&mut self, assignment: &str) -> Result<(), String> {
        let (key, value) = split_assignment(assignment)?;
        self.apply(key, value)
    }

    /// Overlay a scenario text onto `self`: keys present in `text` replace
    /// the corresponding fields, everything else is kept. `#` starts a
    /// comment, blank lines are ignored.
    pub fn apply_text(&mut self, text: &str) -> Result<(), String> {
        for (i, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected key = value", i + 1))?;
            self.apply(key.trim(), value).map_err(|e| format!("line {}: {e}", i + 1))?;
        }
        Ok(())
    }

    /// Overlay a scenario file onto `self` (see [`Scenario::apply_text`]).
    pub fn apply_file(&mut self, path: &str) -> Result<(), String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read scenario {path}: {e}"))?;
        self.apply_text(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// Load a scenario file on top of the defaults and validate it.
    pub fn load(path: &str) -> Result<Scenario, String> {
        let mut sc = Scenario::default();
        sc.apply_file(path)?;
        sc.validate()?;
        Ok(sc)
    }

    /// Check every invariant: sizing ([`RunSettings::validate`]), a
    /// non-empty workload list, and the core-override bounds.
    pub fn validate(&self) -> Result<(), String> {
        self.settings.validate()?;
        if self.benches.is_empty() {
            return Err("benchmarks must name at least one workload".into());
        }
        self.core.validate()
    }

    /// The grid points this scenario denotes (explicit list, or the
    /// cartesian product of the three axes).
    pub fn grid_points(&self) -> Vec<GridPoint> {
        self.to_spec().points()
    }

    /// The fully-resolved core configuration (Table 2 + overrides, seeded
    /// from the settings).
    pub fn core_config(&self) -> CoreConfig {
        self.core.apply(CoreConfig::default()).with_seed(self.settings.seed)
    }

    /// Lower to the sweep engine's [`SweepSpec`].
    pub fn to_spec(&self) -> SweepSpec {
        SweepSpec {
            settings: self.settings,
            predictors: self.predictors.clone(),
            schemes: self.schemes.clone(),
            recoveries: self.recoveries.clone(),
            points: self.points.clone(),
            benches: self.benches.clone(),
            core: self.core.apply(CoreConfig::default()),
            stores: crate::store::Stores::default(),
        }
    }

    /// The canonical identity hash of this scenario for the persistent
    /// service layer: hex SHA-256 over the canonical rendered text with
    /// the execution-only keys (`threads`, `trace_cache`) removed — they
    /// change how a sweep runs, never what it produces. Rendering is
    /// canonical and `parse(render(s)) == s`, so the hash is invariant
    /// under `.vps` render → parse round trips.
    pub fn cache_hash(&self) -> String {
        let mut identity = String::from("vpsim-scenario/v1\n");
        for line in self.to_string().lines() {
            if line.starts_with("threads =") || line.starts_with("trace_cache =") {
                continue;
            }
            identity.push_str(line);
            identity.push('\n');
        }
        crate::store::hex(&crate::store::sha256(identity.as_bytes()))
    }

    /// Run the scenario on the deterministic parallel sweep engine.
    /// Output is bit-identical for every `settings.threads` value.
    pub fn run(&self) -> SweepResults {
        self.to_spec().run()
    }

    /// Replace this scenario's grid (axes and explicit points) with
    /// `grid`'s, keeping sizing, workloads and core overrides — how the
    /// `paper` experiments impose their per-figure grids on top of the
    /// user's scenario.
    pub fn with_grid_of(&self, grid: &Scenario) -> Scenario {
        Scenario {
            predictors: grid.predictors.clone(),
            schemes: grid.schemes.clone(),
            recoveries: grid.recoveries.clone(),
            points: grid.points.clone(),
            ..self.clone()
        }
    }
}

impl fmt::Display for Scenario {
    /// Render the canonical text form: every sizing key, the grid, the
    /// workload list, and only the core fields that are overridden.
    /// [`FromStr`](std::str::FromStr) parses this back to an equal value.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_kv(f, "warmup", &self.settings.warmup.to_string())?;
        write_kv(f, "measure", &self.settings.measure.to_string())?;
        write_kv(f, "scale", &self.settings.scale.to_string())?;
        write_kv(f, "seed", &self.settings.seed.to_string())?;
        write_kv(f, "threads", &self.settings.threads.to_string())?;
        // A no-op key, rendered as it always was so canonical text and
        // `cache_hash` identities stay byte-identical.
        write_kv(f, "trace_cache", "on")?;
        // Sampling keys render only when sampling is on, so scenarios that
        // never mention sampling keep their exact pre-sampling canonical
        // text (and therefore their cache_hash identity).
        if let Some(sample) = self.settings.sample {
            write_kv(f, "sample", "on")?;
            write_kv(f, "sample.intervals", &sample.intervals.to_string())?;
            write_kv(f, "sample.period", &sample.period.to_string())?;
            write_kv(f, "sample.warmup", &sample.warmup.to_string())?;
        }
        write_kv(f, "predictors", &join(self.predictors.iter().map(|k| lower(k.label()))))?;
        write_kv(f, "confidence", &join(self.schemes.iter().map(|s| s.label())))?;
        write_kv(f, "recovery", &join(self.recoveries.iter().map(|r| r.to_string())))?;
        if let Some(points) = &self.points {
            write_kv(f, "points", &join(points.iter().map(|p| lower(&p.label()))))?;
        }
        write_kv(f, "benchmarks", &join(self.benches.iter().map(|b| b.name.to_string())))?;
        for (name, value) in self.core.entries() {
            write_kv(f, &format!("core.{name}"), &value.to_string())?;
        }
        Ok(())
    }
}

impl std::str::FromStr for Scenario {
    type Err = String;

    /// Parse a scenario text on top of the defaults and validate it.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut sc = Scenario::default();
        sc.apply_text(s)?;
        sc.validate()?;
        Ok(sc)
    }
}

/// Fluent construction of [`Scenario`]s, starting from the paper defaults.
/// Each setter *replaces* the corresponding field.
///
/// # Examples
///
/// ```
/// use vpsim_bench::scenario::Scenario;
/// use vpsim_core::PredictorKind;
///
/// let sc = Scenario::builder()
///     .measure(10_000)
///     .predictors(&[PredictorKind::Vtage])
///     .benchmarks(&["gzip", "k:tight"])
///     .build()
///     .unwrap();
/// assert_eq!(sc.grid_points().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioBuilder(Scenario);

impl ScenarioBuilder {
    /// Warm-up instructions per run.
    pub fn warmup(mut self, n: u64) -> Self {
        self.0.settings.warmup = n;
        self
    }

    /// Measured instructions per run.
    pub fn measure(mut self, n: u64) -> Self {
        self.0.settings.measure = n;
        self
    }

    /// Workload footprint multiplier.
    pub fn scale(mut self, n: usize) -> Self {
        self.0.settings.scale = n;
        self
    }

    /// RNG seed for workload data and predictor randomness.
    pub fn seed(mut self, n: u64) -> Self {
        self.0.settings.seed = n;
        self
    }

    /// Worker threads (1 = serial; output is thread-count invariant).
    pub fn threads(mut self, n: usize) -> Self {
        self.0.settings.threads = n;
        self
    }

    /// Opt into sampled replay with the given knobs (off by default).
    pub fn sample(mut self, sample: SampleConfig) -> Self {
        self.0.settings.sample = Some(sample);
        self
    }

    /// Predictor axis.
    pub fn predictors(mut self, kinds: &[PredictorKind]) -> Self {
        self.0.predictors = kinds.to_vec();
        self
    }

    /// Confidence axis.
    pub fn schemes(mut self, schemes: &[SchemeChoice]) -> Self {
        self.0.schemes = schemes.to_vec();
        self
    }

    /// Recovery axis.
    pub fn recoveries(mut self, recoveries: &[RecoveryPolicy]) -> Self {
        self.0.recoveries = recoveries.to_vec();
        self
    }

    /// Explicit grid points, overriding the three axes.
    pub fn points(mut self, points: Vec<GridPoint>) -> Self {
        self.0.points = Some(points);
        self
    }

    /// Workload list by name.
    ///
    /// # Panics
    ///
    /// Panics on an unknown name — the builder is for code, where names
    /// are static; parse a scenario text for data-driven lists.
    pub fn benchmarks(mut self, names: &[&str]) -> Self {
        self.0.benches = names.iter().map(|n| n.parse().expect("known workload name")).collect();
        self
    }

    /// Edit the core overrides in place.
    pub fn core(mut self, edit: impl FnOnce(&mut CoreOverrides)) -> Self {
        edit(&mut self.0.core);
        self
    }

    /// Validate and return the scenario.
    pub fn build(self) -> Result<Scenario, String> {
        self.0.validate()?;
        Ok(self.0)
    }
}

/// The shared scenario flags of a command line, as resolved by
/// [`resolve_cli`].
#[derive(Debug)]
pub struct CliScenario {
    /// The resolved scenario, not yet validated: the binary may still
    /// apply its own arguments (`simulate`'s positional workload).
    pub scenario: Scenario,
    /// Every other argument, verbatim and in command-line order.
    pub rest: Vec<String>,
    /// `true` when `--scenario` or `--preset` was given.
    pub selected: bool,
    /// The keys `--set`, `--KEY` and their aliases assigned, in
    /// command-line order (repeats kept).
    pub edited: Vec<String>,
    /// `true` when `--dump-scenario` was given: print the scenario and
    /// exit.
    pub dump: bool,
}

/// The one command-line front end of the scenario layer, shared by
/// `simulate`, `sweep` and `paper`. It resolves these flags onto `base`
/// (the binary's defaults):
///
/// ```text
///   --scenario FILE   Overlay a scenario file; keys it omits keep the
///                     binary's defaults
///   --preset NAME     Start from a named preset (sweep --list-presets);
///                     the binary's worker-thread count is kept
///   --set KEY=VALUE   Override one scenario key (repeatable)
///   --KEY VALUE       Same as --set KEY=VALUE, for warmup, measure, scale,
///                     seed, threads, predictors, confidence, recovery,
///                     points and benchmarks
///   --predictor P     Same as --predictors P
///   --counters C      Same as --confidence C
///   --sample          Same as --set sample=on: interval sampling, tuned
///                     with --set sample.intervals=K, sample.period=N and
///                     sample.warmup=W
///   --dump-scenario   Print the resolved scenario and exit
/// ```
///
/// At most one of `--scenario` and `--preset` may be given, and it is
/// resolved first; `--set` and the `--KEY` spellings then apply in
/// command-line order. Every other argument is returned in
/// [`CliScenario::rest`], verbatim and in order; a flag listed in
/// `binary_valued` is passed through together with its value, whatever
/// that value looks like. An unknown key or value is an error that lists
/// every valid spelling.
pub fn resolve_cli(
    base: Scenario,
    args: &[String],
    binary_valued: &[&str],
) -> Result<CliScenario, String> {
    let mut cli = CliScenario {
        scenario: base,
        rest: Vec::new(),
        selected: false,
        edited: Vec::new(),
        dump: false,
    };
    let mut selector: Option<&str> = None;
    let mut edits: Vec<(&str, &str)> = Vec::new();
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} requires a value"));
        match arg {
            "--scenario" | "--preset" => {
                let value = value()?;
                match selector {
                    Some(prev) if prev == arg => return Err(format!("{arg} given twice")),
                    Some(prev) => return Err(format!("{arg} cannot be combined with {prev}")),
                    None => selector = Some(arg),
                }
                if arg == "--scenario" {
                    cli.scenario.apply_file(value)?;
                } else {
                    let threads = cli.scenario.settings.threads;
                    cli.scenario = preset(value)?;
                    cli.scenario.settings.threads = threads;
                }
            }
            "--set" => edits.push(split_assignment(value()?)?),
            "--sample" => edits.push(("sample", "on")),
            "--predictor" => edits.push(("predictors", value()?)),
            "--counters" => edits.push(("confidence", value()?)),
            "--dump-scenario" => cli.dump = true,
            _ => match arg.strip_prefix("--").filter(|key| is_flag_key(key)) {
                Some(key) => edits.push((key, value()?)),
                None => {
                    cli.rest.push(arg.to_string());
                    if binary_valued.contains(&arg) {
                        cli.rest.extend(it.next().map(str::to_string));
                    }
                }
            },
        }
    }
    for (key, value) in edits {
        cli.scenario.apply(key, value)?;
        cli.edited.push(key.to_string());
    }
    cli.selected = selector.is_some();
    Ok(cli)
}

/// Whether `key` is also spelled `--KEY VALUE` on the command line: every
/// top-level key with a value. `sample` is the switch `--sample`, and
/// `trace_cache` is a no-op kept only so older scenario files load.
fn is_flag_key(key: &str) -> bool {
    KEYS.split(", ").any(|k| k == key)
        && !key.contains('.')
        && !matches!(key, "sample" | "trace_cache")
}

// ---------------------------------------------------------------------------
// Presets
// ---------------------------------------------------------------------------

/// A named, built-in scenario: the paper's experiment grids plus off-paper
/// design-space variants. `(name, description, constructor)`.
type Preset = (&'static str, &'static str, fn() -> Scenario);

fn paper_defaults() -> Scenario {
    Scenario::default()
}

fn smoke() -> Scenario {
    Scenario::builder()
        .warmup(2_000)
        .measure(10_000)
        .predictors(&[PredictorKind::Vtage])
        .benchmarks(&["gzip", "mcf"])
        .build()
        .expect("valid preset")
}

/// Memory-stress CI grid: VTAGE on the cache-hostile workloads (the two
/// memory-bound Table 3 analogues plus the pointer-chasing and blocked
/// matmul microkernels), sized like `smoke` so the perf-smoke CI step stays
/// cheap while exercising the LSQ and hierarchy hot paths.
fn mem_smoke() -> Scenario {
    Scenario::builder()
        .warmup(2_000)
        .measure(10_000)
        .predictors(&[PredictorKind::Vtage])
        .benchmarks(&["mcf", "art", "k:chase", "k:matmul"])
        .build()
        .expect("valid preset")
}

fn point(kind: PredictorKind, scheme: SchemeChoice, recovery: RecoveryPolicy) -> GridPoint {
    GridPoint { kind, scheme, recovery }
}

fn fig3() -> Scenario {
    let p = point(PredictorKind::Oracle, SchemeChoice::Fpc, RecoveryPolicy::SquashAtCommit);
    Scenario::builder().points(vec![p]).build().expect("valid preset")
}

/// The IPC diagnostics grid is deliberately the Figure 3 grid (baseline +
/// one oracle point); give it its own constructor so the two presets can
/// evolve independently. `ipc_diagnostics` reads `points[0]` as the
/// oracle suite.
fn ipc() -> Scenario {
    fig3()
}

fn fig45(recovery: RecoveryPolicy, fpc: bool) -> Scenario {
    let scheme = if fpc { SchemeChoice::Fpc } else { SchemeChoice::Baseline };
    Scenario::builder().schemes(&[scheme]).recoveries(&[recovery]).build().expect("valid preset")
}

fn fig4a() -> Scenario {
    fig45(RecoveryPolicy::SquashAtCommit, false)
}

fn fig4b() -> Scenario {
    fig45(RecoveryPolicy::SquashAtCommit, true)
}

fn fig5a() -> Scenario {
    fig45(RecoveryPolicy::SelectiveReissue, false)
}

fn fig5b() -> Scenario {
    fig45(RecoveryPolicy::SelectiveReissue, true)
}

fn fig6() -> Scenario {
    Scenario::builder()
        .predictors(&[PredictorKind::Vtage])
        .schemes(&[SchemeChoice::Baseline, SchemeChoice::Fpc])
        .build()
        .expect("valid preset")
}

fn fig7() -> Scenario {
    Scenario::builder()
        .predictors(&[
            PredictorKind::TwoDeltaStride,
            PredictorKind::Fcm4,
            PredictorKind::Vtage,
            PredictorKind::FcmStride,
            PredictorKind::VtageStride,
        ])
        .build()
        .expect("valid preset")
}

fn accuracy() -> Scenario {
    Scenario::builder()
        .schemes(&[SchemeChoice::Baseline, SchemeChoice::Fpc])
        .build()
        .expect("valid preset")
}

fn recovery() -> Scenario {
    Scenario::builder()
        .predictors(&[PredictorKind::Vtage])
        .recoveries(&[RecoveryPolicy::SquashAtCommit, RecoveryPolicy::SelectiveReissue])
        .build()
        .expect("valid preset")
}

fn counters() -> Scenario {
    use PredictorKind::{Lvp, SagLvp, Vtage};
    use SchemeChoice::{Baseline, FpcVector, Full};
    let squash = RecoveryPolicy::SquashAtCommit;
    // The §5 counter study is not rectangular: the reissue FPC vector is
    // deliberately run under squash-at-commit recovery, hence the pinned
    // vectors instead of the recovery-matched `fpc`.
    let fpc_squash = FpcVector([0, 4, 4, 4, 4, 5, 5]);
    let fpc_reissue = FpcVector([0, 3, 3, 3, 3, 4, 4]);
    Scenario::builder()
        .points(vec![
            point(Vtage, Full(3), squash),
            point(Vtage, Full(6), squash),
            point(Vtage, Full(7), squash),
            point(Vtage, fpc_squash, squash),
            point(Vtage, fpc_reissue, squash),
            point(Lvp, Full(3), squash),
            point(Lvp, fpc_squash, squash),
            point(SagLvp, Baseline, squash),
        ])
        .build()
        .expect("valid preset")
}

fn ablation_extended() -> Scenario {
    Scenario::builder()
        .predictors(&[
            PredictorKind::PerPathStride,
            PredictorKind::DFcm4,
            PredictorKind::GDiffVtage,
            PredictorKind::VtageStride,
        ])
        .build()
        .expect("valid preset")
}

fn backtoback() -> Scenario {
    Scenario::builder().points(Vec::new()).build().expect("valid preset")
}

fn narrow_core() -> Scenario {
    Scenario::builder()
        .predictors(&[PredictorKind::VtageStride])
        .core(|c| {
            c.fetch_width = Some(4);
            c.issue_width = Some(4);
            c.retire_width = Some(4);
            c.rob_entries = Some(128);
            c.iq_entries = Some(64);
            c.lq_entries = Some(24);
            c.sq_entries = Some(24);
            c.int_prf = Some(128);
            c.fp_prf = Some(128);
        })
        .build()
        .expect("valid preset")
}

fn wide_core() -> Scenario {
    Scenario::builder()
        .predictors(&[PredictorKind::VtageStride])
        .core(|c| {
            c.fetch_width = Some(16);
            c.taken_branches_per_cycle = Some(4);
            c.issue_width = Some(16);
            c.retire_width = Some(16);
            c.rob_entries = Some(512);
            c.iq_entries = Some(256);
            c.lq_entries = Some(96);
            c.sq_entries = Some(96);
            c.int_prf = Some(512);
            c.fp_prf = Some(512);
        })
        .build()
        .expect("valid preset")
}

fn fpc_sweep() -> Scenario {
    Scenario::builder()
        .predictors(&[PredictorKind::Vtage])
        .schemes(&[
            SchemeChoice::Baseline,
            SchemeChoice::Full(6),
            SchemeChoice::Full(7),
            SchemeChoice::FpcVector([0, 4, 4, 4, 4, 5, 5]),
            SchemeChoice::FpcVector([0, 3, 3, 3, 3, 4, 4]),
            SchemeChoice::FpcVector([0, 5, 5, 5, 5, 6, 6]),
        ])
        .build()
        .expect("valid preset")
}

fn scaled() -> Scenario {
    Scenario::builder()
        .scale(4)
        .predictors(&[PredictorKind::VtageStride])
        .benchmarks(&["mcf", "milc", "lbm", "art", "applu", "gcc"])
        .build()
        .expect("valid preset")
}

fn kernels() -> Scenario {
    Scenario { benches: all_microkernels(), ..Scenario::default() }
}

const PRESETS: &[Preset] = &[
    (
        "paper-grid",
        "the headline grid: 4 predictors x FPC x squash, all 19 benchmarks",
        paper_defaults,
    ),
    ("smoke", "tiny CI grid: VTAGE on gzip+mcf, 2k warm-up + 10k measured", smoke),
    ("mem-smoke", "memory-stress CI grid: VTAGE on mcf/art/k:chase/k:matmul", mem_smoke),
    ("fig3", "oracle speedup upper bound (Figure 3)", fig3),
    ("fig4a", "squash-at-commit, baseline counters (Figure 4a)", fig4a),
    ("fig4b", "squash-at-commit, FPC (Figure 4b)", fig4b),
    ("fig5a", "selective reissue, baseline counters (Figure 5a)", fig5a),
    ("fig5b", "selective reissue, FPC (Figure 5b)", fig5b),
    ("fig6", "VTAGE, baseline vs FPC counters (Figure 6)", fig6),
    ("fig7", "hybrid predictors vs their components (Figure 7)", fig7),
    ("accuracy", "per-predictor accuracy, baseline vs FPC (section 8.2)", accuracy),
    ("recovery", "VTAGE under squash-at-commit vs selective reissue (section 8.2.4)", recovery),
    ("counters", "counter width vs FPC vectors on VTAGE and LVP (section 5)", counters),
    ("ablation-extended", "extended predictors vs the headline hybrid", ablation_extended),
    ("backtoback", "no-VP baseline alone (section 3.2 back-to-back statistic)", backtoback),
    ("ipc", "baseline + oracle IPC diagnostics", ipc),
    (
        "narrow-core",
        "off-paper: 4-wide core with halved windows, hybrid VTAGE+2D-Stride",
        narrow_core,
    ),
    (
        "wide-core",
        "off-paper: 16-wide core with doubled windows, hybrid VTAGE+2D-Stride",
        wide_core,
    ),
    ("fpc-sweep", "off-paper: alternative FPC vectors vs full counters on VTAGE", fpc_sweep),
    ("scaled", "off-paper: 4x workload footprints on the memory-heavy benchmarks", scaled),
    ("kernels", "off-paper: the k:* microkernel suite under the paper grid", kernels),
];

/// Look up a built-in preset by name; unknown names list the registry.
///
/// # Examples
///
/// ```
/// use vpsim_bench::scenario::preset;
///
/// let sc = preset("smoke").unwrap();
/// assert_eq!(sc.settings.measure, 10_000);
/// assert!(preset("no-such-preset").is_err());
/// ```
pub fn preset(name: &str) -> Result<Scenario, String> {
    PRESETS
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, _, build)| build())
        .ok_or_else(|| format!("unknown preset {name} (valid: {})", preset_names().join(", ")))
}

/// Every preset name, in registry order.
pub fn preset_names() -> Vec<&'static str> {
    PRESETS.iter().map(|(n, _, _)| *n).collect()
}

/// `(name, description)` pairs for `--list-presets` style help output.
pub fn presets() -> Vec<(&'static str, &'static str)> {
    PRESETS.iter().map(|(n, d, _)| (*n, *d)).collect()
}

// ---------------------------------------------------------------------------
// Text-format helpers
// ---------------------------------------------------------------------------

/// Split a `key=value` assignment into its trimmed key and its value.
fn split_assignment(assignment: &str) -> Result<(&str, &str), String> {
    let (key, value) = assignment
        .split_once('=')
        .ok_or_else(|| format!("--set {assignment}: expected key=value"))?;
    Ok((key.trim(), value))
}

/// Parse a decimal or `0x`-prefixed hexadecimal number.
fn parse_number(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("bad number {s}"))
}

/// Parse a comma-separated list; an empty value is an empty list.
fn parse_list<T: std::str::FromStr<Err = String>>(value: &str) -> Result<Vec<T>, String> {
    if value.is_empty() {
        return Ok(Vec::new());
    }
    value.split(',').map(|item| item.trim().parse()).collect()
}

fn join(items: impl Iterator<Item = String>) -> String {
    items.collect::<Vec<_>>().join(", ")
}

fn lower(s: &str) -> String {
    s.to_ascii_lowercase()
}

/// `key = value`, or `key =` for an empty value (no trailing space).
fn write_kv(f: &mut fmt::Formatter<'_>, key: &str, value: &str) -> fmt::Result {
    if value.is_empty() {
        writeln!(f, "{key} =")
    } else {
        writeln!(f, "{key} = {value}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_grid() {
        let sc = Scenario::default();
        assert_eq!(sc.predictors, PredictorKind::PAPER_SET.to_vec());
        assert_eq!(sc.benches.len(), 19);
        assert_eq!(sc.grid_points().len(), 4);
        sc.validate().unwrap();
    }

    #[test]
    fn text_round_trips_through_parse_and_render() {
        let sc = Scenario::builder()
            .warmup(123)
            .measure(456)
            .seed(0xDEAD)
            .threads(3)
            .predictors(&[PredictorKind::Vtage, PredictorKind::Lvp])
            .schemes(&[SchemeChoice::Fpc, SchemeChoice::FpcVector([0, 1, 2, 3, 4, 5, 6])])
            .recoveries(&[RecoveryPolicy::SelectiveReissue])
            .benchmarks(&["gzip", "k:matmul"])
            .core(|c| {
                c.fetch_width = Some(4);
                c.int_prf = Some(96);
            })
            .build()
            .unwrap();
        let text = sc.to_string();
        assert_eq!(text.parse::<Scenario>().unwrap(), sc, "\n{text}");
    }

    #[test]
    fn cache_hash_is_invariant_under_round_trip_and_execution_keys() {
        let sc = preset("smoke").unwrap();
        let hash = sc.cache_hash();
        assert_eq!(hash.len(), 64, "hex SHA-256");
        // The satellite guarantee: a scenario and its render→parse round
        // trip hash identically.
        let parsed: Scenario = sc.to_string().parse().unwrap();
        assert_eq!(parsed.cache_hash(), hash);
        // Execution-only keys do not change the identity…
        let mut exec = sc.clone();
        exec.settings.threads = 13;
        exec.apply("trace_cache", "off").unwrap();
        assert_eq!(exec.cache_hash(), hash);
        // …but every result-affecting key does.
        for tweak in [
            "measure=10001",
            "seed=0x2015",
            "scale=2",
            "benchmarks=gzip",
            "predictors=lvp",
            "core.fetch_width=4",
        ] {
            let mut other = sc.clone();
            other.set(tweak).unwrap();
            assert_ne!(other.cache_hash(), hash, "{tweak} must change the hash");
        }
    }

    #[test]
    fn sampling_keys_round_trip_and_auto_enable() {
        let mut sc = Scenario::default();
        assert!(sc.settings.sample.is_none(), "sampling is off by default");
        assert!(!sc.to_string().contains("sample"), "off ⇒ no sample lines rendered");
        // Setting any sub-key enables sampling with the other knobs at
        // their defaults.
        sc.set("sample.intervals=30").unwrap();
        let sample = sc.settings.sample.unwrap();
        assert_eq!(sample.intervals, 30);
        assert_eq!(sample.period, SampleConfig::default().period);
        sc.apply_text("sample.period = 5000\nsample.warmup = 1000").unwrap();
        let sample = sc.settings.sample.unwrap();
        assert_eq!((sample.intervals, sample.period, sample.warmup), (30, 5_000, 1_000));
        assert_eq!(sc.to_string().parse::<Scenario>().unwrap(), sc, "\n{sc}");
        // `sample = on` keeps existing knobs; `off` clears them.
        sc.apply("sample", "on").unwrap();
        assert_eq!(sc.settings.sample.unwrap().intervals, 30);
        sc.apply("sample", "off").unwrap();
        assert!(sc.settings.sample.is_none());
        // Plain `sample = on` from scratch uses the defaults.
        sc.apply("sample", "on").unwrap();
        assert_eq!(sc.settings.sample, Some(SampleConfig::default()));
        let err = sc.apply("sample", "maybe").unwrap_err();
        assert!(err.contains("on|off"), "{err}");
    }

    #[test]
    fn sampling_keys_change_the_hash_and_legacy_hashes_are_stable() {
        let sc = preset("smoke").unwrap();
        let hash = sc.cache_hash();
        // The committed pre-sampling identity of the smoke preset: proves
        // scenarios that never mention sampling hash exactly as they did
        // before the sampling keys existed.
        assert_eq!(hash, "3e765f7ae0584cf6c09cf99be60cd642898f7b04777462d8899807ac4412c845");
        // Toggling sampling on, or changing any sampling knob, changes the
        // identity — a sampled result must never be served from a full
        // run's cache cell (or vice versa).
        let mut on = sc.clone();
        on.set("sample=on").unwrap();
        assert_ne!(on.cache_hash(), hash);
        let base = on.cache_hash();
        for tweak in ["sample.intervals=21", "sample.period=9999", "sample.warmup=1"] {
            let mut other = on.clone();
            other.set(tweak).unwrap();
            assert_ne!(other.cache_hash(), base, "{tweak} must change the hash");
            assert_ne!(other.cache_hash(), hash, "{tweak} must differ from non-sampled");
        }
        // Turning sampling back off restores the legacy identity exactly.
        let mut off = on.clone();
        off.set("sample=off").unwrap();
        assert_eq!(off.cache_hash(), hash);
    }

    #[test]
    fn sampling_validation_rejects_zero_knobs() {
        for (line, needle) in
            [("sample.intervals = 0", "sample.intervals"), ("sample.period = 0", "sample.period")]
        {
            let err = format!("{line}\n").parse::<Scenario>().unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
        // Zero detailed warmup is legal (purely functional warming).
        "sample.warmup = 0\n".parse::<Scenario>().unwrap();
    }

    #[test]
    fn explicit_and_empty_points_round_trip() {
        let squash = RecoveryPolicy::SquashAtCommit;
        for points in [
            Vec::new(),
            vec![
                point(PredictorKind::Oracle, SchemeChoice::Fpc, squash),
                point(PredictorKind::Lvp, SchemeChoice::Full(6), squash),
            ],
        ] {
            let sc = Scenario::builder().points(points).build().unwrap();
            assert_eq!(sc.to_string().parse::<Scenario>().unwrap(), sc);
        }
        // `points = auto` restores the cartesian axes.
        let mut sc = Scenario::builder().points(Vec::new()).build().unwrap();
        assert_eq!(sc.grid_points().len(), 0);
        sc.set("points=auto").unwrap();
        assert_eq!(sc, Scenario::default());
    }

    #[test]
    fn trace_cache_key_round_trips_and_rejects_garbage() {
        let mut sc = Scenario::default();
        assert!(sc.to_string().contains("trace_cache = on"));
        // Every spelling parses and changes nothing: the key is a no-op
        // kept for older scenario files, and it always renders as `on`.
        for spelling in ["off", "on", "true", "0", "OFF"] {
            sc.apply("trace_cache", spelling).unwrap();
            assert_eq!(sc, Scenario::default(), "{spelling}");
        }
        sc.apply_text("trace_cache = off").unwrap();
        assert!(sc.to_string().contains("trace_cache = on"));
        assert_eq!(sc.to_string().parse::<Scenario>().unwrap(), sc);
        let err = sc.apply("trace_cache", "maybe").unwrap_err();
        assert!(err.contains("on|off"), "{err}");
        let err = sc.apply_text("tracecache = on").unwrap_err();
        assert!(err.contains("trace_cache"), "unknown keys list the right spelling: {err}");
    }

    #[test]
    fn comments_blank_lines_and_layering_behave() {
        let mut sc = Scenario::default();
        sc.apply_text("# header\n\nmeasure = 777 # trailing comment\n  seed = 0x10  \n").unwrap();
        assert_eq!(sc.settings.measure, 777);
        assert_eq!(sc.settings.seed, 16);
        // Untouched keys keep their previous values.
        assert_eq!(sc.predictors, PredictorKind::PAPER_SET.to_vec());
        // Later assignments win.
        sc.apply_text("measure = 888").unwrap();
        assert_eq!(sc.settings.measure, 888);
    }

    #[test]
    fn errors_carry_line_numbers_and_valid_spellings() {
        let mut sc = Scenario::default();
        let err = sc.apply_text("warmup = 1\nbogus = 2").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(err.contains("benchmarks"), "{err}");
        let err = sc.apply_text("predictors = quantum").unwrap_err();
        assert!(err.contains("vtage") && err.contains("sag-lvp"), "{err}");
        let err = sc.apply_text("benchmarks = nosuch").unwrap_err();
        assert!(err.contains("gzip") && err.contains("k:tight"), "{err}");
        let err = sc.apply_text("core.alu_count = 3").unwrap_err();
        assert!(err.contains("fetch_width"), "{err}");
        let err = sc.apply_text("threads 4").unwrap_err();
        assert!(err.contains("key = value"), "{err}");
    }

    #[test]
    fn validation_rejects_zero_sizing_and_bad_cores() {
        for (line, needle) in [
            ("threads = 0", "threads"),
            ("measure = 0", "measure"),
            ("scale = 0", "scale"),
            ("benchmarks =", "benchmarks"),
            ("core.rob_entries = 0", "rob_entries"),
            ("core.int_prf = 32", "int_prf"),
            ("core.store_set_entries = 1000", "power of two"),
        ] {
            let err = format!("{line}\n").parse::<Scenario>().unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn set_layering_matches_file_spelling() {
        let mut a = Scenario::default();
        a.set("core.fetch_width=4").unwrap();
        a.set("predictors=vtage").unwrap();
        let b: Scenario = "core.fetch_width = 4\npredictors = vtage".parse().unwrap();
        assert_eq!(a, b);
        assert!(a.set("fetch_width").unwrap_err().contains("key=value"));
    }

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn cli_passes_other_arguments_through_in_order() {
        let line = "k:chase --cycle-log 5 --measure 700 --store --set --x --set seed=3 --json";
        let cli = resolve_cli(Scenario::default(), &args(line), &["--cycle-log", "--store"]);
        let cli = cli.unwrap();
        assert_eq!(cli.rest, args("k:chase --cycle-log 5 --store --set --x --json"));
        assert_eq!((cli.scenario.settings.measure, cli.scenario.settings.seed), (700, 3));
        assert!(!cli.selected && !cli.dump);
        // A binary flag that ends the line passes through alone.
        let cli = resolve_cli(Scenario::default(), &args("--store"), &["--store"]).unwrap();
        assert_eq!(cli.rest, args("--store"));
    }

    #[test]
    fn cli_resolves_the_selector_first_and_the_rest_in_order() {
        let line = "--measure 1 --set measure=2 --preset smoke --counters baseline --dump-scenario";
        let cli = resolve_cli(Scenario::default(), &args(line), &[]).unwrap();
        let mut expected = preset("smoke").unwrap();
        expected.set("measure=2").unwrap();
        expected.set("confidence=baseline").unwrap();
        assert_eq!(cli.scenario, expected);
        assert!(cli.selected && cli.dump && cli.rest.is_empty());
        let err = resolve_cli(Scenario::default(), &args("--preset smoke --preset fig3"), &[]);
        assert_eq!(err.unwrap_err(), "--preset given twice");
        let err = resolve_cli(Scenario::default(), &args("--seed"), &[]).unwrap_err();
        assert_eq!(err, "--seed requires a value");
        // Dotted and no-op keys have no `--KEY` spelling.
        let cli = resolve_cli(Scenario::default(), &args("--trace_cache on"), &[]).unwrap();
        assert_eq!(cli.rest, args("--trace_cache on"));
    }

    #[test]
    fn core_overrides_apply_onto_table2() {
        let sc: Scenario = "core.fetch_width = 4\ncore.rob_entries = 128".parse().unwrap();
        let core = sc.core_config();
        assert_eq!(core.fetch_width, 4);
        assert_eq!(core.rob_entries, 128);
        // Non-overridden fields keep the Table 2 defaults.
        assert_eq!(core.iq_entries, CoreConfig::default().iq_entries);
        assert_eq!(core.seed, sc.settings.seed);
        assert_eq!(core.validate(), Ok(()));
    }

    #[test]
    fn every_preset_is_valid_and_round_trips() {
        for name in preset_names() {
            let sc = preset(name).unwrap();
            sc.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            let rendered = sc.to_string();
            let reparsed: Scenario =
                rendered.parse().unwrap_or_else(|e| panic!("{name}: {e}\n{rendered}"));
            assert_eq!(reparsed, sc, "{name}");
        }
        assert!(preset("fig9").unwrap_err().contains("paper-grid"));
    }

    #[test]
    fn preset_grids_match_their_experiments() {
        // The figure presets expand to the grids the experiment functions
        // historically hard-coded.
        assert_eq!(preset("fig4b").unwrap().grid_points().len(), 4);
        assert_eq!(preset("fig6").unwrap().grid_points().len(), 2);
        assert_eq!(preset("fig7").unwrap().grid_points().len(), 5);
        assert_eq!(preset("accuracy").unwrap().grid_points().len(), 8);
        assert_eq!(preset("counters").unwrap().grid_points().len(), 8);
        assert_eq!(preset("backtoback").unwrap().grid_points().len(), 0);
        assert_eq!(preset("recovery").unwrap().grid_points().len(), 2);
        // `accuracy` interleaves (kind, scheme) with kind outermost.
        let pts = preset("accuracy").unwrap().grid_points();
        assert_eq!(pts[0].kind, PredictorKind::Lvp);
        assert_eq!(pts[0].scheme, SchemeChoice::Baseline);
        assert_eq!(pts[1].kind, PredictorKind::Lvp);
        assert_eq!(pts[1].scheme, SchemeChoice::Fpc);
    }

    #[test]
    fn with_grid_of_keeps_sizing_and_core() {
        let mut base = Scenario::default();
        base.set("measure=1234").unwrap();
        base.set("core.fetch_width=4").unwrap();
        base.set("benchmarks=gzip").unwrap();
        let merged = base.with_grid_of(&preset("fig6").unwrap());
        assert_eq!(merged.settings.measure, 1234);
        assert_eq!(merged.core.fetch_width, Some(4));
        assert_eq!(merged.benches.len(), 1);
        assert_eq!(merged.grid_points(), preset("fig6").unwrap().grid_points());
    }

    #[test]
    fn scenario_run_matches_equivalent_sweep_spec() {
        let sc: Scenario =
            "warmup = 500\nmeasure = 2000\npredictors = vtage\nbenchmarks = gzip".parse().unwrap();
        let from_scenario = sc.run();
        let from_spec = sc.to_spec().run();
        assert_eq!(from_scenario.table().to_csv(), from_spec.table().to_csv());
        assert_eq!(from_scenario.baseline.rows[0].1, from_spec.baseline.rows[0].1);
    }
}
