//! Shared plumbing for the figure/table regeneration binaries and the six
//! subsystem benches.
//!
//! Every figure binary regenerates one table or figure from the paper; run
//! them with `cargo run --release -p drec-bench --bin <name>`. They accept
//! `--tiny` (miniature model scale, to smoke-test the harness) and
//! `--quick` (a reduced batch grid). Any other argument is an error: the
//! binary names the flags it supports and exits with status 2.
//!
//! # The `BENCH_*.json` shape
//!
//! The subsystem benches (`kernel_bench`, `store_bench`, `graph_bench`,
//! `queue_bench`, `sched_bench`, `chaos_bench`) measure, then hand rows and
//! gates to one [`report::Report`], which writes one shape for all six:
//!
//! ```text
//! {
//!   "bench": "store",            // BENCH_store.json
//!   "mode": "full",              // "full" (no flag), "smoke", or "quick"
//!   "host": {"parallelism": 2, "second_core_throughput": 1.7,
//!            "pool_threads": 4, "kernel_backend": "avx2-fma"},
//!   "gates": {
//!     "int8_compression": {"verdict": "ok", "measured": 3.2,
//!                          "limit": 3.0, "where": "dim 32"},
//!     ...
//!   },
//!   "<section>": [ {row}, {row}, ... ],   // the bench's own measurements
//!   ...
//! }
//! ```
//!
//! * `host` is captured by the report, the same four fields for every
//!   bench. `second_core_throughput` is what two spinning threads did over
//!   one (see `second_core_throughput`), the lowest of the samples taken
//!   at start, at finish and wherever the bench asked for one.
//! * A gate's `verdict` is `"ok"`, `"FAILED: <measured> vs <limit> at
//!   <where>"` or `"skipped: <reason>"` (a gate this host or mode cannot
//!   judge). Every gate is evaluated and printed; the process exits
//!   non-zero only after the file is written, if any verdict is `FAILED`.
//! * Only a run with no flags is a baseline: it writes `BENCH_<x>.json` in
//!   the working directory and appends one line (bench, commit, host, each
//!   gate's verdict and measured value) to `BENCH_history.jsonl`. A
//!   `--smoke` / `--quick` / `--tiny` run writes
//!   `target/bench/BENCH_<x>.<mode>.json` and leaves both alone.

use drec_core::{CharacterizeOptions, PAPER_BATCH_GRID};
use drec_models::{ModelId, ModelScale};

/// Parsed command-line options shared by all binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchArgs {
    /// Model scale to build.
    pub scale: ModelScale,
    /// Use a reduced batch grid.
    pub quick: bool,
}

impl BenchArgs {
    /// Parses `std::env::args`; an unknown flag ends the process with
    /// status 2.
    pub fn parse() -> Self {
        let flags = report::Flags::from_env(&["--tiny", "--quick"]);
        BenchArgs {
            scale: flags.scale(),
            quick: flags.quick,
        }
    }

    /// The batch grid to sweep (Fig 3/4/5 x-axis).
    pub fn batch_grid(&self) -> Vec<usize> {
        if self.quick {
            vec![1, 16, 256, 4096]
        } else {
            PAPER_BATCH_GRID.to_vec()
        }
    }

    /// The batch sizes Fig 6 plots.
    pub fn fig6_batches(&self) -> Vec<usize> {
        if self.quick {
            vec![4, 1024]
        } else {
            vec![4, 64, 1024, 16384]
        }
    }

    /// Characterization fidelity to use.
    pub fn options(&self) -> CharacterizeOptions {
        match self.scale {
            ModelScale::Tiny => CharacterizeOptions::fast(),
            ModelScale::Paper => CharacterizeOptions::paper(),
        }
    }

    /// All eight models.
    pub fn models(&self) -> Vec<ModelId> {
        ModelId::ALL.to_vec()
    }
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            scale: ModelScale::Paper,
            quick: false,
        }
    }
}

/// The one way a bench takes wall-clock time: [`time`](timing::time)
/// reads the clock around one call, and [`paired`](timing::paired) repeats
/// two calls alternately, so that both sides of a ratio see the same host
/// ([`sample`](timing::sample): one), into a [`Spread`](timing::Spread)
/// each, which [`Gate::timed`](report::Gate::timed) judges. Each repeated
/// call returns what it measured with `time`, so it can prepare what it
/// times off the clock. Criterion is unavailable offline; the `benches/`
/// targets use [`bench`](timing::bench).
pub mod timing {
    use std::time::Instant;

    /// The fastest and the median of a set of timed calls, in the unit
    /// the calls returned: seconds, or seconds per row, per product.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Spread {
        pub fastest: f64,
        pub median: f64,
    }

    /// Seconds one call of `f` takes. What it returns is dropped after
    /// the clock stops.
    pub fn time<T>(f: impl FnOnce() -> T) -> f64 {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let seconds = start.elapsed().as_secs_f64();
        drop(out);
        seconds
    }

    /// One untimed warm-up call of `lap`, then `n` (at least one) whose
    /// readings are kept: the seconds it measured with [`time`], or those
    /// divided by the rows or products it timed.
    pub fn sample(n: usize, lap: impl FnMut() -> f64) -> Spread {
        paired(n, lap, || 0.0).0
    }

    /// [`sample`] of `a` and `b` at once, their calls alternating.
    pub fn paired(
        n: usize,
        mut a: impl FnMut() -> f64,
        mut b: impl FnMut() -> f64,
    ) -> (Spread, Spread) {
        a(); // the warm-up
        b();
        let (a, b): (Vec<_>, Vec<_>) = (0..n.max(1)).map(|_| (a(), b())).unzip();
        let spread = |mut laps: Vec<f64>| {
            laps.sort_by(f64::total_cmp);
            let (fastest, median) = (laps[0], laps[laps.len() / 2]);
            Spread { fastest, median }
        };
        (spread(a), spread(b))
    }

    /// Runs and reports one named benchmark: about half a second of calls
    /// (at most 1 000), sized by the first.
    pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) {
        let once = time(&mut f);
        let n = (0.5 / once).clamp(1.0, 1_000.0) as usize;
        let spread = sample(n, || time(&mut f));
        println!(
            "{name:<40} {n:>5} iters  fastest {}  median {}",
            fmt_secs(spread.fastest),
            fmt_secs(spread.median)
        );
    }

    /// Seconds in the unit that suits them.
    pub fn fmt_secs(s: f64) -> String {
        let mut units = [(1.0, "s"), (1e-3, "ms"), (1e-6, "µs")].into_iter();
        let (scale, unit) = units.find(|&(scale, _)| s >= scale).unwrap_or((1e-9, "ns"));
        format!("{:.2} {unit}", s / scale)
    }
}

/// Costs that repeat exactly from run to run, where seconds on a shared
/// host do not. So far one: [`CountingAlloc`](counters::CountingAlloc),
/// the heap bytes live and at their high-water mark. A bench bin that
/// wants them installs it as its `#[global_allocator]`; the library and
/// the other bins run on the system allocator.
pub mod counters {
    pub use drec_check::CountingAlloc;
}

/// Formats a speedup for grid cells.
pub fn fmt_speedup(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}x")
    } else if s >= 10.0 {
        format!("{s:.1}x")
    } else {
        format!("{s:.2}x")
    }
}

/// Formats a fraction as a percentage.
pub fn fmt_pct(f: f64) -> String {
    format!("{:.1}%", f * 100.0)
}

/// Renders a float for the `BENCH_*.json` files: nine decimals, and
/// `null` for a value JSON has no number for (NaN, ±∞ — a skipped or
/// failed measurement).
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.9}")
    } else {
        "null".to_string()
    }
}

/// Every output's shape and exact bit pattern: what two runs that must be
/// bit-identical are compared by.
pub fn output_bits(outputs: &[drec_ops::Value]) -> Vec<(Vec<usize>, Vec<u32>)> {
    let bits = |v: &drec_ops::Value| {
        let tensor = v.as_dense().expect("dense output");
        let bits = tensor.as_slice().iter().map(|x| x.to_bits()).collect();
        (tensor.dims().to_vec(), bits)
    };
    outputs.iter().map(bits).collect()
}

/// A hypothetical *integrated* accelerator: T4-class silicon moved
/// on-package, shedding most of the kernel-launch and host-interconnect
/// overheads that make discrete PCIe offload a loss for small-footprint
/// models (the paper's Fig 4 data-communication analysis). At this
/// integration level the calibrated split genuinely divides the fleet:
/// some models offload from batch 1, some only past a crossover batch,
/// some never win on the accelerator at all. `sched_bench` and
/// `serve_loadgen`'s co-located phase place batches with it.
pub fn integrated_accelerator() -> drec_sched::GpuSchedConfig {
    let mut gpu = drec_hwsim::GpuModel::t4();
    gpu.name = "T4-integrated";
    gpu.launch_overhead_s = 0.5e-6;
    gpu.min_kernel_s = 0.3e-6;
    gpu.pcie_latency_s = 0.5e-6;
    gpu.pcie_bw = 200.0e9;
    drec_sched::GpuSchedConfig {
        gpu,
        pcie_extra_s: 2.0e-6,
    }
}

/// Marsaglia's xorshift64 (shifts 13, 7, 17): the one generator the bench
/// binaries draw workload randomness from (request gaps, model picks,
/// embedding ids). It has no output multiply, so it is not xorshift64*. A
/// zero state stays zero: seed it with anything else.
pub struct XorShift64(pub u64);

impl XorShift64 {
    /// The next state, which is also the output.
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in `[0, 1)`, from the top 53 bits of [`Self::next_u64`].
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Combined throughput of two spinning threads over that of one, each
/// counting loop iterations for 50 ms: ≈ 2 on two free cores, ≈ 1 when the
/// second "core" is a time-share of the first (a throttled container, an
/// oversubscribed hypervisor). `available_parallelism` cannot tell these
/// apart, and a two-thread timing gate means nothing on the latter.
pub(crate) fn second_core_throughput() -> f64 {
    fn spin() -> u64 {
        let start = std::time::Instant::now();
        let mut n = 0u64;
        while start.elapsed().as_millis() < 50 {
            for _ in 0..1000 {
                n = std::hint::black_box(n + 1);
            }
        }
        n
    }
    let alone = spin();
    let (a, b) = std::thread::scope(|s| {
        let other = s.spawn(spin);
        (spin(), other.join().expect("spin thread"))
    });
    second_core_ratio(alone, a, b)
}

/// The pair's count over the fastest single-thread count of the three,
/// so a stall in `alone` cannot lift it above 2 (over `alone` only, it
/// read up to 5.9), and an unstalled `alone` stays the divisor.
fn second_core_ratio(alone: u64, a: u64, b: u64) -> f64 {
    (a + b) as f64 / alone.max(a).max(b) as f64
}

/// One harness for the six subsystem benches: flags, the host block, row
/// sections, named gates and the `BENCH_*.json` file (shape in the crate
/// docs).
pub mod report {
    use super::timing::{fmt_secs, Spread};
    use super::{json_f64, second_core_throughput, ModelScale};
    use std::cmp::Ordering;
    use std::io::Write;
    use std::path::Path;

    /// A JSON value. Objects keep their keys in insertion order; floats
    /// render through `json_f64`, so NaN and ±∞ become `null`.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        Null,
        Bool(bool),
        Int(u64),
        Num(f64),
        Str(String),
        Array(Vec<Json>),
        Object(Vec<(String, Json)>),
    }

    /// Builds a [`Json::Object`] row: `row! {"model": name, "batch": 4}`.
    #[macro_export]
    macro_rules! row {
        ($($key:literal : $value:expr),* $(,)?) => {
            $crate::report::Json::Object(vec![
                $(($key.to_string(), $crate::report::Json::from($value))),*
            ])
        };
    }

    macro_rules! json_from {
        ($($ty:ty => |$v:ident| $json:expr),* $(,)?) => {
            $(impl From<$ty> for Json {
                fn from($v: $ty) -> Json {
                    $json
                }
            })*
        };
    }
    json_from! {
        bool => |v| Json::Bool(v),
        u32 => |v| Json::Int(u64::from(v)),
        u64 => |v| Json::Int(v),
        usize => |v| Json::Int(v as u64),
        f32 => |v| Json::Num(f64::from(v)),
        f64 => |v| Json::Num(v),
        &str => |v| Json::Str(v.to_string()),
        String => |v| Json::Str(v),
        Vec<Json> => |v| Json::Array(v),
    }

    impl<T: Into<Json>> From<Option<T>> for Json {
        fn from(v: Option<T>) -> Json {
            v.map_or(Json::Null, Into::into)
        }
    }

    impl FromIterator<Json> for Json {
        fn from_iter<I: IntoIterator<Item = Json>>(rows: I) -> Json {
            Json::Array(rows.into_iter().collect())
        }
    }

    impl Json {
        /// `pretty` is the file layout — a container that holds only scalars
        /// sits on one line, any other puts one child per line; without it
        /// everything is one line (a `BENCH_history.jsonl` record).
        pub fn render(&self, pretty: bool) -> String {
            let mut out = String::new();
            self.write(&mut out, pretty.then_some(0));
            out
        }

        /// The value under `key` of a row: a bench reads what its gates
        /// judge back from the rows it reports.
        fn get(&self, key: &str) -> &Json {
            let Json::Object(fields) = self else {
                panic!("{self:?} is not a row")
            };
            let field = fields.iter().find(|(k, _)| k == key);
            &field
                .unwrap_or_else(|| panic!("{self:?} has no key '{key}'"))
                .1
        }

        /// The number under `key` of a row.
        pub fn num(&self, key: &str) -> f64 {
            match self.get(key) {
                Json::Int(v) => *v as f64,
                Json::Num(v) => *v,
                other => panic!("'{key}' is {other:?}, not a number"),
            }
        }

        /// The bool under `key` of a row.
        pub fn flag(&self, key: &str) -> bool {
            match self.get(key) {
                Json::Bool(v) => *v,
                other => panic!("'{key}' is {other:?}, not a bool"),
            }
        }

        /// The string under `key` of a row.
        pub fn text(&self, key: &str) -> &str {
            match self.get(key) {
                Json::Str(v) => v,
                other => panic!("'{key}' is {other:?}, not a string"),
            }
        }

        fn write(&self, out: &mut String, indent: Option<usize>) {
            match self {
                Json::Null => out.push_str("null"),
                Json::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
                Json::Int(v) => out.push_str(&v.to_string()),
                Json::Num(v) => out.push_str(&json_f64(*v)),
                Json::Str(v) => write_str(out, v),
                Json::Array(items) => {
                    let children = items.iter().map(|v| (None, v));
                    write_children(out, indent, ['[', ']'], children);
                }
                Json::Object(fields) => {
                    let children = fields.iter().map(|(k, v)| (Some(k.as_str()), v));
                    write_children(out, indent, ['{', '}'], children);
                }
            }
        }
    }

    fn write_children<'a>(
        out: &mut String,
        indent: Option<usize>,
        [open, close]: [char; 2],
        children: impl Iterator<Item = (Option<&'a str>, &'a Json)> + Clone,
    ) {
        let nested = |v: &Json| matches!(v, Json::Array(_) | Json::Object(_));
        // `Some(n)`: one child per line, `n` spaces deep.
        let lines = indent
            .filter(|_| children.clone().any(|(_, v)| nested(v)))
            .map(|n| n + 2);
        out.push(open);
        for (i, (key, value)) in children.enumerate() {
            match lines {
                Some(n) => {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&" ".repeat(n));
                }
                None if i > 0 => out.push_str(", "),
                None => {}
            }
            if let Some(key) = key {
                write_str(out, key);
                out.push_str(": ");
            }
            value.write(out, lines);
        }
        if let Some(n) = lines {
            out.push('\n');
            out.push_str(&" ".repeat(n - 2));
        }
        out.push(close);
    }

    fn write_str(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// The flags a bench can be run with.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct Flags {
        pub smoke: bool,
        pub quick: bool,
        pub(crate) tiny: bool,
    }

    impl Flags {
        /// Reads `args` against the flags a binary supports (a subset of
        /// `--smoke`, `--quick`, `--tiny`). Anything else is an error that
        /// names the supported ones: a mistyped `--smok` must not run
        /// another mode.
        pub(crate) fn parse(
            supported: &[&str],
            args: impl Iterator<Item = String>,
        ) -> Result<Self, String> {
            let mut flags = Flags::default();
            for arg in args {
                match arg.as_str() {
                    a if !supported.contains(&a) => {
                        let supported = supported.join(" ");
                        return Err(format!("unknown argument '{a}' (supported: {supported})"));
                    }
                    "--smoke" => flags.smoke = true,
                    "--quick" => flags.quick = true,
                    "--tiny" => flags.tiny = true,
                    a => unreachable!("'{a}' is declared as supported but is no known flag"),
                }
            }
            Ok(flags)
        }

        /// [`Flags::parse`] over the process arguments; an error is printed
        /// and ends the process with status 2.
        pub(crate) fn from_env(supported: &[&str]) -> Self {
            Flags::parse(supported, std::env::args().skip(1)).unwrap_or_else(|error| {
                eprintln!("error: {error}");
                std::process::exit(2)
            })
        }

        /// `"full"` with no flag set — the only mode whose file is a
        /// baseline — else `"smoke"`, else `"quick"`.
        pub(crate) fn mode(&self) -> &'static str {
            if self.smoke {
                "smoke"
            } else if self.quick || self.tiny {
                "quick"
            } else {
                "full"
            }
        }

        /// Tiny models for `--smoke` and `--tiny`, the paper's otherwise.
        pub fn scale(&self) -> ModelScale {
            if self.smoke || self.tiny {
                ModelScale::Tiny
            } else {
                ModelScale::Paper
            }
        }
    }

    /// What a result depends on besides the code: the same four fields in
    /// every `BENCH_*.json`.
    #[derive(Debug, Clone)]
    pub struct Host {
        /// `std::thread::available_parallelism`.
        pub parallelism: usize,
        /// Lowest [`second_core_throughput`] sample of the run.
        pub(crate) second_core_throughput: f64,
        /// Threads of the global `drec-par` pool (`DREC_THREADS`).
        pub pool_threads: usize,
        /// `drec_tensor::simd::backend_label` (`DREC_FORCE_SCALAR`).
        pub(crate) kernel_backend: &'static str,
    }

    impl Host {
        fn capture() -> Host {
            Host {
                parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
                second_core_throughput: f64::INFINITY,
                pool_threads: drec_par::global().threads(),
                kernel_backend: drec_tensor::simd::backend_label(),
            }
        }

        fn json(&self) -> Json {
            row! {
                "parallelism": self.parallelism,
                "second_core_throughput": self.second_core_throughput,
                "pool_threads": self.pool_threads,
                "kernel_backend": self.kernel_backend,
            }
        }
    }

    /// What a gate's measured value is held to: `>=`, `<=` or `==` (counts)
    /// the limit inside.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum Limit {
        AtLeast(f64),
        AtMost(f64),
        Equal(f64),
    }

    impl Limit {
        /// The limit, the sign it is held with, and whether `measured`
        /// holds. A NaN measurement never does.
        fn judge(self, measured: f64) -> (f64, &'static str, bool) {
            match self {
                Limit::AtLeast(limit) => (limit, ">=", measured >= limit),
                Limit::AtMost(limit) => (limit, "<=", measured <= limit),
                Limit::Equal(limit) => (limit, "==", measured == limit),
            }
        }
    }

    /// One comparison a wall-clock gate can be judged at: the side under
    /// test against the side it is held to, each a [`Spread`].
    #[derive(Debug, Clone)]
    pub struct Timed {
        measured: Spread,
        /// Whose time the reference is.
        whose: String,
        reference: Spread,
        /// The gate's `where` at this comparison.
        at: String,
    }

    impl Timed {
        /// `measured` held against `reference`, the time of `whose`. The
        /// gate's value is `measured / reference` under an `AtMost` limit
        /// and the speedup `reference / measured` under `AtLeast`.
        pub fn new(
            measured: Spread,
            (whose, reference): (impl Into<String>, Spread),
            at: impl Into<String>,
        ) -> Timed {
            let (whose, at) = (whose.into(), at.into());
            Timed {
                measured,
                whose,
                reference,
                at,
            }
        }

        /// `measured` held against an `AtMost` limit in its own unit: a
        /// reference of one unit that does not vary, so it never skips.
        pub fn alone(measured: Spread, at: impl Into<String>) -> Timed {
            let one = Spread {
                fastest: 1.0,
                median: 1.0,
            };
            Timed::new(measured, ("", one), at)
        }

        /// The gate's value at both sides' fastest runs, whether it holds
        /// there, and whether it holds there or with the reference at its
        /// median (never under `Equal`).
        fn judge(&self, limit: Limit) -> (f64, bool, bool) {
            let value = |reference: f64| match limit {
                Limit::AtLeast(_) => reference / self.measured.fastest,
                _ => self.measured.fastest / reference,
            };
            let fastest = value(self.reference.fastest);
            let holds = limit.judge(fastest).2;
            let equal = matches!(limit, Limit::Equal(_));
            let lenient = !equal && limit.judge(value(self.reference.median)).2;
            (fastest, holds, holds || lenient)
        }

        /// Worst read last: a miss even at the reference's median, then
        /// by how much slower the measured side is (which puts a miss at
        /// the fastest runs after every comparison that holds there).
        fn rank(&self, limit: Limit) -> (bool, f64) {
            let lenient = self.judge(limit).2;
            (!lenient, self.measured.fastest / self.reference.fastest)
        }
    }

    /// One named acceptance check: a measured value, the limit it is held
    /// to, and where the value was read — or why it cannot be judged here.
    #[derive(Debug, Clone)]
    pub struct Gate {
        pub(crate) name: String,
        pub(crate) measured: f64,
        pub(crate) limit: Limit,
        /// The point the value was read at (JSON key `where`): the worst
        /// shape, the offending model.
        pub(crate) at: String,
        pub(crate) skipped: Option<String>,
    }

    impl Gate {
        pub fn new(name: impl Into<String>, measured: f64, limit: Limit) -> Self {
            Gate {
                name: name.into(),
                measured,
                limit,
                at: String::new(),
                skipped: None,
            }
        }

        /// Holds when every row passes `ok`: measured is how many do, the
        /// limit how many there are, `where` the first that does not.
        pub fn all<T>(
            name: impl Into<String>,
            rows: &[T],
            ok: impl Fn(&T) -> bool,
            label: impl Fn(&T) -> String,
        ) -> Self {
            let passing = rows.iter().filter(|row| ok(row)).count();
            let gate = Gate::new(name, passing as f64, Limit::Equal(rows.len() as f64));
            gate.at(rows
                .iter()
                .find(|row| !ok(row))
                .map_or(String::new(), label))
        }

        pub fn at(mut self, at: impl Into<String>) -> Self {
            self.at = at.into();
            self
        }

        /// The one rule for a wall-clock gate: every comparison in `pairs`
        /// must hold, and the gate is judged at the one that reads worst.
        /// It is measured at the two sides' fastest runs; one that misses
        /// there but holds with the reference at its median reads
        /// `skipped: inside <reference>'s run-to-run spread (<fastest>–<median>)`,
        /// anything else that misses `FAILED`. No comparisons: NaN.
        pub fn timed(
            name: impl Into<String>,
            limit: Limit,
            pairs: impl IntoIterator<Item = Timed>,
        ) -> Self {
            let order = |a: &Timed, b: &Timed| a.rank(limit).partial_cmp(&b.rank(limit));
            let worst = pairs
                .into_iter()
                .max_by(|a, b| order(a, b).unwrap_or(Ordering::Equal));
            let Some(pair) = worst else {
                return Gate::new(name, f64::NAN, limit);
            };
            let (value, holds, lenient) = pair.judge(limit);
            let (whose, spread) = (pair.whose, pair.reference);
            let skipped = (lenient && !holds).then(|| {
                let (fastest, median) = (fmt_secs(spread.fastest), fmt_secs(spread.median));
                format!("inside {whose}'s run-to-run spread ({fastest}–{median})")
            });
            Gate::new(name, value, limit).at(pair.at).skip_if(skipped)
        }

        /// Marks the gate as not judged when there is a reason; a host or
        /// mode reason replaces a run-to-run one.
        pub fn skip_if(mut self, reason: Option<String>) -> Self {
            self.skipped = reason.or(self.skipped);
            self
        }

        /// `"ok"`, `"FAILED: <measured> vs <limit> at <where>"` or
        /// `"skipped: <reason>"`.
        pub(crate) fn verdict(&self) -> String {
            let (limit, _, holds) = self.limit.judge(self.measured);
            match &self.skipped {
                Some(reason) => format!("skipped: {reason}"),
                None if holds => "ok".to_string(),
                None => format!(
                    "FAILED: {} vs {} at {}",
                    fmt_value(self.measured),
                    fmt_value(limit),
                    self.at
                ),
            }
        }

        /// The line `finish` prints for this gate.
        fn line(&self) -> String {
            let (limit, sign, _) = self.limit.judge(self.measured);
            let at = match self.at.as_str() {
                "" => String::new(),
                at => format!(" ({at})"),
            };
            format!(
                "Gate {}: {} {sign} {}{at} — {}",
                self.name,
                fmt_value(self.measured),
                fmt_value(limit),
                self.verdict()
            )
        }
    }

    /// Counts without decimals, ratios with four, tiny values in
    /// scientific notation.
    fn fmt_value(v: f64) -> String {
        if v.fract() == 0.0 {
            format!("{v:.0}")
        } else if v.abs() >= 0.01 {
            format!("{v:.4}")
        } else {
            format!("{v:.3e}")
        }
    }

    /// One bench run: its flags and host, the sections and gates the bench
    /// hands over, and the file they end up in.
    pub struct Report {
        bench: &'static str,
        pub flags: Flags,
        pub host: Host,
        sections: Vec<(String, Json)>,
        gates: Vec<Gate>,
    }

    impl Report {
        /// Starts the run of `BENCH_<bench>.json`: parses the process
        /// arguments against the flags the bin supports (exit status 2 on
        /// any other), captures the host and prints both.
        pub fn start(bench: &'static str, supported: &[&str]) -> Report {
            let mut report = Report::new(bench, Flags::from_env(supported), Host::capture());
            report.second_core();
            println!(
                "{bench} bench: {} mode — host {}",
                report.flags.mode(),
                report.host.json().render(false)
            );
            report
        }

        pub(crate) fn new(bench: &'static str, flags: Flags, host: Host) -> Report {
            Report {
                bench,
                flags,
                host,
                sections: Vec::new(),
                gates: Vec::new(),
            }
        }

        /// Samples `second_core_throughput` now (100 ms) and returns the
        /// lowest sample so far. A bench whose gate depends on the second
        /// core calls this on both sides of the measurement: on a shared
        /// host the core can leave while it runs.
        pub fn second_core(&mut self) -> f64 {
            let lowest = &mut self.host.second_core_throughput;
            *lowest = lowest.min(second_core_throughput());
            *lowest
        }

        /// Adds a top-level key: an array of rows, or a single value.
        pub fn section(&mut self, name: &str, value: impl Into<Json>) {
            self.sections.push((name.to_string(), value.into()));
        }

        /// Adds a section of one row per item.
        pub fn rows<T>(&mut self, name: &str, items: &[T], row: impl Fn(&T) -> Json) {
            self.section(name, items.iter().map(row).collect::<Json>());
        }

        pub fn gate(&mut self, gate: Gate) {
            self.gates.push(gate);
        }

        /// Writes the file, prints every gate's verdict, and only then ends
        /// the process with status 1 if any gate failed.
        pub fn finish(mut self) {
            self.second_core();
            let root = std::env::current_dir().expect("working directory");
            if !self.write(&root) {
                std::process::exit(1);
            }
        }

        /// [`Report::finish`] under `root`, without the exit: whether every
        /// gate held.
        pub(crate) fn write(&self, root: &Path) -> bool {
            let mode = self.flags.mode();
            let gate_json = |fields: fn(&Gate) -> Json| {
                let gates = self.gates.iter().map(|g| (g.name.clone(), fields(g)));
                Json::Object(gates.collect())
            };
            let mut top = vec![
                ("bench".to_string(), Json::from(self.bench)),
                ("mode".to_string(), Json::from(mode)),
                ("host".to_string(), self.host.json()),
                (
                    "gates".to_string(),
                    gate_json(|g| {
                        row! {"verdict": g.verdict(), "measured": g.measured, "limit": g.limit.judge(g.measured).0, "where": g.at.as_str()}
                    }),
                ),
            ];
            top.extend(self.sections.iter().cloned());
            let baseline = mode == "full";
            let path = if baseline {
                root.join(format!("BENCH_{}.json", self.bench))
            } else {
                let dir = root.join("target/bench");
                std::fs::create_dir_all(&dir).expect("create target/bench");
                dir.join(format!("BENCH_{}.{mode}.json", self.bench))
            };
            std::fs::write(&path, Json::Object(top).render(true) + "\n")
                .expect("write the BENCH file");
            println!("Wrote {}", path.display());
            if baseline {
                let record = row! {
                    "bench": self.bench,
                    "commit": git_head(root),
                    "host": self.host.json(),
                    "gates": gate_json(|g| row! {"verdict": g.verdict(), "measured": g.measured}),
                };
                let history = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(root.join("BENCH_history.jsonl"));
                writeln!(
                    history.expect("open BENCH_history.jsonl"),
                    "{}",
                    record.render(false)
                )
                .expect("append to BENCH_history.jsonl");
            }
            self.gate_lines().iter().for_each(|line| println!("{line}"));
            self.failed() == 0
        }

        fn failed(&self) -> usize {
            let failed = |g: &&Gate| g.verdict().starts_with("FAILED");
            self.gates.iter().filter(failed).count()
        }

        /// One line per gate, then the summary line.
        pub(crate) fn gate_lines(&self) -> Vec<String> {
            let summary = match self.failed() {
                0 => "All checks passed.".to_string(),
                n => format!("{n} of {} gates FAILED.", self.gates.len()),
            };
            self.gates.iter().map(Gate::line).chain([summary]).collect()
        }
    }

    /// `git rev-parse --short HEAD` in `root`, or `"unknown"`.
    fn git_head(root: &Path) -> String {
        let output = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .current_dir(root)
            .output();
        match output {
            Ok(out) if out.status.success() => {
                String::from_utf8_lossy(&out.stdout).trim().to_string()
            }
            _ => "unknown".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::report::Limit::{self, AtLeast, AtMost, Equal};
    use super::report::{Flags, Gate, Host, Json, Report, Timed};
    use super::timing::Spread;
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn default_grid_matches_paper() {
        let args = BenchArgs::default();
        assert_eq!(args.batch_grid(), PAPER_BATCH_GRID.to_vec());
        assert_eq!(args.models().len(), 8);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_speedup(123.4), "123x");
        assert_eq!(fmt_speedup(12.34), "12.3x");
        assert_eq!(fmt_speedup(1.234), "1.23x");
        assert_eq!(fmt_pct(0.1234), "12.3%");
    }

    #[test]
    fn json_escapes_strings() {
        let text = Json::from("say \"hi\"\\ \n\t\r\u{1}\u{1f} é");
        assert_eq!(text.render(true), r#""say \"hi\"\\ \n\t\r\u0001\u001f é""#);
        assert_eq!(row! {"a\"b": 1usize}.render(false), r#"{"a\"b": 1}"#);
    }

    #[test]
    fn json_has_no_number_for_nan_and_infinity() {
        let row = row! {"nan": f64::NAN, "inf": f64::INFINITY, "neg": f64::NEG_INFINITY, "x": 0.5};
        assert_eq!(
            row.render(false),
            r#"{"nan": null, "inf": null, "neg": null, "x": 0.500000000}"#
        );
    }

    #[test]
    fn json_keeps_insertion_order_and_nests_empty_containers() {
        let value = row! {
            "zeta": 1u64,
            "alpha": Option::<usize>::None,
            "empty_rows": Vec::<Json>::new(),
            "empty_row": Json::Object(Vec::new()),
            "flag": true,
        };
        assert_eq!(
            value.render(true),
            "{\n  \"zeta\": 1,\n  \"alpha\": null,\n  \"empty_rows\": [],\n  \"empty_row\": {},\n  \"flag\": true\n}"
        );
        assert_eq!(
            value.render(false),
            r#"{"zeta": 1, "alpha": null, "empty_rows": [], "empty_row": {}, "flag": true}"#
        );
    }

    #[test]
    fn json_layout_puts_rows_on_one_line_each() {
        let value = row! {"mode": "smoke", "rows": vec![row! {"a": 1u32}, row! {"a": 2u32}]};
        assert_eq!(
            value.render(true),
            "{\n  \"mode\": \"smoke\",\n  \"rows\": [\n    {\"a\": 1},\n    {\"a\": 2}\n  ]\n}"
        );
    }

    #[test]
    fn json_rows_read_back() {
        let row = row! {"model": "DIN", "batch": 4usize, "speedup": 1.5, "ok": true};
        assert_eq!(row.text("model"), "DIN");
        assert_eq!((row.num("batch"), row.num("speedup")), (4.0, 1.5));
        assert!(row.flag("ok"));
    }

    #[test]
    fn gate_directions_at_and_around_the_limit() {
        let verdict = |measured, limit| Gate::new("g", measured, limit).at("here").verdict();
        for (inside, at, outside, limit) in [
            (1.3001, 1.3, 1.2999, AtLeast(1.3)),
            (1.2999, 1.3, 1.3001, AtMost(1.3)),
        ] {
            assert_eq!(verdict(inside, limit), "ok");
            assert_eq!(verdict(at, limit), "ok");
            let failed = format!("FAILED: {outside:.4} vs 1.3000 at here");
            assert_eq!(verdict(outside, limit), failed);
        }
        assert_eq!(verdict(8.0, Equal(8.0)), "ok");
        assert_eq!(verdict(7.0, Equal(8.0)), "FAILED: 7 vs 8 at here");
        assert_eq!(verdict(9.0, Equal(8.0)), "FAILED: 9 vs 8 at here");
        assert!(verdict(f64::NAN, AtMost(1.0)).starts_with("FAILED: NaN"));
    }

    #[test]
    fn gate_skipped_and_all() {
        let skipped = Gate::new("g", f64::NAN, AtLeast(1.0)).skip_if(Some("one core".into()));
        assert_eq!(skipped.verdict(), "skipped: one core");
        let rows = [("a", true), ("b", false), ("c", false)];
        let gate = Gate::all("g", &rows, |r| r.1, |r| r.0.to_string());
        assert_eq!(gate.verdict(), "FAILED: 1 vs 3 at b");
        assert_eq!(
            Gate::all("g", &rows[..1], |r| r.1, |r| r.0.to_string()).verdict(),
            "ok"
        );
    }

    fn spread(fastest: f64, median: f64) -> Spread {
        Spread { fastest, median }
    }

    /// The verdict of a one-comparison wall-clock gate, against a
    /// reference that ran in 10–12 ns.
    fn timed_verdict(limit: Limit, measured: Spread) -> String {
        let reference = ("ref", spread(10e-9, 12e-9));
        Gate::timed("g", limit, [Timed::new(measured, reference, "here")]).verdict()
    }

    #[test]
    fn a_miss_inside_the_references_spread_is_skipped() {
        let skipped = "skipped: inside ref's run-to-run spread (10.00 ns–12.00 ns)";
        // measured / reference <= 1.1: 1.05; 1.2 at the fastest reference
        // but 1.0 at its median; 1.4 and 1.17.
        assert_eq!(timed_verdict(AtMost(1.1), spread(10.5e-9, 11e-9)), "ok");
        assert_eq!(timed_verdict(AtMost(1.1), spread(12e-9, 13e-9)), skipped);
        let missed = timed_verdict(AtMost(1.1), spread(14e-9, 14e-9));
        assert_eq!(missed, "FAILED: 1.4000 vs 1.1000 at here");
        // reference / measured >= 2: 2.5; 1.82 but 2.18; 1.43 and 1.71.
        assert_eq!(timed_verdict(AtLeast(2.0), spread(4e-9, 9e-9)), "ok");
        assert_eq!(timed_verdict(AtLeast(2.0), spread(5.5e-9, 6e-9)), skipped);
        let missed = timed_verdict(AtLeast(2.0), spread(7e-9, 7e-9));
        assert!(
            missed.starts_with("FAILED: 1.4286 vs 2 at here"),
            "{missed}"
        );
    }

    #[test]
    fn what_the_spread_rule_never_skips() {
        for limit in [AtMost(1.1), AtLeast(2.0)] {
            let nan = timed_verdict(limit, spread(f64::NAN, f64::NAN));
            assert!(nan.starts_with("FAILED: NaN"), "{nan}");
        }
        // 1.2 at the fastest reference, exactly 1 at its median.
        assert!(timed_verdict(Equal(1.0), spread(12e-9, 12e-9)).starts_with("FAILED"));
        let one_sample = ("ref", spread(10e-9, 10e-9));
        let gate = Gate::timed(
            "g",
            AtMost(1.1),
            [Timed::new(spread(12e-9, 13e-9), one_sample, "")],
        );
        assert!(gate.verdict().starts_with("FAILED"));
        let alone = Gate::timed("g", AtMost(25.0), [Timed::alone(spread(26.0, 30.0), "")]);
        assert!(alone.verdict().starts_with("FAILED"));
    }

    #[test]
    fn a_timed_gate_reads_its_worst_comparison() {
        let pair = |ns: f64, reference: Spread, at: &str| {
            Timed::new(spread(ns * 1e-9, ns * 1e-9), ("ref", reference), at)
        };
        // Under AtMost(1.1): holds; 1.3 but inside the spread; 1.2 and a
        // miss, which outranks the larger ratio inside the spread.
        let ok = pair(10.0, spread(10e-9, 12e-9), "ok");
        let inside = pair(13.0, spread(10e-9, 14e-9), "inside");
        let miss = pair(12.0, spread(10e-9, 10e-9), "miss");
        let gate = |pairs: &[&Timed]| {
            let gate = Gate::timed("g", AtMost(1.1), pairs.iter().map(|&p| p.clone()));
            (gate.at.clone(), gate.verdict())
        };
        let (at, verdict) = gate(&[&ok, &inside]);
        assert_eq!((at.as_str(), &verdict[..8]), ("inside", "skipped:"));
        let (at, verdict) = gate(&[&inside, &miss, &ok]);
        assert_eq!((at.as_str(), &verdict[..7]), ("miss", "FAILED:"));
        assert_eq!(gate(&[&ok]).1, "ok");
        assert!(gate(&[]).1.starts_with("FAILED: NaN"));
        // A host reason replaces the spread's; no reason keeps it.
        let inside = || Gate::timed("g", AtMost(1.1), [inside.clone()]);
        assert_eq!(
            inside().skip_if(Some("one core".into())).verdict(),
            "skipped: one core"
        );
        assert!(inside().skip_if(None).verdict().contains("spread"));
    }

    #[test]
    fn sample_and_paired_keep_the_fastest_and_the_median() {
        let mut laps = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0].into_iter();
        // The first lap is the warm-up.
        let s = timing::sample(5, || laps.next().expect("six laps"));
        assert_eq!(s, spread(1.0, 3.0));
        let (mut a, mut b) = (
            [9.0, 3.0, 1.0, 2.0].into_iter(),
            [0.0, 6.0, 4.0, 5.0].into_iter(),
        );
        let (a, b) = timing::paired(3, || a.next().expect("a"), || b.next().expect("b"));
        assert_eq!((a, b), (spread(1.0, 2.0), spread(4.0, 5.0)));
        assert_eq!(timing::fmt_secs(12e-9), "12.00 ns");
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let parse = |args: &[&str]| {
            Flags::parse(&["--smoke", "--quick"], args.iter().map(|a| a.to_string()))
        };
        let flags = parse(&["--smoke"]).expect("supported flag");
        assert_eq!(
            (flags.smoke, flags.quick, flags.mode()),
            (true, false, "smoke")
        );
        assert_eq!(parse(&[]).expect("no flags").mode(), "full");
        assert_eq!(parse(&["--quick"]).expect("supported flag").mode(), "quick");
        let error = parse(&["--smok"]).expect_err("mistyped flag");
        assert_eq!(
            error,
            "unknown argument '--smok' (supported: --smoke --quick)"
        );
        // `--tiny` exists, but this binary did not declare it.
        assert!(parse(&["--tiny"]).is_err());
    }

    /// A report on a made-up host, and a fresh directory under `target/`
    /// for it to write into.
    fn report_in(dir: &str, flags: Flags) -> (Report, PathBuf) {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/bench-test")
            .join(dir);
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create test root");
        let host = Host {
            parallelism: 2,
            second_core_throughput: 1.7,
            pool_threads: 2,
            kernel_backend: "scalar",
        };
        (Report::new("unit", flags, host), root)
    }

    #[test]
    fn a_failed_gate_does_not_hide_the_others() {
        let (mut report, root) = report_in("failed", Flags::default());
        report.rows("latency", &[1usize, 2], |&batch| row! {"batch": batch});
        report.gate(Gate::new("fast_enough", 2.0, AtMost(1.5)).at("batch 2"));
        report.gate(
            Gate::new("two_threads", f64::NAN, AtMost(1.05)).skip_if(Some("one core".into())),
        );
        report.gate(Gate::new("answered", 600.0, Equal(600.0)).at("chaos"));
        assert_eq!(
            report.gate_lines(),
            [
                "Gate fast_enough: 2 <= 1.5000 (batch 2) — FAILED: 2 vs 1.5000 at batch 2",
                "Gate two_threads: NaN <= 1.0500 — skipped: one core",
                "Gate answered: 600 == 600 (chaos) — ok",
                "1 of 3 gates FAILED.",
            ]
        );
        assert!(!report.write(&root), "a failed gate fails the run");
        let file = std::fs::read_to_string(root.join("BENCH_unit.json")).expect("full-mode file");
        assert!(file.starts_with("{\n  \"bench\": \"unit\",\n  \"mode\": \"full\",\n  \"host\": {"));
        assert!(file.contains(r#""fast_enough": {"verdict": "FAILED: 2 vs 1.5000 at batch 2", "measured": 2.000000000, "limit": 1.500000000, "where": "batch 2"}"#));
        assert!(
            file.contains(r#""two_threads": {"verdict": "skipped: one core", "measured": null,"#)
        );
        assert!(
            file.contains("  \"latency\": [\n    {\"batch\": 1},\n    {\"batch\": 2}\n  ]\n}\n")
        );
        // Full mode leaves one line in the history, built from the same gates.
        let history = std::fs::read_to_string(root.join("BENCH_history.jsonl")).expect("history");
        assert_eq!(history.lines().count(), 1);
        assert!(history.starts_with(r#"{"bench": "unit", "commit": ""#));
        assert!(history.contains(r#""answered": {"verdict": "ok", "measured": 600.000000000}"#));
        assert!(!report.write(&root), "a second run appends");
        let history = std::fs::read_to_string(root.join("BENCH_history.jsonl")).expect("history");
        assert_eq!(history.lines().count(), 2);
    }

    #[test]
    fn smoke_mode_leaves_the_baseline_alone() {
        let smoke = Flags {
            smoke: true,
            ..Flags::default()
        };
        let (mut report, root) = report_in("smoke", smoke);
        std::fs::write(root.join("BENCH_unit.json"), "the committed baseline").expect("seed");
        report.gate(Gate::new("answered", 1.0, AtLeast(1.0)).at("smoke"));
        assert!(report.write(&root));
        let baseline = std::fs::read_to_string(root.join("BENCH_unit.json")).expect("baseline");
        assert_eq!(baseline, "the committed baseline");
        assert!(!root.join("BENCH_history.jsonl").exists());
        let file = std::fs::read_to_string(root.join("target/bench/BENCH_unit.smoke.json"));
        assert!(file.expect("smoke file").contains("\"mode\": \"smoke\""));
    }

    #[test]
    fn a_stalled_alone_sample_cannot_lift_the_second_core_above_2() {
        // `alone` stalled for most of its window: 5.9 over it alone.
        let stalled = second_core_ratio(1_000, 2_900, 3_000);
        assert!(stalled <= 2.0, "{stalled}");
        assert_eq!(stalled, 5_900.0 / 3_000.0);
        // Unstalled, `alone` stays the divisor: two free cores and one
        // shared core read as they did.
        assert_eq!(second_core_ratio(3_000, 2_900, 2_950), 5_850.0 / 3_000.0);
        assert_eq!(second_core_ratio(3_000, 1_500, 1_600), 3_100.0 / 3_000.0);
    }

    /// The stream the bench binaries' inline copies drew (`kernel_bench`'s
    /// pooled ids start from 0xBA7): the state itself, with no multiply.
    #[test]
    fn xorshift64_is_the_plain_13_7_17_stream() {
        let mut rng = XorShift64(0xBA7);
        let draws = [rng.next_u64(), rng.next_u64(), rng.next_u64()];
        assert_eq!(
            draws,
            [
                0x2ec_0596_0270,
                0x72e9_c9fd_1cbb_b274,
                0xc63c_baff_0e00_d810
            ]
        );
    }
}
