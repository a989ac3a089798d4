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
//!   one (see [`second_core_throughput`]), the lowest of the samples taken
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

/// Minimal wall-clock benchmark runner used by the `benches/` targets.
///
/// Criterion is unavailable in the offline build environment, so the bench
/// targets (`harness = false`) time closures directly: warm up briefly,
/// then run until a time budget or iteration cap is hit and report
/// min/median/mean per iteration.
pub mod timing {
    use std::time::{Duration, Instant};

    /// Runs and reports one named benchmark.
    pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) {
        // Warm-up: a few iterations so lazily-initialised state settles.
        let warm_start = Instant::now();
        let mut warm_iters = 0u32;
        while warm_iters < 3
            || (warm_start.elapsed() < Duration::from_millis(50) && warm_iters < 50)
        {
            std::hint::black_box(f());
            warm_iters += 1;
        }

        let budget = Duration::from_millis(500);
        let start = Instant::now();
        let mut samples_ns: Vec<u128> = Vec::new();
        while start.elapsed() < budget && samples_ns.len() < 1_000 {
            let t0 = Instant::now();
            std::hint::black_box(f());
            samples_ns.push(t0.elapsed().as_nanos());
        }
        samples_ns.sort_unstable();
        let min = samples_ns[0];
        let median = samples_ns[samples_ns.len() / 2];
        let mean = samples_ns.iter().sum::<u128>() / samples_ns.len() as u128;
        println!(
            "{name:<40} {:>5} iters  min {}  median {}  mean {}",
            samples_ns.len(),
            fmt_ns(min),
            fmt_ns(median),
            fmt_ns(mean)
        );
    }

    fn fmt_ns(ns: u128) -> String {
        if ns >= 1_000_000_000 {
            format!("{:.2} s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            format!("{:.2} ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            format!("{:.2} µs", ns as f64 / 1e3)
        } else {
            format!("{ns} ns")
        }
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
pub fn json_f64(v: f64) -> String {
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

/// Combined throughput of two spinning threads over that of one, each
/// counting loop iterations for 50 ms: ≈ 2 on two free cores, ≈ 1 when the
/// second "core" is a time-share of the first (a throttled container, an
/// oversubscribed hypervisor). `available_parallelism` cannot tell these
/// apart, and a two-thread timing gate means nothing on the latter.
pub fn second_core_throughput() -> f64 {
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
    (a + b) as f64 / alone as f64
}

/// One harness for the six subsystem benches: flags, the host block, row
/// sections, named gates and the `BENCH_*.json` file (shape in the crate
/// docs).
pub mod report {
    use super::{json_f64, second_core_throughput, ModelScale};
    use std::io::Write;
    use std::path::Path;

    /// A JSON value. Objects keep their keys in insertion order; floats
    /// render through [`json_f64`], so NaN and ±∞ become `null`.
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
        pub tiny: bool,
    }

    impl Flags {
        /// Reads `args` against the flags a binary supports (a subset of
        /// `--smoke`, `--quick`, `--tiny`). Anything else is an error that
        /// names the supported ones: a mistyped `--smok` must not run
        /// another mode.
        pub fn parse(
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
        pub fn from_env(supported: &[&str]) -> Self {
            Flags::parse(supported, std::env::args().skip(1)).unwrap_or_else(|error| {
                eprintln!("error: {error}");
                std::process::exit(2)
            })
        }

        /// `"full"` with no flag set — the only mode whose file is a
        /// baseline — else `"smoke"`, else `"quick"`.
        pub fn mode(&self) -> &'static str {
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
        pub second_core_throughput: f64,
        /// Threads of the global `drec-par` pool (`DREC_THREADS`).
        pub pool_threads: usize,
        /// `drec_tensor::simd::backend_label` (`DREC_FORCE_SCALAR`).
        pub kernel_backend: &'static str,
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

    /// One named acceptance check: a measured value, the limit it is held
    /// to, and where the value was read — or why it cannot be judged here.
    #[derive(Debug, Clone)]
    pub struct Gate {
        pub name: String,
        pub measured: f64,
        pub limit: Limit,
        /// The point the value was read at (JSON key `where`): the worst
        /// shape, the offending model.
        pub at: String,
        pub skipped: Option<String>,
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

        /// Marks the gate as not judged when there is a reason.
        pub fn skip_if(mut self, reason: Option<String>) -> Self {
            self.skipped = reason;
            self
        }

        /// The limit, the sign it is held with, and whether it holds. A NaN
        /// measurement never does.
        fn judge(&self) -> (f64, &'static str, bool) {
            match self.limit {
                Limit::AtLeast(limit) => (limit, ">=", self.measured >= limit),
                Limit::AtMost(limit) => (limit, "<=", self.measured <= limit),
                Limit::Equal(limit) => (limit, "==", self.measured == limit),
            }
        }

        /// `"ok"`, `"FAILED: <measured> vs <limit> at <where>"` or
        /// `"skipped: <reason>"`.
        pub fn verdict(&self) -> String {
            let (limit, _, holds) = self.judge();
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
            let (limit, sign, _) = self.judge();
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

        /// Samples [`second_core_throughput`] now (100 ms) and returns the
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
                        row! {"verdict": g.verdict(), "measured": g.measured, "limit": g.judge().0, "where": g.at.as_str()}
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
    use super::report::Limit::{AtLeast, AtMost, Equal};
    use super::report::{Flags, Gate, Host, Json, Report};
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
}
