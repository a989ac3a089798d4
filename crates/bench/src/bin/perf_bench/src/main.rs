//! `perf_bench` — the repo's benchmark.
//!
//! One command builds a workload from `--seed`, drives the real
//! `drec-serve` / `drec-sched` runtime through its public handle in a
//! closed loop, checks outputs against the reference executor, and
//! prints every metric by name with its unit; the last output line is
//! the machine-readable result. `--trace` repeats the workload with
//! spans recorded and replays the recorded requests layer by layer. See
//! `README.md` beside this package for the names and how to read them.

mod layers;
mod loadgen;
mod openloop;
mod procfs;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};

use report::{END_TO_END, HEADLINE};
use workloads::{Workload, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
const RUN_SECONDS: u64 = 20;

const USAGE: &str = "usage: perf_bench --workload <name>[,<name>...] [--seed <u64>] [--seconds <s>]
                  [--trace [0|1]] [--trace-out <file>] [--smoke] [--repeat <n>]
                  [--allow-oracle-legs] [--emit-manifest]
workloads: sparse_zipf dense_small_batch colocated_mix update_mixed
  --repeat <n>     run the workloads n times each as child processes, in
                   alternating order, round r on seed --seed + r, and print
                   median, quartiles and spread of every end-to-end metric
  --smoke          1 window of 2 s and a warm-up of 200 requests; without
                   --workload, all four workloads
  --emit-manifest  print BENCHMARK.json as generated from the metric tables";

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_out: Option<String>,
    smoke: bool,
    repeat: Option<usize>,
    allow_oracle_legs: bool,
    emit_manifest: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        traced: false,
        trace_out: None,
        smoke: false,
        repeat: None,
        allow_oracle_legs: false,
        emit_manifest: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                for name in value("--workload")?.split(',') {
                    let w = workloads::find(name).ok_or(format!("unknown workload '{name}'"))?;
                    args.workloads.push(w);
                }
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 1.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be between 1 and 600".into());
                }
            }
            "--trace" => {
                // `--trace` alone, or the `--trace 0|1` form.
                args.traced = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--trace-out" => args.trace_out = Some(value("--trace-out")?),
            "--smoke" => args.smoke = true,
            "--repeat" => {
                let n: usize = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if n < 2 {
                    return Err("--repeat needs at least 2 runs".into());
                }
                args.repeat = Some(n);
            }
            "--allow-oracle-legs" => args.allow_oracle_legs = true,
            "--emit-manifest" => args.emit_manifest = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

/// The value a child's report prints for `name` (`  name  value unit`).
fn metric_in(report: &str, name: &str) -> Option<f64> {
    report.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        (fields.next()? == name).then(|| fields.next()?.parse().ok())?
    })
}

/// Runs one workload in a child process (a fresh process pins its own
/// `DREC_THREADS` and has its own peak RSS) and returns its report.
fn run_child(w: &Workload, args: &Args, seed: u64, echo: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &seed.to_string()]);
    cmd.args(["--seconds", &args.seconds.to_string()]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    if args.traced {
        cmd.arg("--trace");
    }
    if args.allow_oracle_legs {
        cmd.arg("--allow-oracle-legs");
    }
    let out = cmd.output().map_err(|e| format!("{}: {e}", w.name))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if echo {
        print!("{text}");
    }
    if !out.status.success() {
        return Err(format!(
            "{}: child exited with {}\n{}",
            w.name,
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(text.into_owned())
}

/// `--repeat`: n runs per workload, workload order reversed every other
/// round and round `r` on seed `--seed + r`, then median, quartiles and
/// spread of the gated metrics and of the headline ones that are not.
fn repeat(args: &Args, rounds: usize) -> Result<(), String> {
    let metrics: Vec<(&str, Option<f64>)> = HEADLINE
        .iter()
        .map(|&name| (name, None))
        .chain(
            END_TO_END
                .iter()
                .map(|&(name, _, _, bound)| (name, Some(bound))),
        )
        .collect();
    let mut values = vec![vec![Vec::new(); metrics.len()]; args.workloads.len()];
    for round in 0..rounds {
        let mut order: Vec<usize> = (0..args.workloads.len()).collect();
        if round % 2 == 1 {
            order.reverse();
        }
        for i in order {
            let w = args.workloads[i];
            let report = run_child(w, args, args.seed + round as u64, false)?;
            eprintln!(
                "round {} {}: {}",
                round + 1,
                w.name,
                report.lines().last().unwrap_or_default()
            );
            for (slot, (name, _)) in values[i].iter_mut().zip(&metrics) {
                slot.push(
                    metric_in(&report, name).ok_or(format!("{}: no {name} in report", w.name))?,
                );
            }
        }
    }
    println!(
        "perf_bench --repeat {rounds}, seeds {}..={}, {} s per run",
        args.seed,
        args.seed + rounds as u64 - 1,
        args.seconds
    );
    println!(
        "{:<18} {:<15} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "workload", "metric", "q1", "median", "q3", "spread %", "bound %"
    );
    for (w, per_metric) in args.workloads.iter().zip(&values) {
        for (v, (name, bound)) in per_metric.iter().zip(&metrics) {
            let [q1, q2, q3] = stats::quartiles(v).expect("at least two rounds");
            let spread = (q3 - q1) / q2 * 100.0;
            let bound = bound.map_or("not gated".to_string(), |b| format!("{:.0}", b * 100.0));
            println!(
                "{:<18} {name:<15} {q1:>12.4} {q2:>12.4} {q3:>12.4} {spread:>9.2} {bound:>9}",
                w.name
            );
        }
    }
    Ok(())
}

fn real_main() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = parse(&argv).map_err(|e| format!("{e}\n{USAGE}"))?;
    if args.emit_manifest {
        println!("{}", report::manifest(RUN_SECONDS));
        return Ok(ExitCode::SUCCESS);
    }
    // The scalar kernels and the lock-based queue are oracles for the
    // test suite; a number measured on them is not the system's.
    for leg in ["DREC_FORCE_SCALAR", "DREC_LOCK_QUEUE"] {
        if std::env::var_os(leg).is_some() && !args.allow_oracle_legs {
            return Err(format!("{leg} is set: refusing to measure an oracle leg (pass --allow-oracle-legs to do it anyway)"));
        }
    }
    if args.workloads.is_empty() && (args.smoke || args.repeat.is_some()) {
        args.workloads = WORKLOADS.iter().collect();
    }
    if let Some(rounds) = args.repeat {
        repeat(&args, rounds)?;
        return Ok(ExitCode::SUCCESS);
    }
    let w = match args.workloads[..] {
        [w] => w,
        [] => return Err(format!("--workload is required\n{USAGE}")),
        _ => {
            // Several workloads: one child each, output passed through.
            for w in &args.workloads {
                run_child(w, &args, args.seed, true)?;
            }
            return Ok(ExitCode::SUCCESS);
        }
    };
    // Before anything starts a thread or reads it: the intra-op pool
    // takes its width from the environment once per process.
    std::env::set_var(drec_par::THREADS_ENV, w.threads.to_string());
    let out = run::run(&run::RunArgs {
        workload: w,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        trace_out: args.trace_out,
        smoke: args.smoke,
    });
    report::print(&out.host, out.noisy, &out.outcome, &out.metrics, &out.notes);
    Ok(if out.outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("perf_bench: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_driver_form_of_the_command_line_parses() {
        let a = parse(&argv(
            "--workload update_mixed --seed 42 --seconds 15 --trace 0",
        ))
        .expect("parses");
        assert_eq!(
            (a.workloads[0].name, a.seed, a.seconds, a.traced),
            ("update_mixed", 42, 15.0, false)
        );
        let a = parse(&argv(
            "--workload sparse_zipf,colocated_mix --trace 1 --repeat 3",
        ))
        .expect("parses");
        assert_eq!((a.workloads.len(), a.traced, a.repeat), (2, true, Some(3)));
        // A bare `--trace` followed by another flag is still a traced run.
        let a = parse(&argv("--trace --smoke")).expect("parses");
        assert!(a.traced && a.smoke);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--repeat 1",
            "--bogus",
            "--seed",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn a_metric_is_read_back_from_a_report() {
        let report = "perf_bench: workload=x seed=1 trace=0\n  goodput_qps      258.1250 1/s\n  \
                      latency_p50_ms   3.5000 ms\nnote: goodput_qps 9 ignored\n{\"correct\":true}\n";
        assert_eq!(metric_in(report, "goodput_qps"), Some(258.125));
        assert_eq!(metric_in(report, "latency_p50_ms"), Some(3.5));
        assert_eq!(metric_in(report, "latency_p50"), None);
    }
}
