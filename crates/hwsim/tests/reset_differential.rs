//! `CpuSim::reset` against `CpuSim::new`: a simulator reset between runs
//! prices every run exactly as a fresh one does, whatever it simulated
//! before. Calibration leans on this to reuse one simulator (and its
//! 5.2 MB LLC tag array) for every model a thread calibrates.
//!
//! Both inclusion policies are covered — Broadwell's inclusive LLC and
//! Cascade Lake's exclusive one, whose `insert` / `invalidate` shuffle
//! tags inside a set — over a sequence of different traces: all eight
//! models at Tiny scale, batch 1 and 8, and the first trace again at the
//! end. Every `CpuCounters` field is compared by its bits, `fu_hist` and
//! `op_seconds` included.

use drec_hwsim::{CpuCounters, CpuModel, CpuSim};
use drec_models::{ModelId, ModelScale};
use drec_trace::RunTrace;
use drec_workload::QueryGen;

const SEED: u64 = 23;

/// Every `f64` of `c` as bits, in field order, and the op names.
fn bits(c: &CpuCounters) -> (Vec<u64>, Vec<(&str, &str)>) {
    let td = c.topdown;
    let scalars = [
        c.cycles,
        c.seconds,
        c.retired_instructions,
        c.avx_instructions,
        c.uops,
        td.retiring,
        td.frontend,
        td.bad_speculation,
        td.backend_core,
        td.backend_memory,
        c.icache_mpki,
        c.tlb_walk_mpki,
        c.branch_mpki,
        c.dsb_limited_frac,
        c.mite_limited_frac,
        c.dram_congested_frac,
    ];
    let values = scalars
        .iter()
        .chain(&c.fu_hist)
        .chain(&c.mem_level_hits)
        .chain(c.op_seconds.iter().map(|op| &op.2));
    let names = c.op_seconds.iter().map(|op| (op.0.as_str(), op.1.as_str()));
    (values.map(|v| v.to_bits()).collect(), names.collect())
}

fn traces() -> Vec<RunTrace> {
    let mut out = Vec::new();
    for id in ModelId::ALL {
        let mut model = id.build(ModelScale::Tiny, SEED).expect("model builds");
        let spec = model.spec().clone();
        let mut gen = QueryGen::uniform(SEED);
        for batch in [1, 8] {
            let inputs = gen.batch(&spec, batch);
            out.push(model.run_traced(inputs, batch).expect("trace runs").1);
        }
    }
    out.push(out[0].clone());
    out
}

#[test]
fn a_reset_simulator_prices_every_run_as_a_fresh_one() {
    let traces = traces();
    for platform in [CpuModel::broadwell(), CpuModel::cascade_lake()] {
        let name = platform.name;
        let mut reused = CpuSim::new(platform.clone());
        let mut warm = CpuSim::new(platform.clone());
        let mut warm_differs = 0;
        for (i, trace) in traces.iter().enumerate() {
            let fresh = CpuSim::new(platform.clone()).simulate(trace);
            reused.reset();
            let got = reused.simulate(trace);
            assert_eq!(bits(&got), bits(&fresh), "{name}, trace {i}");
            // Without the reset, what the earlier traces left behind shows.
            if bits(&warm.simulate(trace)) != bits(&fresh) {
                warm_differs += 1;
            }
        }
        assert!(
            warm_differs > traces.len() / 2,
            "{name}: only {warm_differs} of {} warm runs differ, so the \
             sequence leaves too little state for a reset to clear",
            traces.len()
        );
    }
}
