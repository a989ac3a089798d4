//! Wall-clock benchmarks for the substrate components: tensor kernels,
//! cache/branch/port simulators, and workload generation.

use std::hint::black_box;

use drec_bench::timing::bench;
use drec_models::{ModelId, ModelScale};
use drec_tensor::{ParamInit, Tensor};
use drec_trace::BranchProfile;
use drec_uarch::{
    BranchSynth, CacheConfig, CacheSim, GshareConfig, PortConfig, PortScheduler, UopMix,
};
use drec_workload::QueryGen;

fn main() {
    let mut init = ParamInit::new(1);
    let a = init.uniform(&[128, 128], -1.0, 1.0);
    let b = init.uniform(&[128, 128], -1.0, 1.0);
    bench("tensor_matmul_128", || {
        black_box(a.matmul(&b).expect("matmul").sum())
    });
    let w = init.uniform(&[128, 128], -1.0, 1.0);
    bench("tensor_matmul_transposed_128", || {
        black_box(a.matmul_transposed(&w).expect("matmul").sum())
    });

    let cfg = CacheConfig {
        bytes: 32 * 1024,
        ways: 8,
        line: 64,
    };
    bench("cache_sim_100k_random_accesses", || {
        let mut sim = CacheSim::new(cfg);
        let mut state = 0xDEADu64;
        for _ in 0..100_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            sim.access((state >> 12) % (1 << 28), 1.0);
        }
        black_box(sim.misses())
    });
    // Broadwell's LLC: what a Paper-scale embedding gather does to the
    // biggest tag array a `CpuSim` owns, constructed afresh as
    // `Platform::evaluate` constructs it.
    let llc = CacheConfig {
        bytes: 40 * 1024 * 1024,
        ways: 20,
        line: 64,
    };
    bench("cache_sim_llc_200k_random_lines", || {
        let mut sim = CacheSim::new(llc);
        let mut state = 0xDEADu64;
        for _ in 0..200_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            sim.access((state >> 12) % (1 << 32), 1.0);
        }
        black_box(sim.misses())
    });

    let profile = BranchProfile {
        loop_branches: 50_000.0,
        data_branches: 20_000.0,
        data_taken_rate: 0.7,
        indirect_branches: 64.0,
    };
    bench("branch_synth_70k", || {
        let mut synth = BranchSynth::new(GshareConfig {
            table_bits: 13,
            history_bits: 12,
            bimodal_fallback: false,
        });
        black_box(synth.run_op(&profile, 3).mispredicts)
    });

    let sched = PortScheduler::new(PortConfig {
        issue_width: 4,
        alu_ports: 4,
        vec_ports: 2,
        load_ports: 2,
        store_ports: 1,
        branch_ports: 1,
        gather_load_cycles: 4.0,
        total_units: 8,
    });
    let mix = UopMix {
        scalar_int: 4_000.0,
        vec_fp: 6_000.0,
        loads: 3_000.0,
        stores: 1_000.0,
        gathers: 500.0,
        branches: 1_500.0,
        ..UopMix::default()
    };
    bench("port_scheduler_16k_uops", || {
        black_box(sched.run_op(&mix).cycles)
    });
    // DIN's graph: over a thousand operators of a few hundred μops each.
    bench("port_scheduler_1000_small_ops", || {
        let mut cycles = 0.0;
        for i in 0..1_000u32 {
            let k = f64::from(i % 10);
            cycles += sched
                .run_op(&UopMix {
                    scalar_int: 90.0 + 7.0 * k,
                    vec_fp: 160.0 + 11.0 * k,
                    loads: 120.0 + 5.0 * k,
                    stores: 30.0 + k,
                    branches: 25.0 + k,
                    ..UopMix::default()
                })
                .cycles;
        }
        black_box(cycles)
    });
    // Gathers hold the load ports across cycles, so rotations seldom
    // repeat and the scheduler steps nearly every cycle.
    let gather_heavy = UopMix {
        scalar_int: 3_000.0,
        vec_fp: 2_000.0,
        loads: 1_000.0,
        gathers: 9_000.0,
        branches: 1_000.0,
        ..UopMix::default()
    };
    bench("port_scheduler_gather_heavy_16k_uops", || {
        black_box(sched.run_op(&gather_heavy).cycles)
    });

    let model = ModelId::Rm2.build(ModelScale::Tiny, 7).expect("build");
    let mut query_gen = QueryGen::uniform(5);
    bench("workload_batch_rm2_64", || {
        black_box(query_gen.batch(model.spec(), 64).len())
    });

    let mut ncf = ModelId::Ncf.build(ModelScale::Tiny, 7).expect("build");
    let mut ncf_gen = QueryGen::uniform(5);
    bench("ncf_untraced_inference_16", || {
        let inputs = ncf_gen.batch(ncf.spec(), 16);
        black_box(ncf.run(inputs).expect("run").len())
    });
    let _ = Tensor::zeros(&[1]);
}
