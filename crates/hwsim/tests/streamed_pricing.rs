//! A run priced as it is traced equals the collected trace priced
//! afterwards, bit for bit.
//!
//! Two identically seeded twins of each model take the same inputs: one
//! streams its run (`RecModel::run_streamed`) into `CpuSim::step` and
//! `GpuModel::step`, the other collects it (`RecModel::run_traced`) for
//! `Platform::evaluate` and `GpuModel::simulate`. Twins, because a run
//! moves its model's address space on, so one model traced twice would
//! give two different traces. All eight models at Tiny scale, batch 1 and
//! 8, and the two whose traces are largest, RM3 and DIEN, at Paper scale,
//! batch 8.

use drec_hwsim::{CpuModel, CpuSim, GpuModel, GpuTally, Platform};
use drec_models::{ModelId, ModelScale, RecModel};
use drec_ops::Value;
use drec_workload::QueryGen;

const SEED: u64 = 31;

fn twin(id: ModelId, scale: ModelScale) -> RecModel {
    id.build(scale, SEED).expect("model builds")
}

/// `seconds` and every `op_seconds` entry, as bits, with the op names.
fn priced(seconds: f64, ops: &[(String, String, f64)]) -> (u64, Vec<(&str, &str, u64)>) {
    let ops = ops
        .iter()
        .map(|(n, t, s)| (n.as_str(), t.as_str(), s.to_bits()));
    (seconds.to_bits(), ops.collect())
}

fn check(id: ModelId, scale: ModelScale, batch: usize) {
    let (mut streamed, mut collected) = (twin(id, scale), twin(id, scale));
    let inputs = QueryGen::uniform(SEED).batch(streamed.spec(), batch);
    let input_bytes = inputs.iter().map(Value::byte_size).sum();
    let (cpu, gpu) = (CpuModel::broadwell(), GpuModel::t4());

    let mut sim = CpuSim::new(cpu.clone());
    let (mut cpu_tally, mut gpu_tally) = (sim.tally(), GpuTally::default());
    let mut ops = 0;
    streamed
        .run_streamed(inputs.clone(), |op| {
            sim.step(&mut cpu_tally, &op);
            gpu.step(&mut gpu_tally, &op);
            ops += 1;
        })
        .expect("streamed run");
    let cpu_streamed = sim.finish(cpu_tally);
    let gpu_streamed = gpu.finish(gpu_tally, input_bytes);

    let (_, trace) = collected.run_traced(inputs, batch).expect("traced run");
    assert_eq!(ops, trace.ops.len(), "{id} {scale:?} b{batch}");
    let cpu_report = Platform::Cpu(cpu).evaluate(&trace);
    let cpu_collected = cpu_report.cpu.expect("a CPU report");
    let gpu_collected = gpu.simulate(&trace);

    let at = format!("{id} {scale:?} batch {batch}");
    assert_eq!(
        priced(cpu_streamed.seconds, &cpu_streamed.op_seconds),
        priced(cpu_report.seconds, &cpu_collected.op_seconds),
        "CPU, {at}"
    );
    assert_eq!(cpu_streamed, cpu_collected, "CPU counters, {at}");
    assert_eq!(
        priced(gpu_streamed.seconds, &gpu_streamed.op_seconds),
        priced(gpu_collected.seconds, &gpu_collected.op_seconds),
        "GPU, {at}"
    );
    assert_eq!(gpu_streamed, gpu_collected, "GPU counters, {at}");
}

#[test]
fn every_tiny_model_streams_to_its_collected_price() {
    for id in ModelId::ALL {
        for batch in [1, 8] {
            check(id, ModelScale::Tiny, batch);
        }
    }
}

#[test]
fn paper_scale_rm3_and_dien_stream_to_their_collected_price() {
    for id in [ModelId::Rm3, ModelId::Dien] {
        check(id, ModelScale::Paper, 8);
    }
}
