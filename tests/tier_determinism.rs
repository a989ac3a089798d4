//! Determinism of tiered inference under *real* injected delays: seeded
//! cold-read sleeps ([`Pacing::Sleep`]), a `drec-faultsim` delay plan on
//! the store's read path, and background threads racing prefetch fills
//! against demand lookups. Residency and timing may shift between runs —
//! output bits may not, and the run must terminate (no deadlock between
//! the prefetch path and demand promotion).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use deeprec::models::{InputSlot, ModelId, ModelScale};
use deeprec::ops::{IdList, Value};
use deeprec::serve::{FaultHook, FaultPlan};
use deeprec::store::{ColdReadModel, EmbeddingStore, Pacing, StoreConfig, TierConfig};
use deeprec::tensor::ParamInit;

/// One full chaos pass: a sleep-paced tiered store with a faultsim delay
/// plan, racing prefetch threads, three inference runs. Returns the
/// concatenated output bits of all three runs.
fn chaos_bits() -> Vec<u32> {
    let plan = FaultPlan {
        delay_every_n_reads: Some(7),
        read_delay: Duration::from_micros(300),
        ..FaultPlan::quiet(11)
    };
    let mut tier = TierConfig::new(48);
    tier.cold_read = ColdReadModel {
        base: Duration::from_micros(200),
        jitter: Duration::from_micros(100),
        per_inflight: Duration::from_micros(10),
        seed: 9,
        pacing: Pacing::Sleep,
    };
    tier.prefetch = true;
    let store = Arc::new(EmbeddingStore::with_faults(
        StoreConfig {
            cache_capacity_rows: 64,
            tier: Some(tier),
            ..StoreConfig::default()
        },
        FaultHook::from_plan(&plan),
    ));
    let mut model = ModelId::Rm1
        .build_with_store(ModelScale::Tiny, 17, Arc::clone(&store))
        .unwrap();

    let mut rng = ParamInit::new(5);
    let inputs: Vec<Value> = model
        .spec()
        .slots()
        .iter()
        .map(|(_, slot)| match slot {
            InputSlot::Dense { width } => Value::dense(rng.uniform(&[3, *width], -1.0, 1.0)),
            InputSlot::Ids { lookups, id_space } => {
                let ids: Vec<u32> = (0..3 * lookups)
                    .map(|_| rng.next_index(*id_space) as u32)
                    .collect();
                Value::ids(IdList::new(ids, vec![*lookups as u32; 3]))
            }
        })
        .collect();

    // Background prefetchers hammer every table while inference runs:
    // fills (which sleep for the modelled cold latency) race demand
    // promotions for the same rows.
    let stop = Arc::new(AtomicBool::new(false));
    let racers: Vec<_> = model
        .store_bindings()
        .into_iter()
        .map(|binding| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut row = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    let target = row % binding.physical_rows;
                    binding.pin.prefetch_row(target);
                    row = row.wrapping_add(13);
                }
            })
        })
        .collect();

    let mut bits = Vec::new();
    for _ in 0..3 {
        let out = model.run(inputs.clone()).unwrap();
        bits.extend(
            out[0]
                .as_dense()
                .unwrap()
                .as_slice()
                .iter()
                .map(|x| x.to_bits()),
        );
    }
    stop.store(true, Ordering::Relaxed);
    for racer in racers {
        racer.join().unwrap();
    }
    assert!(store.stats().prefetch_fills > 0, "races never prefetched");
    bits
}

#[test]
fn tiered_inference_is_bit_stable_under_delays_and_prefetch_races() {
    let first = chaos_bits();
    let second = chaos_bits();
    assert!(!first.is_empty());
    assert_eq!(
        first, second,
        "injected delays or prefetch races changed output bits"
    );
}
