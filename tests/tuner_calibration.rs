//! Calibration of the autotuner's modeled makespan against the real
//! batched pipeline's replay.
//!
//! The tuner prices a candidate geometry with the kernels' own ledgers fed
//! counters it estimates from the workload signature, then replays the
//! records through the same stream scheduler the batch engine uses. This
//! test sets that model next to `batch::compress_batched`'s replay of the
//! same input (DESIGN.md § "Modeling a candidate") and checks the one
//! property the tuner relies on: whenever two geometries' real makespans
//! differ by more than the hysteresis, the model ranks them the same way.
//!
//! Inputs are a power of two in length, so the signature's representative
//! size class is the input's own length.

use gpu_sim::DeviceSpec;
use huff_core::batch::{compress_batched, BatchOptions};
use huff_core::entropy::decide_reduction_factor;
use huff_core::plan::KernelPlan;
use huff_core::tune::{geometry_seconds, Signature, GEOMETRY_HYSTERESIS};
use huff_datasets::PaperDataset;

/// Symbols per input: 2^19 keeps the debug-profile run to a few seconds.
const SYMBOLS: usize = 1 << 19;

/// One calibration row: a (shards, streams) geometry of one dataset.
struct Row {
    dataset: &'static str,
    geometry: (u32, u32),
    real: f64,
    modeled: f64,
}

fn rows(dataset: PaperDataset, geometries: [(u32, u32); 2]) -> [Row; 2] {
    let spec = DeviceSpec::v100();
    let data = dataset.generate(SYMBOLS, 0xD5EA5E);
    let sig = Signature::measure(&data, dataset.num_symbols(), dataset.symbol_bytes() as u8)
        .expect("signature");
    assert_eq!(sig.representative_symbols(), SYMBOLS as u64);
    let r = decide_reduction_factor(sig.avg_bits(), 32, 10);
    geometries.map(|(shards, streams)| {
        let mut opts = BatchOptions::new(dataset.num_symbols());
        opts.symbol_bytes = sig.symbol_bytes;
        opts.shard_symbols = SYMBOLS.div_ceil(shards as usize);
        opts.streams = streams as usize;
        opts.reduction = Some(r);
        let (_, report) = compress_batched(&data, &opts).expect("batched compress");
        Row {
            dataset: dataset.name(),
            geometry: (shards, streams),
            real: report.makespan,
            modeled: geometry_seconds(&sig, &spec, r, shards, streams, KernelPlan::default()),
        }
    })
}

#[test]
fn tuner_ranks_geometries_like_the_replay() {
    let table = [
        rows(PaperDataset::NyxQuant, [(1, 2), (4, 4)]),
        rows(PaperDataset::Enwik8, [(1, 2), (4, 4)]),
        rows(PaperDataset::Flan1565, [(4, 2), (4, 4)]),
    ];
    println!("| dataset | geometry | real | modeled | modeled/real |");
    println!("|---|---|---|---|---|");
    for row in table.iter().flatten() {
        println!(
            "| {} | {}×{} | {:.1} µs | {:.1} µs | {:.3} |",
            row.dataset,
            row.geometry.0,
            row.geometry.1,
            row.real * 1e6,
            row.modeled * 1e6,
            row.modeled / row.real
        );
    }
    let mut separated = 0;
    for [a, b] in &table {
        let (fast, slow) = if a.real < b.real { (a, b) } else { (b, a) };
        if fast.real < slow.real * (1.0 - GEOMETRY_HYSTERESIS) {
            separated += 1;
            assert!(
                fast.modeled < slow.modeled,
                "{}: the replay finds {}×{} faster ({:.1} vs {:.1} µs), the model does not \
                 ({:.1} vs {:.1} µs)",
                fast.dataset,
                fast.geometry.0,
                fast.geometry.1,
                fast.real * 1e6,
                slow.real * 1e6,
                fast.modeled * 1e6,
                slow.modeled * 1e6
            );
        }
    }
    assert!(separated > 0, "no pair of geometries differs by more than the hysteresis");
}
