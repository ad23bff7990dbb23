//! Full device pipeline with a kernel-by-kernel clock report, on both of
//! the paper's GPUs (V100 and RTX 5000).
//!
//! ```sh
//! cargo run --release -p huff --example gpu_pipeline
//! ```

use huff::decode::DecoderKind;
use huff::prelude::*;

fn main() -> Result<(), HuffError> {
    let data = PaperDataset::NyxQuant.generate(16 << 20, 3);
    let sb = PaperDataset::NyxQuant.symbol_bytes();
    let input_bytes = (data.len() as u64 * sb) as f64;

    for gpu in [Gpu::v100(), Gpu::rtx5000()] {
        println!("=== {} ===", gpu.spec().name);
        let (stream, book, report) =
            pipeline::run(&gpu, &data, sb, 1024, 10, Some(3), PipelineKind::ReduceShuffle)?;
        let (decoded, _) =
            huff::decode::gpu::decode_kind_on_gpu(&gpu, &stream, &book, DecoderKind::Chunked)?;
        assert_eq!(decoded, data);

        println!("{:<26} {:>9} {:>12} {:>10}", "kernel", "launches", "time ms", "share %");
        let clock = gpu.clock();
        let total = clock.elapsed();
        for (name, launches, secs) in clock.by_kernel() {
            println!(
                "{:<26} {:>9} {:>12.4} {:>9.1}%",
                name,
                launches,
                secs * 1e3,
                100.0 * secs / total
            );
        }
        println!("{:<26} {:>9} {:>12.4} {:>9.1}%", "TOTAL", clock.launches(), total * 1e3, 100.0);
        println!(
            "overall {:.1} GB/s | encode {:.1} GB/s | avg {:.4} bits | breaking {:.6}% | ratio {:.2}x\n",
            gpu_sim::gbps(input_bytes / total),
            report.encode_gbps(),
            report.avg_bits,
            report.breaking_fraction * 100.0,
            report.compression_ratio
        );
    }
    Ok(())
}
