//! The full SZ-style error-bounded compression pipeline.
//!
//! Compression is a single causal sweep: for each sample (row-major),
//! predict from the *reconstructed* neighbours (Lorenzo), quantize the
//! residual, immediately reconstruct — so the decompressor, which replays
//! the same recurrence, sees identical predictions. Quantization codes are
//! entropy-coded with the reduce-shuffle Huffman encoder; unpredictable
//! samples go to a verbatim outlier list.
//!
//! This is exactly the setting Section II-A motivates: the quantization
//! codes need a *large* Huffman codebook (1024 bins by default here, up to
//! 65536), and the code distribution is the sharply peaked two-sided
//! geometric the `huff-datasets` Nyx-Quant generator imitates.

use crate::field::Field3;
use crate::predictor::lorenzo3;
use crate::quantizer::{Quantized, Quantizer};
use huff_core::archive;
use huff_core::encode::BreakingStrategy;
use huff_core::error::{HuffError, Result};
use huff_core::wire::Reader;

const MAGIC: &[u8; 4] = b"SZQ1";

/// Compression statistics for reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressStats {
    /// Samples stored verbatim because their residual left the bin range.
    pub unpredictable: usize,
    /// Total samples.
    pub total: usize,
    /// Compressed size in bytes.
    pub compressed_bytes: usize,
    /// Compression ratio vs `f32` input.
    pub ratio: f64,
}

/// Compress a field under an absolute error bound with `num_bins`
/// quantization bins.
pub fn compress(
    field: &Field3,
    error_bound: f32,
    num_bins: usize,
) -> Result<(Vec<u8>, CompressStats)> {
    let quant = Quantizer::new(error_bound, num_bins);
    let n = field.len();

    // Causal sweep: quantize against reconstructed neighbours.
    let mut recon = Field3::zeros(field.nx, field.ny, field.nz);
    let mut codes: Vec<u16> = Vec::with_capacity(n);
    let mut outliers: Vec<(u64, f32)> = Vec::new();
    for z in 0..field.nz {
        for y in 0..field.ny {
            for x in 0..field.nx {
                let i = field.idx(x, y, z);
                let pred = lorenzo3(&recon, x, y, z);
                let residual = field.data[i] - pred;
                match quant.quantize(residual) {
                    Quantized::Code(c) => {
                        codes.push(c);
                        recon.data[i] = pred + quant.dequantize(c);
                    }
                    Quantized::Unpredictable => {
                        codes.push(Quantizer::UNPREDICTABLE);
                        outliers.push((i as u64, field.data[i]));
                        recon.data[i] = field.data[i];
                    }
                }
            }
        }
    }

    // Entropy-code the quantization codes. Code 0 (unpredictable marker)
    // participates like any other symbol.
    let mut opts = archive::CompressOptions::new(num_bins);
    opts.strategy = BreakingStrategy::SparseSidecar;
    opts.symbol_bytes = 2;
    let coded = archive::compress(&codes, &opts)?;

    // Container: header + outliers + Huffman archive.
    let mut out = Vec::with_capacity(36 + outliers.len() * 12 + coded.len());
    out.extend_from_slice(MAGIC);
    for v in [field.nx as u32, field.ny as u32, field.nz as u32] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&error_bound.to_le_bytes());
    out.extend_from_slice(&(num_bins as u32).to_le_bytes());
    out.extend_from_slice(&(outliers.len() as u32).to_le_bytes());
    for &(i, v) in &outliers {
        out.extend_from_slice(&i.to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&(coded.len() as u64).to_le_bytes());
    out.extend_from_slice(&coded);

    let stats = CompressStats {
        unpredictable: outliers.len(),
        total: n,
        compressed_bytes: out.len(),
        ratio: (n * 4) as f64 / out.len() as f64,
    };
    Ok((out, stats))
}

/// Decompress an archive back to a field; every sample is within the
/// stored error bound of the original.
pub fn decompress(archive_bytes: &[u8]) -> Result<Field3> {
    let mut r = Reader::new(archive_bytes);
    if r.take(4)? != MAGIC {
        return Err(HuffError::BadArchive("bad sz magic".into()));
    }
    let nx = r.u32_le()? as usize;
    let ny = r.u32_le()? as usize;
    let nz = r.u32_le()? as usize;
    let error_bound = r.f32_le()?;
    let num_bins = r.u32_le()? as usize;
    // A NaN bound would reach `Quantizer::new`'s assertion.
    let bad_bound = error_bound.is_nan() || error_bound <= 0.0;
    if nx == 0 || ny == 0 || nz == 0 || !(4..=65536).contains(&num_bins) || bad_bound {
        return Err(HuffError::BadArchive("bad sz header".into()));
    }
    let n = nx
        .checked_mul(ny)
        .and_then(|v| v.checked_mul(nz))
        .ok_or_else(|| HuffError::BadArchive("field extents overflow".into()))?;

    let n_outliers = r.count("sz outliers", 12)?;
    let outliers =
        (0..n_outliers).map(|_| Ok((r.u64_le()?, r.f32_le()?))).collect::<Result<Vec<_>>>()?;

    let coded_len = usize::try_from(r.u64_le()?)
        .map_err(|_| HuffError::BadArchive("sz coded length exceeds address space".into()))?;
    let codes = archive::decompress(r.take(coded_len)?)?;
    if codes.len() != n {
        return Err(HuffError::BadArchive(format!(
            "code count {} does not match field size {n}",
            codes.len()
        )));
    }

    // Replay the causal recurrence.
    let quant = Quantizer::new(error_bound, num_bins);
    let mut recon = Field3::zeros(nx, ny, nz);
    let mut outlier_iter = outliers.iter().peekable();
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let i = recon.idx(x, y, z);
                let code = codes[i];
                if code == Quantizer::UNPREDICTABLE {
                    let &&(oi, ov) =
                        outlier_iter.peek().ok_or(HuffError::CorruptStream("missing outlier"))?;
                    if oi != i as u64 {
                        return Err(HuffError::CorruptStream("outlier index mismatch"));
                    }
                    outlier_iter.next();
                    recon.data[i] = ov;
                } else {
                    let pred = lorenzo3(&recon, x, y, z);
                    recon.data[i] = pred + quant.dequantize(code);
                }
            }
        }
    }
    Ok(recon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field;

    #[test]
    fn roundtrip_within_error_bound() {
        let f = field::smooth_cosines(32, 32, 8, 4, 1);
        for eb in [0.1f32, 0.01, 0.001] {
            let (packed, stats) = compress(&f, eb, 1024).unwrap();
            let back = decompress(&packed).unwrap();
            let err = f.max_abs_diff(&back);
            assert!(err <= eb + 1e-5, "eb={eb}: max error {err}");
            assert_eq!(stats.total, f.len());
        }
    }

    #[test]
    fn smooth_field_compresses_well() {
        let f = field::smooth_cosines(64, 64, 4, 3, 2);
        let (_, stats) = compress(&f, 0.01, 1024).unwrap();
        assert!(stats.ratio > 4.0, "ratio {}", stats.ratio);
        assert!(stats.unpredictable < f.len() / 100);
    }

    #[test]
    fn tighter_bound_lower_ratio() {
        let f = field::smooth_cosines(48, 48, 4, 4, 3);
        let (_, loose) = compress(&f, 0.05, 1024).unwrap();
        let (_, tight) = compress(&f, 0.0005, 1024).unwrap();
        assert!(loose.ratio > tight.ratio, "{} vs {}", loose.ratio, tight.ratio);
    }

    #[test]
    fn noisy_field_still_bounded() {
        let f = field::noisy(24, 24, 4, 1.0, 4);
        let (packed, stats) = compress(&f, 0.02, 1024).unwrap();
        let back = decompress(&packed).unwrap();
        assert!(f.max_abs_diff(&back) <= 0.02 + 1e-5);
        // Rough data costs ratio, not correctness.
        assert!(stats.ratio > 0.5);
    }

    #[test]
    fn unpredictable_samples_stored_verbatim() {
        // A spike field: huge jumps exceed any small bin range.
        let mut f = field::smooth_cosines(16, 16, 1, 2, 5);
        let mid = f.idx(8, 8, 0);
        f.data[mid] += 1.0e6;
        let (packed, stats) = compress(&f, 0.001, 16).unwrap();
        assert!(stats.unpredictable > 0);
        let back = decompress(&packed).unwrap();
        assert!((back.data[mid] - f.data[mid]).abs() <= 0.001 + 1e-3);
    }

    #[test]
    fn small_bin_count_roundtrips() {
        let f = field::smooth_cosines(16, 16, 4, 3, 6);
        let (packed, _) = compress(&f, 0.01, 16).unwrap();
        let back = decompress(&packed).unwrap();
        assert!(f.max_abs_diff(&back) <= 0.01 + 1e-5);
    }

    #[test]
    fn corrupt_archives_fail_cleanly() {
        let f = field::smooth_cosines(8, 8, 2, 2, 7);
        let (packed, _) = compress(&f, 0.01, 256).unwrap();
        assert!(decompress(&packed[..10]).is_err());
        let mut bad = packed.clone();
        bad[0] = b'X';
        assert!(decompress(&bad).is_err());
        // Field-size header corruption must not panic.
        let mut bad2 = packed.clone();
        bad2[4] = 0xFF;
        let _ = decompress(&bad2);
    }

    #[test]
    fn code_distribution_matches_nyx_quant_shape() {
        // The central bin dominates on smooth data — the Table V Nyx-Quant
        // statistic (avg codeword ~1.03 bits) comes from exactly this.
        let f = field::smooth_cosines(64, 64, 8, 4, 8);
        let quant = Quantizer::new(0.05, 1024);
        let mut recon = Field3::zeros(f.nx, f.ny, f.nz);
        let mut centre = 0usize;
        let mut total = 0usize;
        for z in 0..f.nz {
            for y in 0..f.ny {
                for x in 0..f.nx {
                    let i = f.idx(x, y, z);
                    let pred = crate::predictor::lorenzo3(&recon, x, y, z);
                    match quant.quantize(f.data[i] - pred) {
                        Quantized::Code(c) => {
                            recon.data[i] = pred + quant.dequantize(c);
                            if i64::from(c) == quant.mid() {
                                centre += 1;
                            }
                        }
                        Quantized::Unpredictable => recon.data[i] = f.data[i],
                    }
                    total += 1;
                }
            }
        }
        assert!(
            centre as f64 / total as f64 > 0.3,
            "centre fraction {}",
            centre as f64 / total as f64
        );
    }
}
