//! The `rsh-tune-v1` cache reader under hostile bytes.
//!
//! The reader is fail-open: whatever the file holds, [`TuneCache::load`]
//! returns a cache and never panics. This sweeps every truncation prefix,
//! a single-bit flip at every byte, and every count field set to its
//! maximum (re-signed where a checksum covers it) over a two-entry cache,
//! and checks that what loads is a subset of the clean entries: an entry
//! is kept whole or dropped, never served mangled.

use gpu_sim::DeviceSpec;
use huff_core::integrity::crc32;
use huff_core::tune::{self, Signature, TuneCache};
use huff_core::Decision;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// The bytes a checksum signs and the offset the checksum is stored at.
type Signed = Option<(Range<usize>, usize)>;

fn entries() -> Vec<(&'static str, Signature, Decision)> {
    let sig = |coded_symbols, size_class| Signature {
        coded_symbols,
        avg_centibits: 412,
        max_bits: 11,
        entropy_centibits: 405,
        ratio_permille: 515,
        size_class,
        symbol_bytes: 1,
    };
    let (a, b) = (sig(200, 20), sig(64, 12));
    vec![
        ("Tesla V100", a, tune::plan(&a, &DeviceSpec::v100())),
        ("RTX 5000", b, tune::plan(&b, &DeviceSpec::rtx5000())),
    ]
}

/// Load `bytes` as a cache file and check it against the clean entries.
fn load_checked(what: &str, path: &Path, bytes: &[u8]) {
    std::fs::write(path, bytes).unwrap();
    let cache = catch_unwind(AssertUnwindSafe(|| TuneCache::load(path)))
        .unwrap_or_else(|_| panic!("{what}: the cache reader panicked"));
    let mut kept = 0;
    for (device, sig, decision) in entries() {
        if let Some(got) = cache.lookup(device, &sig) {
            assert_eq!(got, decision, "{what}: {device} entry served mangled");
            kept += 1;
        }
    }
    assert_eq!(cache.len(), kept, "{what}: an entry that was never written loaded");
}

#[test]
fn hostile_cache_bytes_load_a_subset_and_never_panic() {
    let dir = std::env::temp_dir().join(format!("rsh-tune-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tune.cache");

    let mut cache = TuneCache::load(&path);
    for (device, sig, decision) in entries() {
        cache.insert(device, sig, decision);
    }
    cache.save().unwrap();
    let clean = std::fs::read(&path).unwrap();
    assert_eq!(TuneCache::load(&path).len(), 2);

    // Header: magic, version, pad, count u32 at 8, CRC at 12 over 0..12.
    // Each entry: len u16, then the entry (name_len u8 first), then its CRC.
    let first_len = usize::from(u16::from_le_bytes([clean[16], clean[17]]));
    let entry = 18..18 + first_len;
    // (offset, width, the bytes a checksum at the given offset signs)
    let fields: [(usize, usize, Signed); 3] =
        [(8, 4, Some((0..12, 12))), (16, 2, None), (18, 1, Some((entry.clone(), entry.end)))];

    for cut in 0..clean.len() {
        load_checked(&format!("cut at {cut}"), &path, &clean[..cut]);
    }
    for at in 0..clean.len() {
        let mut b = clean.clone();
        b[at] ^= 1 << (at % 8);
        load_checked(&format!("bit flip at {at}"), &path, &b);
    }
    for (at, width, signed_by) in fields {
        let mut b = clean.clone();
        b[at..at + width].fill(0xFF);
        load_checked(&format!("count at {at} = MAX"), &path, &b);
        if let Some((signed, crc_at)) = signed_by {
            let crc = crc32(&b[signed]);
            b[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
            load_checked(&format!("count at {at} = MAX, re-signed"), &path, &b);
        }
    }
    // A truncated tail keeps the entries before the cut.
    let cut = 18 + first_len + 4;
    std::fs::write(&path, &clean[..cut]).unwrap();
    assert_eq!(TuneCache::load(&path).len(), 1);

    std::fs::remove_dir_all(&dir).ok();
}
