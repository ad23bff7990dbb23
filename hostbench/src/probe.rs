//! The host probe: a fixed pass over a fixed buffer, run between timed
//! calls, that measures how fast the host ran while each call ran.
//!
//! Neighbours on a shared host slow it by tens of percent, in stretches
//! from a fraction of a second to minutes, so a call's seconds alone say
//! as much about them as about the program. Between runs, the fastest
//! decile of raw op times spread 5–17 %; divided by the mean of the passes
//! just before and just after each op, it spread 0.55–1.7 %. The pass is
//! code of this package on a buffer of its own, so no change to the
//! library can move it.

use std::hint::black_box;
use std::time::Instant;

/// Bytes the pass reads.
const BYTES: usize = 1 << 20;

/// Seconds of one pass on a host of nominal speed. Scaled times are what
/// the calls would take on such a host; the value only sets the scale.
pub const NOMINAL_S: f64 = 0.004;

pub struct Probe {
    buf: Vec<u8>,
    /// Seconds of the latest pass.
    last: f64,
    /// Seconds of every pass.
    pub passes: Vec<f64>,
}

impl Probe {
    /// Fill the buffer and run the first pass.
    pub fn new() -> Probe {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf = (0..BYTES)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect();
        let mut p = Probe { buf, last: 0.0, passes: Vec::new() };
        p.last = p.pass();
        p
    }

    /// Run a pass and return the host's slowdown since the previous one:
    /// the mean of the two passes over `NOMINAL_S`. Dividing the seconds
    /// of a call made between them by it gives the call's scaled seconds.
    pub fn slowdown(&mut self) -> f64 {
        let before = self.last;
        self.last = self.pass();
        (before + self.last) / 2.0 / NOMINAL_S
    }

    fn pass(&mut self) -> f64 {
        let start = Instant::now();
        black_box(mix(black_box(&self.buf)));
        let s = start.elapsed().as_secs_f64();
        self.passes.push(s);
        s
    }
}

/// A byte histogram, then a serial hash chain of table lookups that
/// rewrites the table as it goes: table-driven, latency-bound work, like
/// the encoders and decoders.
fn mix(buf: &[u8]) -> u64 {
    let mut counts = [0u32; 256];
    for &b in buf {
        counts[usize::from(b)] += 1;
    }
    let mut h = 0u64;
    for &b in buf {
        h = h.wrapping_mul(31).wrapping_add(u64::from(b) ^ u64::from(counts[usize::from(b)]));
        counts[(h & 255) as usize] ^= 1;
    }
    h
}
