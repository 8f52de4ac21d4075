//! Host-speed calibration: a fixed reference kernel timed between short
//! stretches of measured work.
//!
//! On a shared host the same binary runs up to ~1.5× slower or faster
//! from one fraction of a second to the next, and a fixed CPU loop slows
//! down with it. The [`Meter`] cuts each episode into segments of about
//! [`SEGMENT_MS`], times the kernel at every cut, and divides each
//! segment's wall time (and the latencies sampled in it) by the
//! segment's slowdown: the kernel's time over its nominal time
//! [`NOMINAL_REF_US`], averaged over the segment's two cuts. Wall-clock
//! metrics are therefore reported at the nominal host speed. The kernel
//! is the benchmark's own code and allocates nothing, so a change to the
//! program never changes it and the allocation counts stay exact.

use std::hint::black_box;
use std::time::Instant;

/// Reference time of one kernel unit on the nominal host, in µs.
pub const NOMINAL_REF_US: f64 = 10.0;

/// Target length of a measured segment between two calibrations.
pub const SEGMENT_MS: u64 = 40;

const CHUNKS: usize = 5;
const UNITS_PER_CHUNK: u32 = 4;
const TABLE: usize = 4096;
const KEYS: usize = 512;

fn slot_of(key: u64) -> usize {
    (key.wrapping_mul(0xFF51_AFD7_ED55_8CCD) >> 52) as usize
}

/// The reference kernel's preallocated working set: hashing into an
/// open-addressed table, sorting and probing it back.
#[derive(Debug)]
pub struct Calibrator {
    table: Vec<u64>,
    keys: Vec<u64>,
}

impl Calibrator {
    /// Allocate the kernel's working set.
    pub fn new() -> Self {
        Calibrator {
            table: vec![0; TABLE],
            keys: vec![0; KEYS],
        }
    }

    fn unit(&mut self, seed: u32) -> u64 {
        self.table.fill(0);
        let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ u64::from(seed);
        for key in self.keys.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *key = x | 1;
            let mut slot = slot_of(*key);
            while self.table[slot] != 0 {
                slot = (slot + 1) % TABLE;
            }
            self.table[slot] = *key;
        }
        self.keys.sort_unstable();
        let mut found = 0u64;
        for &key in &self.keys {
            let mut slot = slot_of(key);
            while self.table[slot] != key && self.table[slot] != 0 {
                slot = (slot + 1) % TABLE;
            }
            found += u64::from(self.table[slot] == key);
        }
        found
    }

    /// The host's slowdown now: the kernel's median µs per unit over a few
    /// chunks, over [`NOMINAL_REF_US`]. Above 1 when the host runs slower
    /// than nominal.
    pub fn slowdown(&mut self) -> f64 {
        let mut chunks = [0.0f64; CHUNKS];
        for c in &mut chunks {
            let t = Instant::now();
            for u in 0..UNITS_PER_CHUNK {
                black_box(self.unit(black_box(u)));
            }
            *c = t.elapsed().as_secs_f64() * 1e6 / f64::from(UNITS_PER_CHUNK);
        }
        chunks.sort_by(f64::total_cmp);
        chunks[CHUNKS / 2] / NOMINAL_REF_US
    }
}

/// Wall time of an episode cut into calibrated segments.
#[derive(Debug)]
pub struct Meter {
    cal: Calibrator,
    slowdown_at_cut: f64,
    seg_start: Instant,
    raw_s: f64,
    nominal_s: f64,
}

impl Meter {
    /// Calibrate and start the first segment.
    pub fn start() -> Self {
        let mut cal = Calibrator::new();
        let slowdown_at_cut = cal.slowdown();
        Meter {
            cal,
            slowdown_at_cut,
            seg_start: Instant::now(),
            raw_s: 0.0,
            nominal_s: 0.0,
        }
    }

    /// Whether the current segment has run its length.
    pub fn due(&self) -> bool {
        self.seg_start.elapsed().as_millis() as u64 >= SEGMENT_MS
    }

    /// End the current segment and start the next; returns the ended
    /// segment's slowdown, by which the latencies sampled in it are
    /// divided.
    pub fn cut(&mut self) -> f64 {
        let wall = self.seg_start.elapsed().as_secs_f64();
        let now = self.cal.slowdown();
        let slowdown = (self.slowdown_at_cut + now) / 2.0;
        self.raw_s += wall;
        self.nominal_s += wall / slowdown;
        self.slowdown_at_cut = now;
        self.seg_start = Instant::now();
        slowdown
    }

    /// Wall seconds measured so far (calibrations excluded).
    pub fn raw_s(&self) -> f64 {
        self.raw_s
    }

    /// Those seconds at the nominal host speed.
    pub fn nominal_s(&self) -> f64 {
        self.nominal_s
    }
}
