//! The host-speed probe, and the CPU clock the reps read.
//!
//! The hosts this benchmark runs on are shared virtual machines whose
//! memory system slows down and speeds up by tens of per cent, for seconds
//! or for minutes, with what the neighbours do: the same single-threaded
//! rep took 3.7 s and 6.3 s of *CPU* time ten minutes apart, with nothing
//! else running in the guest (README, "Why the timings are
//! host-normalised"). No median over a 20 s run survives that. So while
//! something is being timed, a [`HostProbe`] thread keeps timing a fixed
//! piece of memory-bound work — code of the benchmark, not of the
//! assembler, so no change under test can move it — and the gated timings
//! are divided by how much slower than nominal that work ran. They read as
//! seconds on a host at nominal speed.

use std::os::raw::{c_int, c_long};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// This process's CPU seconds: user + system, every thread, live or
/// joined. `/proc/self/stat` has the same number in 10 ms ticks, too coarse
/// for a median of a few reps.
pub fn process_cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer and nothing else; `ts` is a live, exclusively borrowed value
    // whose layout is Linux's `struct timespec` (two C longs) on the
    // 64-bit targets this benchmark builds for.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Probe table: 256 MB of words, far past any cache share a guest keeps.
/// Of the sizes tried (8, 32, 64, 256 MB) this one tracked rep time best
/// at a plain division (README has the numbers).
const TABLE_WORDS: usize = 1 << 25;
/// Dependent random read-modify-writes per sample (about 2 ms).
const STEPS: usize = 5_000;
/// Pause between samples: the probe takes ~3 % of one core.
const PERIOD: Duration = Duration::from_millis(60);
/// What one sample takes on the development host when it is calm; only
/// fixes the unit of the normalised metrics.
const NOMINAL_SAMPLE_S: f64 = 2.0e-3;

/// Samples the host's memory speed on a thread of its own while a closure
/// runs.
pub struct HostProbe {
    table: Vec<u64>,
}

impl HostProbe {
    pub fn new() -> Self {
        HostProbe {
            table: vec![1u64; TABLE_WORDS],
        }
    }

    /// Run `f`; return its result and the host's slowdown while it ran:
    /// the median sample over the nominal sample (1 = nominal speed).
    pub fn during<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let stop = AtomicBool::new(false);
        let table = &mut self.table[..];
        std::thread::scope(|scope| {
            let sampler = scope.spawn(|| {
                let mut samples = Vec::new();
                loop {
                    samples.push(sample(table));
                    if stop.load(Ordering::SeqCst) {
                        return samples;
                    }
                    // Woken early by `unpark` when `f` is done.
                    std::thread::park_timeout(PERIOD);
                }
            });
            let out = f();
            stop.store(true, Ordering::SeqCst);
            sampler.thread().unpark();
            let samples = sampler.join().expect("host probe thread panicked");
            (out, crate::stats::median(&samples) / NOMINAL_SAMPLE_S)
        })
    }
}

/// One sample: seconds for [`STEPS`] read-modify-writes at random places of
/// `table`, each address depending on the value loaded before it, so that
/// the accesses cannot overlap and the time is memory latency.
fn sample(table: &mut [u64]) -> f64 {
    let start = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..STEPS {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let slot = &mut table[(x >> 36) as usize & (TABLE_WORDS - 1)];
        x ^= *slot;
        *slot = slot.wrapping_add(x).rotate_left(7);
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64()
}
