//! Host-speed calibration.
//!
//! The benchmark's reference host is a shared 2-vCPU virtual machine
//! whose speed changes from one second to the next and drifts over
//! minutes: the same second of reference work takes 0.79 s in one
//! window and 1.28 s a few windows later, and the same `quorum_steady`
//! sample takes 2.0 s at one time and 3.1 s a few minutes later. A short
//! fixed reference pass, run in-process after every [`SLICE_S`] of
//! workload time, samples the host's speed at the same moments as the
//! workload. Each pass runs twice and only the second run is timed: the
//! first warms the caches and the allocator's free lists that the
//! workload has just used, so the timed run reads the host's speed, not
//! the workload's footprint. The benchmark reports host times scaled to
//! a host that runs the pass in [`NOMINAL_S`]: the scale of a sample is
//! `NOMINAL_S ÷ mean timed pass` over the passes run during it. On the
//! reference host this cut the spread of `knee_ethernet`'s
//! `events_per_s` over workload seeds (interquartile range over median)
//! from about 25%, with a pass timed only between samples, to 2–4%. The
//! pass uses only the standard library and the global allocator, so no
//! change to the simulator moves it.
//!
//! Passes run between timed slices, never inside one; [`Mark`] takes
//! their time and allocations out of a window that contains some, and
//! those of the work run beside them: an [`set_interlude`] after each
//! pass, and any [`aside`].

use publishing_perf::alloc::{self, AllocSnapshot};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Duration of one reference pass on the reference host at its median
/// speed.
pub const NOMINAL_S: f64 = 0.002;

/// Workload seconds between passes: passes add about a tenth to a run.
pub const SLICE_S: f64 = 0.04;

/// One pass: ordered-map churn over small heap buffers, a few hundred
/// KB of working set, like the simulator's event dispatch.
fn pass() -> usize {
    let mut map: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..8_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 8_192, vec![i as u8; (x % 128) as usize]);
        if i % 2 == 0 {
            map.remove(&(x.rotate_left(17) % 8_192));
        }
    }
    black_box(map.values().map(Vec::len).sum())
}

#[derive(Default)]
struct Pacer {
    /// Run after every pass, outside the measured windows.
    interlude: Option<Box<dyn FnMut()>>,
    /// Workload seconds since the last pass.
    owed_s: f64,
    /// Passes, their host seconds and heap growth, since the last
    /// [`take`].
    passes: u64,
    pass_s: f64,
    /// Host seconds and heap growth of every pass, interlude and aside
    /// so far.
    total_s: f64,
    total_alloc: AllocSnapshot,
}

impl Pacer {
    fn run_pass(&mut self) {
        let a0 = alloc::snapshot();
        let w0 = Instant::now();
        black_box(pass());
        let t0 = Instant::now();
        black_box(pass());
        let s = t0.elapsed().as_secs_f64();
        if let Some(f) = self.interlude.as_mut() {
            f();
        }
        self.passes += 1;
        self.pass_s += s;
        self.exclude(w0.elapsed().as_secs_f64(), alloc::snapshot().since(a0));
    }

    fn exclude(&mut self, s: f64, grew: AllocSnapshot) {
        self.total_s += s;
        self.total_alloc.allocs += grew.allocs;
        self.total_alloc.bytes += grew.bytes;
    }
}

thread_local! {
    static PACER: RefCell<Pacer> = RefCell::new(Pacer::default());
}

/// Records `s` host seconds of timed workload; runs a pass once
/// [`SLICE_S`] have gathered since the last one.
pub fn worked(s: f64) {
    PACER.with(|p| {
        let mut p = p.borrow_mut();
        p.owed_s += s;
        if p.owed_s >= SLICE_S {
            p.owed_s = 0.0;
            p.run_pass();
        }
    });
}

/// Sets the work run after every pass, or none. It must not call into
/// this module.
pub fn set_interlude(f: Option<Box<dyn FnMut()>>) {
    PACER.with(|p| p.borrow_mut().interlude = f);
}

/// Runs `f` outside the measured windows: its host time and heap growth
/// are taken out of every [`Mark`] it falls in. `f` must not call
/// [`worked`].
pub fn aside<T>(f: impl FnOnce() -> T) -> T {
    let a0 = alloc::snapshot();
    let t0 = Instant::now();
    let out = f();
    let s = t0.elapsed().as_secs_f64();
    let grew = alloc::snapshot().since(a0);
    PACER.with(|p| p.borrow_mut().exclude(s, grew));
    out
}

/// The host-time scale over the passes since the last call (one more
/// pass is run if there were none), and their count; starts the next
/// reading.
pub fn take() -> (f64, u64) {
    PACER.with(|p| {
        let mut p = p.borrow_mut();
        if p.passes == 0 {
            p.run_pass();
        }
        let reading = (NOMINAL_S * p.passes as f64 / p.pass_s, p.passes);
        p.passes = 0;
        p.pass_s = 0.0;
        reading
    })
}

/// A point to measure a window from, net of the passes run in it.
#[derive(Clone, Copy)]
pub struct Mark {
    t: Instant,
    alloc: AllocSnapshot,
    pass_s: f64,
    pass_alloc: AllocSnapshot,
}

/// Marks the start of a window.
pub fn mark() -> Mark {
    let (pass_s, pass_alloc) = PACER.with(|p| {
        let p = p.borrow();
        (p.total_s, p.total_alloc)
    });
    Mark {
        t: Instant::now(),
        alloc: alloc::snapshot(),
        pass_s,
        pass_alloc,
    }
}

impl Mark {
    /// Host seconds since the mark, less the excluded work's.
    pub fn elapsed_s(&self) -> f64 {
        let s = self.t.elapsed().as_secs_f64();
        s - PACER.with(|p| p.borrow().total_s - self.pass_s)
    }

    /// Heap growth since the mark, less the excluded work's.
    pub fn allocs(&self) -> AllocSnapshot {
        let passes = PACER.with(|p| p.borrow().total_alloc.since(self.pass_alloc));
        let grew = alloc::snapshot().since(self.alloc);
        AllocSnapshot {
            allocs: grew.allocs.saturating_sub(passes.allocs),
            bytes: grew.bytes.saturating_sub(passes.bytes),
        }
    }
}
