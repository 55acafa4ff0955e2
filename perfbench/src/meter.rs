//! Layer meters for the traced run: decorators that time calls into the
//! medium and into the programs from outside the simulator.
//!
//! The worlds take a caller-built `Box<dyn Lan>` and instantiate programs
//! through `ProgramRegistry` factories, so wrapping both is enough to
//! split a world's `step()` time into net, programs, and the tier's own
//! self time (kernel, transport, recorder, stable store, scheduler).
//! The decorators forward every trait method unchanged; the benchmark
//! checks that a metered world produces exactly the virtual results of a
//! plain one.

use publishing_demos::program::{Ctx, Program, Received};
use publishing_demos::registry::ProgramRegistry;
use publishing_net::frame::{Frame, StationId};
use publishing_net::lan::{Lan, LanAction, LanConfig, LanStats, RecorderRouter};
use publishing_perf::alloc;
use publishing_sim::codec::CodecError;
use publishing_sim::fault::FaultPlan;
use publishing_sim::time::SimTime;
use std::cell::Cell;
use std::time::Instant;

/// Host cost of one layer: time inside its calls, call count, and heap
/// allocations made inside them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerCost {
    /// Host nanoseconds inside the layer's calls.
    pub ns: u64,
    /// Calls into the layer.
    pub calls: u64,
    /// Heap allocations made inside the calls.
    pub allocs: u64,
}

impl LayerCost {
    /// Sums two readings.
    pub fn add(self, o: LayerCost) -> LayerCost {
        LayerCost {
            ns: self.ns + o.ns,
            calls: self.calls + o.calls,
            allocs: self.allocs + o.allocs,
        }
    }
}

/// Everything the decorators accumulate.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Meter {
    /// `Lan::submit` and `Lan::timer`.
    pub net: LayerCost,
    /// `Lan::Deliver` actions the medium returned.
    pub deliveries: u64,
    /// Payload bytes of those deliveries.
    pub delivered_payload_bytes: u64,
    /// Every `Program` method.
    pub programs: LayerCost,
}

thread_local! {
    static METER: Cell<Meter> = Cell::new(Meter::default());
}

/// Returns the accumulated readings and zeroes them.
pub fn take() -> Meter {
    METER.with(|m| m.replace(Meter::default()))
}

/// Runs `f`, returning its result with the host time and allocations it
/// took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, LayerCost) {
    let a0 = alloc::snapshot();
    let t0 = Instant::now();
    let out = f();
    let ns = t0.elapsed().as_nanos() as u64;
    let allocs = alloc::snapshot().since(a0).allocs;
    (
        out,
        LayerCost {
            ns,
            calls: 1,
            allocs,
        },
    )
}

/// A medium decorator timing `submit` and `timer`.
pub struct TimedLan(pub Box<dyn Lan>);

impl TimedLan {
    fn metered(&mut self, f: impl FnOnce(&mut dyn Lan) -> Vec<LanAction>) -> Vec<LanAction> {
        let (actions, cost) = timed(|| f(self.0.as_mut()));
        let (mut n, mut bytes) = (0u64, 0u64);
        for a in &actions {
            if let LanAction::Deliver { frame, .. } = a {
                n += 1;
                bytes += frame.payload.len() as u64;
            }
        }
        METER.with(|m| {
            let mut v = m.get();
            v.net = v.net.add(cost);
            v.deliveries += n;
            v.delivered_payload_bytes += bytes;
            m.set(v);
        });
        actions
    }
}

impl Lan for TimedLan {
    fn attach(&mut self, station: StationId) {
        self.0.attach(station);
    }

    fn set_station_up(&mut self, station: StationId, up: bool) {
        self.0.set_station_up(station, up);
    }

    fn set_required_recorders(&mut self, recorders: Vec<StationId>) {
        self.0.set_required_recorders(recorders);
    }

    fn set_recorder_router(&mut self, router: Option<RecorderRouter>) {
        self.0.set_recorder_router(router);
    }

    fn set_faults(&mut self, faults: FaultPlan) {
        self.0.set_faults(faults);
    }

    fn submit(&mut self, now: SimTime, frame: Frame) -> Vec<LanAction> {
        self.metered(|l| l.submit(now, frame))
    }

    fn timer(&mut self, now: SimTime, token: u64) -> Vec<LanAction> {
        self.metered(|l| l.timer(now, token))
    }

    fn stats(&self) -> &LanStats {
        self.0.stats()
    }

    fn config(&self) -> Option<&LanConfig> {
        self.0.config()
    }
}

/// A program decorator timing every `Program` method.
pub struct TimedProgram(Box<dyn Program>);

fn charge_program<T>(f: impl FnOnce() -> T) -> T {
    let (out, cost) = timed(f);
    METER.with(|m| {
        let mut v = m.get();
        v.programs = v.programs.add(cost);
        m.set(v);
    });
    out
}

impl Program for TimedProgram {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        charge_program(|| self.0.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Received) {
        charge_program(|| self.0.on_message(ctx, msg));
    }

    fn snapshot(&self) -> Vec<u8> {
        charge_program(|| self.0.snapshot())
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        charge_program(|| self.0.restore(bytes))
    }
}

/// The same registry with every image wrapped in [`TimedProgram`].
pub fn timed_registry(reg: &ProgramRegistry) -> ProgramRegistry {
    let mut out = ProgramRegistry::new();
    for name in reg.names() {
        let inner = reg.clone();
        let image = name.to_string();
        out.register(name, move || {
            Box::new(TimedProgram(
                inner.instantiate(&image).expect("image listed by names()"),
            ))
        });
    }
    out
}
