//! A torn-write-safe durable cell for small critical state.
//!
//! Consensus metadata — a replica's current term and vote — must survive
//! crashes *atomically*: a half-written term record that decodes as
//! garbage (or worse, as a stale value presented as fresh) can make a
//! replica vote twice in one term and elect two leaders. The classic
//! defence is a two-slot ping-pong cell: writes alternate between two
//! fixed locations, each record carries a monotonically increasing
//! generation and a checksum, and a reader takes the *valid* record with
//! the highest generation. A crash can tear at most the slot being
//! written; the other slot still holds the previous generation intact,
//! so the cell never goes backwards past one write and never returns
//! garbage.
//!
//! The cell models battery-backed NVRAM with write-through semantics
//! (the same durability class as the recorder's capture buffer): a write
//! is durable when [`DurableCell::write`] returns, except that a host
//! crash *during* the most recent write may leave that slot torn — the
//! [`DurableCell::crash_tear`] hook, driven by the chaos engine's
//! torn-write regime, truncates it to a prefix exactly like
//! [`crate::disk::Disk::crash_tear_inflight`] does for disk pages.

use publishing_sim::fnv::fnv1a;

/// Two-slot atomic cell for a small durable value.
#[derive(Debug, Clone, Default)]
pub struct DurableCell {
    slots: [Vec<u8>; 2],
    /// Generation of the last accepted write.
    generation: u64,
    /// Slot index of the most recent write — the only slot a crash can
    /// tear.
    last_written: Option<usize>,
    /// Writes torn by a crash (observability).
    torn: u64,
}

fn encode_record(generation: u64, value: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(20 + value.len());
    rec.extend_from_slice(&generation.to_le_bytes());
    rec.extend_from_slice(&(value.len() as u32).to_le_bytes());
    rec.extend_from_slice(value);
    let sum = fnv1a(&rec);
    rec.extend_from_slice(&sum.to_le_bytes());
    rec
}

fn decode_record(rec: &[u8]) -> Option<(u64, Vec<u8>)> {
    if rec.len() < 20 {
        return None;
    }
    let (body, sum_bytes) = rec.split_at(rec.len() - 8);
    let sum = u64::from_le_bytes(sum_bytes.try_into().ok()?);
    if fnv1a(body) != sum {
        return None;
    }
    let generation = u64::from_le_bytes(body[..8].try_into().ok()?);
    let len = u32::from_le_bytes(body[8..12].try_into().ok()?) as usize;
    if body.len() != 12 + len {
        return None;
    }
    Some((generation, body[12..].to_vec()))
}

impl DurableCell {
    /// Creates an empty cell (reads as `None` until the first write).
    pub fn new() -> Self {
        DurableCell::default()
    }

    /// Durably replaces the cell's value. Alternates slots so the
    /// previous generation survives a crash mid-write.
    pub fn write(&mut self, value: &[u8]) {
        self.generation += 1;
        // Write over the slot NOT holding the current best record.
        let target = match self.best_slot() {
            Some(i) => 1 - i,
            None => 0,
        };
        self.slots[target] = encode_record(self.generation, value);
        self.last_written = Some(target);
    }

    /// Reads the current value: the valid record with the highest
    /// generation, or `None` for a never-written (or doubly-torn) cell.
    pub fn read(&self) -> Option<Vec<u8>> {
        self.best_slot()
            .and_then(|i| decode_record(&self.slots[i]))
            .map(|(_, v)| v)
    }

    /// Generation of the record [`DurableCell::read`] would return
    /// (0 = empty).
    pub fn read_generation(&self) -> u64 {
        self.best_slot()
            .and_then(|i| decode_record(&self.slots[i]))
            .map(|(g, _)| g)
            .unwrap_or(0)
    }

    /// Writes torn by crashes so far.
    pub fn torn_count(&self) -> u64 {
        self.torn
    }

    fn best_slot(&self) -> Option<usize> {
        let g0 = decode_record(&self.slots[0]).map(|(g, _)| g);
        let g1 = decode_record(&self.slots[1]).map(|(g, _)| g);
        match (g0, g1) {
            (None, None) => None,
            (Some(_), None) => Some(0),
            (None, Some(_)) => Some(1),
            (Some(a), Some(b)) => Some(if a >= b { 0 } else { 1 }),
        }
    }

    /// Crash hook: tears the most recent write to a prefix (power loss
    /// mid-transfer), exactly once per write. The prior generation in the
    /// other slot is untouched, so a subsequent [`DurableCell::read`]
    /// falls back to it instead of failing or returning garbage.
    pub fn crash_tear(&mut self) {
        if let Some(i) = self.last_written.take() {
            let slot = &mut self.slots[i];
            if !slot.is_empty() {
                slot.truncate(slot.len() / 2);
                self.torn += 1;
            }
        }
    }

    /// Marks the in-flight write settled (e.g. the host survived long
    /// enough for the NVRAM controller to complete it); a later crash no
    /// longer tears it.
    pub fn settle(&mut self) {
        self.last_written = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cell_reads_none() {
        let c = DurableCell::new();
        assert_eq!(c.read(), None);
        assert_eq!(c.read_generation(), 0);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut c = DurableCell::new();
        c.write(b"term=3 vote=1");
        assert_eq!(c.read().as_deref(), Some(&b"term=3 vote=1"[..]));
        assert_eq!(c.read_generation(), 1);
        c.write(b"term=4 vote=none");
        assert_eq!(c.read().as_deref(), Some(&b"term=4 vote=none"[..]));
        assert_eq!(c.read_generation(), 2);
    }

    #[test]
    fn torn_write_falls_back_to_previous_generation() {
        let mut c = DurableCell::new();
        c.write(b"old value");
        c.write(b"new value");
        c.crash_tear();
        assert_eq!(c.read().as_deref(), Some(&b"old value"[..]));
        assert_eq!(c.torn_count(), 1);
        // The cell keeps alternating correctly after the tear.
        c.write(b"after crash");
        assert_eq!(c.read().as_deref(), Some(&b"after crash"[..]));
    }

    #[test]
    fn torn_first_write_reads_none() {
        let mut c = DurableCell::new();
        c.write(b"only");
        c.crash_tear();
        assert_eq!(c.read(), None, "no previous generation to fall back to");
    }

    #[test]
    fn settled_write_survives_a_crash() {
        let mut c = DurableCell::new();
        c.write(b"v1");
        c.write(b"v2");
        c.settle();
        c.crash_tear();
        assert_eq!(c.read().as_deref(), Some(&b"v2"[..]));
        assert_eq!(c.torn_count(), 0);
    }

    #[test]
    fn tear_is_consumed_by_one_crash() {
        let mut c = DurableCell::new();
        c.write(b"a");
        c.write(b"b");
        c.crash_tear();
        c.crash_tear(); // second crash with no new write: no further damage
        assert_eq!(c.read().as_deref(), Some(&b"a"[..]));
        assert_eq!(c.torn_count(), 1);
    }

    #[test]
    fn generations_never_go_backwards_more_than_one_write() {
        let mut c = DurableCell::new();
        for i in 0..20u64 {
            c.write(format!("value {i}").as_bytes());
            if i % 3 == 0 {
                c.crash_tear();
                // After a tear we see i-1's value (or none at i=0).
                let got = c.read();
                if i == 0 {
                    assert_eq!(got, None);
                } else {
                    assert_eq!(got.as_deref(), Some(format!("value {}", i - 1).as_bytes()));
                }
            } else {
                assert_eq!(c.read().as_deref(), Some(format!("value {i}").as_bytes()));
            }
        }
    }
}
