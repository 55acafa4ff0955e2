//! Link-layer frames.
//!
//! A frame is the unit the medium carries: an opaque transport payload
//! wrapped with source/destination stations and a frame check sequence.
//! The media models never interpret the payload — exactly the layering of
//! Figure 4.3, where the media layer only moves checked byte strings.

use crate::crc::crc32;
use core::fmt;
use std::sync::Arc;

/// A station attached to the LAN (a processing node's or recorder's
/// network interface).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StationId(pub u32);

impl fmt::Debug for StationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "st{}", self.0)
    }
}

impl fmt::Display for StationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Link-layer destination: one station, or every station.
///
/// In DEMOS/MP with publishing, *all* messages are physically broadcast so
/// the recorder overhears them (§4.4.1); `Station` destinations still
/// reach every attached interface, which filter on this field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Destination {
    /// Addressed to one station (others, except recorders, discard it).
    Station(StationId),
    /// Addressed to every station.
    Broadcast,
}

impl Destination {
    /// Returns `true` if a station should pass this frame up its stack.
    pub fn accepts(self, station: StationId) -> bool {
        match self {
            Destination::Station(s) => s == station,
            Destination::Broadcast => true,
        }
    }
}

/// Fixed per-frame header overhead on the wire, in bytes (addresses, type,
/// FCS — on the order of an Ethernet header).
pub const HEADER_BYTES: usize = 18;

/// A link-layer frame.
///
/// The FCS verdict is computed once, when the frame is built or damaged,
/// and stored: every receiver of a broadcast reads the verdict instead of
/// re-running the CRC over the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Transmitting station.
    pub src: StationId,
    /// Link-layer destination.
    pub dst: Destination,
    /// Opaque transport payload, shared by every copy of the frame, so a
    /// fan-out clone copies no bytes.
    ///
    /// Immutable after [`Frame::new`]: the only supported mutators are
    /// [`Frame::corrupt_in_flight`] and [`Frame::invalidate_fcs`], which
    /// keep the stored FCS verdict in step with the payload.
    pub payload: Arc<[u8]>,
    /// Frame check sequence as carried on the wire.
    fcs: u32,
    /// Whether `fcs` matches `payload`.
    intact: bool,
}

impl Frame {
    /// Builds a frame, computing its FCS over the payload.
    pub fn new(src: StationId, dst: Destination, payload: Vec<u8>) -> Self {
        let fcs = crc32(&payload);
        Frame {
            src,
            dst,
            payload: payload.into(),
            fcs,
            intact: true,
        }
    }

    /// Returns `true` if the carried FCS matches the payload.
    pub fn is_intact(&self) -> bool {
        debug_assert_eq!(
            self.intact,
            crc32(&self.payload) == self.fcs,
            "stored FCS verdict is stale: the payload was changed outside \
             corrupt_in_flight/invalidate_fcs"
        );
        self.intact
    }

    /// Corrupts the frame in flight by flipping one payload bit. Only this
    /// copy is damaged: the payload is copied before the flip, so clones
    /// sharing it stay intact.
    pub fn corrupt_in_flight(&mut self) {
        if self.payload.is_empty() {
            // No payload bits to damage; damage the FCS itself.
            self.fcs = !self.fcs;
        } else {
            let mut bytes = self.payload.to_vec();
            bytes[0] ^= 0x80;
            self.payload = bytes.into();
        }
        self.recheck();
    }

    /// Complements the FCS — the token-ring recorder's §6.1.2 mechanism
    /// for invalidating a frame it failed to record.
    pub fn invalidate_fcs(&mut self) {
        self.fcs = !self.fcs;
        self.recheck();
    }

    /// Recomputes the stored verdict after the payload or FCS changed.
    fn recheck(&mut self) {
        self.intact = crc32(&self.payload) == self.fcs;
    }

    /// Returns the frame's size on the wire, including header overhead.
    pub fn wire_bytes(&self) -> usize {
        HEADER_BYTES + self.payload.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(payload: &[u8]) -> Frame {
        Frame::new(
            StationId(1),
            Destination::Station(StationId(2)),
            payload.to_vec(),
        )
    }

    #[test]
    fn fresh_frame_is_intact() {
        assert!(frame(b"hello").is_intact());
        assert!(frame(b"").is_intact());
    }

    #[test]
    fn corruption_detected() {
        let mut f = frame(b"hello");
        f.corrupt_in_flight();
        assert_eq!(&f.payload[..], b"\xE8ello");
        assert!(!f.is_intact());
    }

    #[test]
    fn corruption_of_empty_payload_detected() {
        let mut f = frame(b"");
        f.corrupt_in_flight();
        assert!(f.payload.is_empty());
        assert!(!f.is_intact());
    }

    #[test]
    fn corrupting_a_clone_leaves_its_siblings_intact() {
        let original = frame(b"shared payload");
        let sibling = original.clone();
        let mut damaged = original.clone();
        assert!(Arc::ptr_eq(&original.payload, &sibling.payload));
        assert!(Arc::ptr_eq(&original.payload, &damaged.payload));
        damaged.corrupt_in_flight();
        assert!(!damaged.is_intact());
        assert!(!Arc::ptr_eq(&damaged.payload, &original.payload));
        assert_eq!(damaged.payload[0], b's' ^ 0x80);
        for f in [&original, &sibling] {
            assert!(f.is_intact());
            assert_eq!(&f.payload[..], b"shared payload");
        }
    }

    #[test]
    fn equality_compares_addresses_payload_and_fcs() {
        let f = frame(b"abc");
        assert_eq!(f, frame(b"abc"));
        assert_ne!(f, frame(b"abd"));
        let mut other_src = frame(b"abc");
        other_src.src = StationId(9);
        assert_ne!(f, other_src);
        let mut other_dst = frame(b"abc");
        other_dst.dst = Destination::Broadcast;
        assert_ne!(f, other_dst);
        let mut bad_fcs = frame(b"abc");
        bad_fcs.invalidate_fcs();
        assert_ne!(f, bad_fcs);
        bad_fcs.invalidate_fcs();
        assert_eq!(f, bad_fcs);
    }

    #[test]
    fn invalidated_fcs_never_validates() {
        let mut f = frame(b"data");
        f.invalidate_fcs();
        assert!(!f.is_intact());
        // Invalidation is reversible by complementing again (a property the
        // ring model relies on never happening accidentally).
        f.invalidate_fcs();
        assert!(f.is_intact());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stored FCS verdict is stale")]
    fn replacing_the_payload_trips_the_debug_cross_check() {
        let mut f = frame(b"data");
        f.payload = Arc::from(&b"other"[..]);
        f.is_intact();
    }

    #[test]
    fn destination_filtering() {
        let uni = Destination::Station(StationId(3));
        assert!(uni.accepts(StationId(3)));
        assert!(!uni.accepts(StationId(4)));
        assert!(Destination::Broadcast.accepts(StationId(9)));
    }

    #[test]
    fn wire_bytes_includes_header() {
        assert_eq!(frame(b"abcd").wire_bytes(), HEADER_BYTES + 4);
    }
}
