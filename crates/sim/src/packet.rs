//! Packets.

use serde::{Deserialize, Serialize};

/// A fixed-size packet travelling through the fabric.
///
/// In the packet-switched cores ([`crate::switch::UnbufferedCore`],
/// [`crate::switch::FifoCore`]) the packet is the atomic unit of transfer; in
/// [`crate::switch::WormholeCore`] it travels as a worm of flits, and its
/// header is stored with each lane the worm holds (the flits themselves are
/// only counted).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    /// Monotonic identifier (injection order).
    pub id: u64,
    /// Source first-stage cell.
    pub source: u32,
    /// Destination last-stage cell.
    pub destination: u32,
    /// Routing tag (one bit per inter-stage connection).
    pub tag: u32,
    /// Cycle at which the packet entered the fabric.
    pub injected_at: u64,
}

impl Packet {
    /// Port (0 = `f`, 1 = `g`) requested at connection `stage`.
    #[inline]
    pub fn port_at(&self, stage: usize) -> u8 {
        ((self.tag >> stage) & 1) as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_extraction_follows_the_tag_bits() {
        let p = Packet {
            id: 0,
            source: 1,
            destination: 5,
            tag: 0b101,
            injected_at: 0,
        };
        assert_eq!(p.port_at(0), 1);
        assert_eq!(p.port_at(1), 0);
        assert_eq!(p.port_at(2), 1);
        assert_eq!(p.port_at(3), 0);
    }
}
