//! Bit-accurate Appendix-G probe layout.
//!
//! The paper's probe carries, after the MAC/IP/source-routing headers:
//!
//! ```text
//! type(4b) nHop(4b) φ(24b) [ W(16b) Φ(16b) tx(16b) q(12b) C(4b) ] × nHop
//! ```
//!
//! 64 bits per hop, 32 bits of fixed header — "less than 100 bytes for a
//! 5-hop diameter". The simulator carries exact values in
//! [`crate::frame::ProbeFrame`], but packet *sizes* are computed here and
//! the quantised codec is round-trip tested: this is what bounds Fig 15b's
//! probing overhead.
//!
//! Quantisation steps (chosen to cover a 400 Gbps fabric):
//!
//! | field | bits | unit            | max            |
//! |-------|------|-----------------|----------------|
//! | φ     | 24   | 1 token         | 16.7 M tokens  |
//! | W     | 16   | 64 B            | 4.19 MB        |
//! | Φ     | 16   | 1 token         | 65 535 tokens  |
//! | tx    | 16   | 2 Mbps          | 131 Gbps       |
//! | q     | 12   | 1 KB            | 4.09 MB        |
//! | C     | 4    | speed code      | 400 Gbps       |

/// Granularity of the window field: 64 bytes per unit.
pub const W_UNIT_BYTES: u64 = 64;
/// Granularity of the TX-rate field: 2 Mbps per unit.
pub const TX_UNIT_BPS: u64 = 2_000_000;
/// Granularity of the queue-size field: 1 KB per unit.
pub const Q_UNIT_BYTES: u64 = 1024;

/// Ethernet header + FCS overhead in bytes.
pub(crate) const ETH_OVERHEAD: usize = 18;
/// IPv4 header bytes.
pub(crate) const IP_HEADER: usize = 20;
/// Source-routing header: 4 bytes fixed plus 2 bytes per routed hop.
pub(crate) const SR_FIXED: usize = 4;
/// Per-hop source-routing entry bytes.
pub(crate) const SR_PER_HOP: usize = 2;

/// The 4-bit speed codes for the `C_l` field ("type of speed of the egress
/// port" per Appendix G).
pub(crate) const SPEED_CODES_GBPS: [u64; 9] = [1, 10, 25, 40, 50, 100, 200, 400, 800];

/// Encode a link capacity to the nearest defined speed code.
pub(crate) fn speed_to_code(cap_bps: u64) -> u8 {
    let gbps = cap_bps / 1_000_000_000;
    let mut best = 0u8;
    let mut best_err = u64::MAX;
    for (i, &s) in SPEED_CODES_GBPS.iter().enumerate() {
        let err = s.abs_diff(gbps);
        if err < best_err {
            best_err = err;
            best = i as u8;
        }
    }
    best
}

/// Decode a speed code back to bits/sec.
pub(crate) fn code_to_speed(code: u8) -> u64 {
    SPEED_CODES_GBPS[(code as usize).min(SPEED_CODES_GBPS.len() - 1)] * 1_000_000_000
}

/// Bytes on the wire for a probe/response with `n_hops` INT records routed
/// over `sr_hops` source-routing entries.
pub fn probe_packet_bytes(n_hops: usize, sr_hops: usize) -> usize {
    let int_bits = 32 + 64 * n_hops;
    ETH_OVERHEAD + IP_HEADER + SR_FIXED + SR_PER_HOP * sr_hops + int_bits.div_ceil(8)
}

/// Quantised per-hop record as it appears on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireHop {
    /// Window sum in 64-byte units (16 bits).
    pub w_units: u16,
    /// Token sum (16 bits).
    pub phi: u16,
    /// TX rate in 2 Mbps units (16 bits).
    pub tx_units: u16,
    /// Queue in KB units (12 bits).
    pub q_units: u16,
    /// Speed code (4 bits).
    pub speed: u8,
}

impl WireHop {
    /// Quantise exact values into a wire hop (saturating).
    pub fn quantise(w_bytes: f64, phi: f64, tx_bps: f64, q_bytes: u64, cap_bps: u64) -> Self {
        Self {
            w_units: ((w_bytes.max(0.0) as u64) / W_UNIT_BYTES).min(u16::MAX as u64) as u16,
            phi: (phi.max(0.0).round() as u64).min(u16::MAX as u64) as u16,
            tx_units: ((tx_bps.max(0.0) as u64) / TX_UNIT_BPS).min(u16::MAX as u64) as u16,
            q_units: (q_bytes / Q_UNIT_BYTES).min(0xFFF) as u16,
            speed: speed_to_code(cap_bps) & 0xF,
        }
    }

    /// De-quantise back to engineering units
    /// `(w_bytes, phi, tx_bps, q_bytes, cap_bps)`.
    pub fn dequantise(&self) -> (f64, f64, f64, u64, u64) {
        (
            (self.w_units as u64 * W_UNIT_BYTES) as f64,
            self.phi as f64,
            (self.tx_units as u64 * TX_UNIT_BPS) as f64,
            self.q_units as u64 * Q_UNIT_BYTES,
            code_to_speed(self.speed),
        )
    }
}

/// Quantised probe: fixed header + per-hop records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireProbe {
    /// Packet type nibble (1 probe, 2 response, 4 failure).
    pub ptype: u8,
    /// Sender token φ (24 bits).
    pub phi: u32,
    /// Per-hop records (length doubles as `nHop`, max 15 with 4 bits).
    pub hops: Vec<WireHop>,
}

/// Error returned when a buffer cannot be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Buffer shorter than the header or the declared hop count requires.
    Truncated,
    /// The type nibble is not one of 1/2/4.
    BadType(u8),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "probe buffer truncated"),
            DecodeError::BadType(t) => write!(f, "invalid probe type nibble {t}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Little bit-packing writer (MSB-first within the stream).
struct BitWriter {
    buf: Vec<u8>,
    bit: usize,
}

impl BitWriter {
    fn new() -> Self {
        Self {
            buf: Vec::new(),
            bit: 0,
        }
    }

    fn put(&mut self, value: u64, bits: usize) {
        debug_assert!(bits <= 64);
        debug_assert!(bits == 64 || value < (1u64 << bits));
        for i in (0..bits).rev() {
            let b = (value >> i) & 1;
            if self.bit % 8 == 0 {
                self.buf.push(0);
            }
            let byte = self.buf.last_mut().expect("pushed above");
            *byte |= (b as u8) << (7 - (self.bit % 8));
            self.bit += 1;
        }
    }

    fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Matching bit reader.
struct BitReader<'a> {
    buf: &'a [u8],
    bit: usize,
}

impl<'a> BitReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, bit: 0 }
    }

    fn get(&mut self, bits: usize) -> Result<u64, DecodeError> {
        if self.bit + bits > self.buf.len() * 8 {
            return Err(DecodeError::Truncated);
        }
        let mut v = 0u64;
        for _ in 0..bits {
            let byte = self.buf[self.bit / 8];
            let b = (byte >> (7 - (self.bit % 8))) & 1;
            v = (v << 1) | b as u64;
            self.bit += 1;
        }
        Ok(v)
    }
}

impl WireProbe {
    /// Serialise to the Appendix-G bit layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = BitWriter::new();
        w.put(self.ptype as u64 & 0xF, 4);
        w.put(self.hops.len().min(15) as u64, 4);
        w.put(self.phi as u64 & 0xFF_FFFF, 24);
        for h in self.hops.iter().take(15) {
            w.put(h.w_units as u64, 16);
            w.put(h.phi as u64, 16);
            w.put(h.tx_units as u64, 16);
            w.put(h.q_units as u64 & 0xFFF, 12);
            w.put(h.speed as u64 & 0xF, 4);
        }
        w.finish()
    }

    /// Parse from the Appendix-G bit layout.
    pub fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut r = BitReader::new(buf);
        let ptype = r.get(4)? as u8;
        if !matches!(ptype, 1 | 2 | 4) {
            return Err(DecodeError::BadType(ptype));
        }
        let n = r.get(4)? as usize;
        let phi = r.get(24)? as u32;
        let mut hops = Vec::with_capacity(n);
        for _ in 0..n {
            hops.push(WireHop {
                w_units: r.get(16)? as u16,
                phi: r.get(16)? as u16,
                tx_units: r.get(16)? as u16,
                q_units: r.get(12)? as u16,
                speed: r.get(4)? as u8,
            });
        }
        Ok(Self { ptype, phi, hops })
    }

    /// Encoded telemetry length in bytes (excludes MAC/IP/SR framing).
    pub fn encoded_len(&self) -> usize {
        (32 + 64 * self.hops.len().min(15)).div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_hop(seed: u64) -> WireHop {
        WireHop {
            w_units: (seed * 7919 % 65536) as u16,
            phi: (seed * 104729 % 65536) as u16,
            tx_units: (seed * 1299709 % 65536) as u16,
            q_units: (seed * 15485863 % 4096) as u16,
            speed: (seed % 9) as u8,
        }
    }

    #[test]
    fn roundtrip_various_hop_counts() {
        for n in 0..=10 {
            let p = WireProbe {
                ptype: 1,
                phi: 0xABCDE,
                hops: (0..n).map(|i| sample_hop(i as u64 + 1)).collect(),
            };
            let bytes = p.encode();
            assert_eq!(bytes.len(), p.encoded_len());
            let q = WireProbe::decode(&bytes).unwrap();
            assert_eq!(p, q);
        }
    }

    #[test]
    fn five_hop_probe_under_100_bytes() {
        // The paper's headline: "diameter of 5 hops, total telemetry data
        // less than 100 bytes" including framing.
        let total = probe_packet_bytes(5, 5);
        assert!(total < 100, "5-hop probe is {total} bytes");
    }

    #[test]
    fn truncated_rejected() {
        let p = WireProbe {
            ptype: 2,
            phi: 12,
            hops: vec![sample_hop(3)],
        };
        let mut bytes = p.encode();
        bytes.pop();
        assert_eq!(WireProbe::decode(&bytes), Err(DecodeError::Truncated));
        assert_eq!(WireProbe::decode(&[]), Err(DecodeError::Truncated));
    }

    #[test]
    fn bad_type_rejected() {
        let p = WireProbe {
            ptype: 1,
            phi: 0,
            hops: vec![],
        };
        let mut bytes = p.encode();
        bytes[0] = (7 << 4) | (bytes[0] & 0x0F); // type nibble = 7
        assert_eq!(WireProbe::decode(&bytes), Err(DecodeError::BadType(7)));
    }

    #[test]
    fn quantisation_error_bounded() {
        let w_bytes = 123_456.0;
        let phi = 37.0;
        let tx = 9.37e9;
        let q = 777_777u64;
        let cap = 10_000_000_000u64;
        let h = WireHop::quantise(w_bytes, phi, tx, q, cap);
        let (w2, phi2, tx2, q2, cap2) = h.dequantise();
        assert!((w2 - w_bytes).abs() <= W_UNIT_BYTES as f64);
        assert_eq!(phi2, phi);
        assert!((tx2 - tx).abs() <= TX_UNIT_BPS as f64);
        assert!(q.abs_diff(q2) <= Q_UNIT_BYTES);
        assert_eq!(cap2, cap);
    }

    #[test]
    fn quantisation_saturates() {
        let h = WireHop::quantise(1e12, 1e9, 1e15, u64::MAX, 400_000_000_000);
        assert_eq!(h.w_units, u16::MAX);
        assert_eq!(h.phi, u16::MAX);
        assert_eq!(h.tx_units, u16::MAX);
        assert_eq!(h.q_units, 0xFFF);
        // Negative inputs clamp to zero.
        let z = WireHop::quantise(-5.0, -1.0, -2.0, 0, 1_000_000_000);
        assert_eq!(z.w_units, 0);
        assert_eq!(z.phi, 0);
    }

    #[test]
    fn speed_codes_roundtrip() {
        for &g in &SPEED_CODES_GBPS {
            let code = speed_to_code(g * 1_000_000_000);
            assert_eq!(code_to_speed(code), g * 1_000_000_000);
        }
        // Nearest-match behaviour for an off-list speed.
        assert_eq!(code_to_speed(speed_to_code(9_000_000_000)), 10_000_000_000);
    }

    #[test]
    fn probe_size_scales_linearly() {
        let base = probe_packet_bytes(0, 0);
        let one = probe_packet_bytes(1, 1);
        assert_eq!(one - base, 8 + SR_PER_HOP);
    }
}
