//! Byte-level codecs for the protocol types that will cross process
//! boundaries in the MPI / multi-process backend.
//!
//! The workspace derives `serde::Serialize`/`Deserialize` on these types, but
//! the vendored serde is an offline *shim*: blanket marker traits and no-op
//! derives that keep the bounds compiling until a registry is reachable (see
//! `vendor/README.md`). A wire format cannot wait for that, so [`WireCode`]
//! provides the actual bytes today: a little-endian, length-prefixed
//! encoding of exactly the payloads a multi-process ring needs — submodel
//! envelopes, Z-step updates, and the retrieval query/reply pair of the
//! [`server`](crate::server) mailbox protocol (a reply carries the
//! answering machine's id — the replica identity the failover router
//! attributes health to). When real serde lands, these
//! codecs become its regression baseline (the round-trip tests pin the
//! semantics, not the byte layout).
//!
//! Channel handles ([`Sender`](crossbeam_channel::Sender)s, `Arc`s) never
//! serialise; the message that carries them in-process
//! ([`Query`](crate::server::Query)) has a dedicated wire form holding only
//! the data ([`WireQuery`]).

use crate::backend::ZUpdate;
use crate::envelope::SubmodelEnvelope;
use crate::server::{QueryReply, ZShardUpdates};
use parmac_hash::BinaryCodes;
use std::fmt;

/// A wire decoding failure.
///
/// A corrupt frame arriving over a real socket must be *diagnosable*:
/// truncations carry how many bytes the decoder needed against how many were
/// left (the offending offset into the frame is `frame_len - remaining`), and
/// bad discriminants carry the tag value together with the enum that rejected
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete: the decoder needed
    /// `needed` more bytes but only `remaining` remained.
    Truncated {
        /// Bytes the decoder needed for the value (or payload) at hand.
        needed: usize,
        /// Bytes actually left in the buffer at the point of failure.
        remaining: usize,
    },
    /// A discriminant decoded to a value no variant of `context` maps to.
    BadTag {
        /// The type whose decoder rejected the discriminant.
        context: &'static str,
        /// The offending tag value.
        tag: u64,
    },
    /// The bytes decoded to an impossible value.
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, remaining } => write!(
                f,
                "truncated wire buffer: needed {needed} bytes, {remaining} remaining"
            ),
            WireError::BadTag { context, tag } => {
                write!(f, "bad wire tag for {context}: {tag}")
            }
            WireError::Malformed(what) => write!(f, "malformed wire value: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Little-endian, length-prefixed byte codec. `encode_wire` appends to the
/// buffer; `decode_wire` consumes from the front of the slice, so values
/// compose by concatenation.
pub trait WireCode: Sized {
    /// A lower bound (in bytes) on the encoding of *any* value of this type.
    /// Length-prefixed containers multiply it by the claimed element count to
    /// reject impossible lengths **before** allocating — a malformed 8-byte
    /// length prefix must be a decode error, not a giant allocation.
    const MIN_ENCODED_LEN: usize;

    /// Appends this value's encoding to `buf`.
    fn encode_wire(&self, buf: &mut Vec<u8>);

    /// Decodes one value from the front of `bytes`, advancing the slice.
    fn decode_wire(bytes: &mut &[u8]) -> Result<Self, WireError>;

    /// Encodes into a fresh buffer.
    fn to_wire(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_wire(&mut buf);
        buf
    }

    /// Decodes a value that must consume the whole buffer.
    fn from_wire(mut bytes: &[u8]) -> Result<Self, WireError> {
        let value = Self::decode_wire(&mut bytes)?;
        if bytes.is_empty() {
            Ok(value)
        } else {
            Err(WireError::Malformed("trailing bytes after value"))
        }
    }
}

fn take<'a>(bytes: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if bytes.len() < n {
        return Err(WireError::Truncated {
            needed: n,
            remaining: bytes.len(),
        });
    }
    let (head, tail) = bytes.split_at(n);
    *bytes = tail;
    Ok(head)
}

impl WireCode for u64 {
    const MIN_ENCODED_LEN: usize = 8;

    fn encode_wire(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }

    fn decode_wire(bytes: &mut &[u8]) -> Result<Self, WireError> {
        let raw = take(bytes, 8)?;
        let mut le = [0u8; 8];
        le.copy_from_slice(raw);
        Ok(u64::from_le_bytes(le))
    }
}

impl WireCode for u32 {
    const MIN_ENCODED_LEN: usize = 4;

    fn encode_wire(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }

    fn decode_wire(bytes: &mut &[u8]) -> Result<Self, WireError> {
        let raw = take(bytes, 4)?;
        let mut le = [0u8; 4];
        le.copy_from_slice(raw);
        Ok(u32::from_le_bytes(le))
    }
}

impl WireCode for usize {
    const MIN_ENCODED_LEN: usize = 8;

    fn encode_wire(&self, buf: &mut Vec<u8>) {
        (*self as u64).encode_wire(buf);
    }

    fn decode_wire(bytes: &mut &[u8]) -> Result<Self, WireError> {
        let wide = u64::decode_wire(bytes)?;
        usize::try_from(wide).map_err(|_| WireError::Malformed("usize overflow"))
    }
}

impl WireCode for f64 {
    const MIN_ENCODED_LEN: usize = 8;

    fn encode_wire(&self, buf: &mut Vec<u8>) {
        self.to_bits().encode_wire(buf);
    }

    fn decode_wire(bytes: &mut &[u8]) -> Result<Self, WireError> {
        Ok(f64::from_bits(u64::decode_wire(bytes)?))
    }
}

/// One word, 0 or 1 — booleans cross the wire as an explicit tag so a flipped
/// byte is a [`WireError::BadTag`], never a silently-truthy value.
impl WireCode for bool {
    const MIN_ENCODED_LEN: usize = 8;

    fn encode_wire(&self, buf: &mut Vec<u8>) {
        u64::from(*self).encode_wire(buf);
    }

    fn decode_wire(bytes: &mut &[u8]) -> Result<Self, WireError> {
        match u64::decode_wire(bytes)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag {
                context: "bool",
                tag,
            }),
        }
    }
}

/// The unit payload: a submodel envelope with no parameters (protocol probes,
/// tests) costs zero bytes.
impl WireCode for () {
    const MIN_ENCODED_LEN: usize = 0;

    fn encode_wire(&self, _buf: &mut Vec<u8>) {}

    fn decode_wire(_bytes: &mut &[u8]) -> Result<Self, WireError> {
        Ok(())
    }
}

impl<T: WireCode> WireCode for Vec<T> {
    const MIN_ENCODED_LEN: usize = 8; // the length prefix

    fn encode_wire(&self, buf: &mut Vec<u8>) {
        self.len().encode_wire(buf);
        for item in self {
            item.encode_wire(buf);
        }
    }

    fn decode_wire(bytes: &mut &[u8]) -> Result<Self, WireError> {
        let len = usize::decode_wire(bytes)?;
        // Reject impossible lengths *before* `Vec::with_capacity`: `len`
        // elements need at least `len × MIN_ENCODED_LEN` bytes. Zero-sized
        // encodings (e.g. `()`) are exempt — any count fits in zero bytes.
        if T::MIN_ENCODED_LEN > 0 {
            let needed = len
                .checked_mul(T::MIN_ENCODED_LEN)
                .ok_or(WireError::Malformed("vector length overflows"))?;
            if needed > bytes.len() {
                return Err(WireError::Truncated {
                    needed,
                    remaining: bytes.len(),
                });
            }
        }
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(T::decode_wire(bytes)?);
        }
        Ok(items)
    }
}

/// `None`/`Some` as a one-byte-word tag (0/1) followed by the value — the
/// encoding of an optional probe budget.
impl<T: WireCode> WireCode for Option<T> {
    const MIN_ENCODED_LEN: usize = 8; // the tag

    fn encode_wire(&self, buf: &mut Vec<u8>) {
        match self {
            None => 0u64.encode_wire(buf),
            Some(value) => {
                1u64.encode_wire(buf);
                value.encode_wire(buf);
            }
        }
    }

    fn decode_wire(bytes: &mut &[u8]) -> Result<Self, WireError> {
        match u64::decode_wire(bytes)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode_wire(bytes)?)),
            tag => Err(WireError::BadTag {
                context: "Option",
                tag,
            }),
        }
    }
}

impl<A: WireCode, B: WireCode> WireCode for (A, B) {
    const MIN_ENCODED_LEN: usize = A::MIN_ENCODED_LEN + B::MIN_ENCODED_LEN;

    fn encode_wire(&self, buf: &mut Vec<u8>) {
        self.0.encode_wire(buf);
        self.1.encode_wire(buf);
    }

    fn decode_wire(bytes: &mut &[u8]) -> Result<Self, WireError> {
        Ok((A::decode_wire(bytes)?, B::decode_wire(bytes)?))
    }
}

impl WireCode for ZUpdate {
    const MIN_ENCODED_LEN: usize = 16; // point + code-length prefix

    fn encode_wire(&self, buf: &mut Vec<u8>) {
        self.point.encode_wire(buf);
        self.code.encode_wire(buf);
    }

    fn decode_wire(bytes: &mut &[u8]) -> Result<Self, WireError> {
        Ok(ZUpdate {
            point: usize::decode_wire(bytes)?,
            code: Vec::decode_wire(bytes)?,
        })
    }
}

impl<S: WireCode> WireCode for SubmodelEnvelope<S> {
    // Four counters + two vector prefixes + the payload's own floor.
    const MIN_ENCODED_LEN: usize = 4 * 8 + 2 * 8 + S::MIN_ENCODED_LEN;

    fn encode_wire(&self, buf: &mut Vec<u8>) {
        self.submodel_id.encode_wire(buf);
        self.visits.encode_wire(buf);
        self.epochs_completed.encode_wire(buf);
        self.forward_visits.encode_wire(buf);
        self.pending_machines.encode_wire(buf);
        self.faulted_machines.encode_wire(buf);
        self.payload.encode_wire(buf);
    }

    fn decode_wire(bytes: &mut &[u8]) -> Result<Self, WireError> {
        Ok(SubmodelEnvelope {
            submodel_id: usize::decode_wire(bytes)?,
            visits: usize::decode_wire(bytes)?,
            epochs_completed: usize::decode_wire(bytes)?,
            forward_visits: usize::decode_wire(bytes)?,
            pending_machines: Vec::decode_wire(bytes)?,
            faulted_machines: Vec::decode_wire(bytes)?,
            payload: S::decode_wire(bytes)?,
        })
    }
}

impl WireCode for BinaryCodes {
    const MIN_ENCODED_LEN: usize = 16; // (n_codes, n_bits) header

    fn encode_wire(&self, buf: &mut Vec<u8>) {
        self.len().encode_wire(buf);
        self.n_bits().encode_wire(buf);
        for i in 0..self.len() {
            for &word in self.code_words(i) {
                word.encode_wire(buf);
            }
        }
    }

    fn decode_wire(bytes: &mut &[u8]) -> Result<Self, WireError> {
        let n_codes = usize::decode_wire(bytes)?;
        let n_bits = usize::decode_wire(bytes)?;
        if n_bits == 0 {
            return Err(WireError::Malformed("codes must have at least one bit"));
        }
        let words_per_code = n_bits.div_ceil(64);
        // Validate the payload length *before* allocating: a malformed
        // 16-byte header must be an EOF error, not an 8 TB allocation.
        let total_words = n_codes
            .checked_mul(words_per_code)
            .ok_or(WireError::Malformed("code count overflows"))?;
        match total_words.checked_mul(8) {
            None => return Err(WireError::Malformed("code payload overflows")),
            Some(payload) if payload > bytes.len() => {
                return Err(WireError::Truncated {
                    needed: payload,
                    remaining: bytes.len(),
                });
            }
            Some(_) => {}
        }
        let mut codes = BinaryCodes::zeros(n_codes, n_bits);
        for i in 0..n_codes {
            for w in 0..words_per_code {
                let word = u64::decode_wire(bytes)?;
                let first_bit = w * 64;
                for b in first_bit..n_bits.min(first_bit + 64) {
                    codes.set_bit(i, b, word >> (b - first_bit) & 1 == 1);
                }
            }
        }
        Ok(codes)
    }
}

/// The wire form of a retrieval [`Query`](crate::server::Query): the data
/// without the in-process reply channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireQuery {
    /// The query codes.
    pub queries: BinaryCodes,
    /// Which of the machine's resident shards should answer (the failover
    /// router asks each replica only for the shards it routed there).
    pub shards: Vec<usize>,
    /// Neighbours requested per query.
    pub k: usize,
    /// Probe budget per query (`None` = exact mode).
    pub probes: Option<usize>,
}

impl WireCode for WireQuery {
    const MIN_ENCODED_LEN: usize =
        BinaryCodes::MIN_ENCODED_LEN + <Vec<usize>>::MIN_ENCODED_LEN + 8 + 8;

    fn encode_wire(&self, buf: &mut Vec<u8>) {
        self.queries.encode_wire(buf);
        self.shards.encode_wire(buf);
        self.k.encode_wire(buf);
        self.probes.encode_wire(buf);
    }

    fn decode_wire(bytes: &mut &[u8]) -> Result<Self, WireError> {
        Ok(WireQuery {
            queries: BinaryCodes::decode_wire(bytes)?,
            shards: Vec::decode_wire(bytes)?,
            k: usize::decode_wire(bytes)?,
            probes: Option::decode_wire(bytes)?,
        })
    }
}

impl WireCode for QueryReply {
    const MIN_ENCODED_LEN: usize = 8 + 2 * <Vec<usize>>::MIN_ENCODED_LEN;

    fn encode_wire(&self, buf: &mut Vec<u8>) {
        self.machine.encode_wire(buf);
        self.answered.encode_wire(buf);
        self.missing.encode_wire(buf);
    }

    fn decode_wire(bytes: &mut &[u8]) -> Result<Self, WireError> {
        Ok(QueryReply {
            machine: usize::decode_wire(bytes)?,
            answered: Vec::decode_wire(bytes)?,
            missing: Vec::decode_wire(bytes)?,
        })
    }
}

impl WireCode for ZShardUpdates {
    const MIN_ENCODED_LEN: usize = 8 + <Vec<ZUpdate>>::MIN_ENCODED_LEN;

    fn encode_wire(&self, buf: &mut Vec<u8>) {
        self.machine.encode_wire(buf);
        self.updates.encode_wire(buf);
    }

    fn decode_wire(bytes: &mut &[u8]) -> Result<Self, WireError> {
        Ok(ZShardUpdates {
            machine: usize::decode_wire(bytes)?,
            updates: Vec::decode_wire(bytes)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The serde-shim contract: every wire type keeps satisfying the
    /// `Serialize`/`Deserialize` bounds the real serde will demand, so the
    /// shim can be swapped out without touching these types.
    fn assert_serde_bounds<T: serde::Serialize + for<'de> serde::Deserialize<'de>>() {}

    #[test]
    fn wire_types_satisfy_the_serde_shim_bounds() {
        assert_serde_bounds::<SubmodelEnvelope<Vec<f64>>>();
        assert_serde_bounds::<ZUpdate>();
        assert_serde_bounds::<QueryReply>();
        assert_serde_bounds::<ZShardUpdates>();
        assert_serde_bounds::<WireQuery>();
        assert_serde_bounds::<BinaryCodes>();
    }

    fn round_trip<T: WireCode + PartialEq + std::fmt::Debug>(value: &T) {
        let bytes = value.to_wire();
        let back = T::from_wire(&bytes).expect("round trip decodes");
        assert_eq!(&back, value);
    }

    #[test]
    fn envelope_round_trips_with_full_protocol_state() {
        let mut env =
            SubmodelEnvelope::new(7, vec![1.5f64, -2.25, 0.0, f64::MIN], &[0, 1, 2, 3, 4]);
        env.record_visit(0, &[0, 1, 2, 3, 4], 2);
        env.handle_fault(3, &[0, 1, 2, 3, 4], 2);
        round_trip(&env);
        let bytes = env.to_wire();
        let back: SubmodelEnvelope<Vec<f64>> = SubmodelEnvelope::from_wire(&bytes).unwrap();
        assert_eq!(back.pending_machines, vec![1, 2, 4]);
        assert_eq!(back.faulted_machines, vec![3]);
        assert_eq!(back.visits, 1);
    }

    #[test]
    fn unit_payload_envelope_round_trips() {
        round_trip(&SubmodelEnvelope::new(0, (), &[0, 1]));
    }

    #[test]
    fn z_update_and_shard_updates_round_trip() {
        let updates = ZShardUpdates {
            machine: 2,
            updates: vec![
                ZUpdate {
                    point: 11,
                    code: vec![0.0, 1.0, 1.0],
                },
                ZUpdate {
                    point: 999,
                    code: vec![1.0],
                },
            ],
        };
        round_trip(&updates.updates[0]);
        round_trip(&updates);
    }

    #[test]
    fn query_and_reply_round_trip() {
        let queries = BinaryCodes::from_bools(&[
            vec![true, false, true, true, false],
            vec![false, false, false, false, true],
        ]);
        round_trip(&WireQuery {
            queries: queries.clone(),
            shards: vec![0, 2],
            k: 10,
            probes: None,
        });
        round_trip(&WireQuery {
            queries,
            shards: vec![1],
            k: 3,
            probes: Some(8),
        });
        round_trip(&QueryReply {
            machine: 1,
            answered: vec![
                (0, vec![vec![(0, 4), (2, 17)], vec![]]),
                (2, vec![vec![], vec![]]),
            ],
            missing: vec![5],
        });
        // A corrupt option tag is a bad tag carrying the value, not a bogus
        // budget.
        let mut bad = Vec::new();
        7u64.encode_wire(&mut bad);
        assert_eq!(
            Option::<usize>::from_wire(&bad),
            Err(WireError::BadTag {
                context: "Option",
                tag: 7
            })
        );
    }

    #[test]
    fn bool_round_trips_and_rejects_non_binary_tags() {
        round_trip(&true);
        round_trip(&false);
        let mut bad = Vec::new();
        2u64.encode_wire(&mut bad);
        assert_eq!(
            bool::from_wire(&bad),
            Err(WireError::BadTag {
                context: "bool",
                tag: 2
            })
        );
    }

    #[test]
    fn binary_codes_round_trip_across_word_boundaries() {
        // 65 bits → two words per code; exercise the split-word decode path.
        let mut codes = BinaryCodes::zeros(3, 65);
        for (i, b) in [(0usize, 0usize), (0, 64), (1, 63), (2, 1)] {
            codes.set_bit(i, b, true);
        }
        round_trip(&codes);
    }

    #[test]
    fn truncated_and_oversized_buffers_are_rejected() {
        let env = SubmodelEnvelope::new(1, vec![3.0f64], &[0, 1, 2]);
        let bytes = env.to_wire();
        // Fuzz-ish sweep: decoding must fail cleanly (no panic, no giant
        // allocation) at *every* possible truncation point.
        for cut in 0..bytes.len() {
            let err = SubmodelEnvelope::<Vec<f64>>::from_wire(&bytes[..cut])
                .expect_err("truncated buffer must not decode");
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut={cut}: {err:?}"
            );
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(
            SubmodelEnvelope::<Vec<f64>>::from_wire(&padded),
            Err(WireError::Malformed("trailing bytes after value"))
        );
    }

    #[test]
    fn oversized_length_prefixes_are_rejected_before_allocating() {
        // A vector length far beyond the buffer is a truncation error that
        // names the impossible byte count, not an OOM.
        let mut header = Vec::new();
        1000u64.encode_wire(&mut header);
        assert_eq!(
            Vec::<u64>::from_wire(&header),
            Err(WireError::Truncated {
                needed: 8000,
                remaining: 0
            })
        );
        // A length whose byte requirement overflows usize is malformed.
        let mut huge = Vec::new();
        u64::MAX.encode_wire(&mut huge);
        assert_eq!(
            Vec::<f64>::from_wire(&huge),
            Err(WireError::Malformed("vector length overflows"))
        );
        // Nested containers hit the same guard through the element floor.
        let mut nested = Vec::new();
        (1u64 << 40).encode_wire(&mut nested);
        assert!(matches!(
            Vec::<Vec<f64>>::from_wire(&nested),
            Err(WireError::Truncated { .. })
        ));
        // Same for a malformed BinaryCodes header: the (n_codes, n_bits)
        // pair is validated against the remaining payload length *before*
        // any allocation, including the overflowing combinations.
        for (n_codes, n_bits) in [(1u64 << 40, 1u64), (u64::MAX, 64), (u64::MAX, u64::MAX)] {
            let mut header = Vec::new();
            n_codes.encode_wire(&mut header);
            n_bits.encode_wire(&mut header);
            assert!(
                BinaryCodes::from_wire(&header).is_err(),
                "n_codes={n_codes}, n_bits={n_bits}"
            );
        }
    }

    #[test]
    fn wire_error_displays() {
        let eof = WireError::Truncated {
            needed: 24,
            remaining: 3,
        };
        assert_eq!(
            eof.to_string(),
            "truncated wire buffer: needed 24 bytes, 3 remaining"
        );
        let tag = WireError::BadTag {
            context: "Frame",
            tag: 99,
        };
        assert_eq!(tag.to_string(), "bad wire tag for Frame: 99");
        assert!(WireError::Malformed("x").to_string().contains('x'));
    }
}
