//! Delta codec for checkpoint ladders.
//!
//! A configuration's checkpoints form a time ladder (see
//! [`crate::checkpoint`]); consecutive rungs are nearly identical — the
//! snapshot differs in a handful of clock values and counters, and the
//! event prefix of the earlier rung is (for a deterministic simulator) an
//! exact prefix of the later one. This module exploits both:
//!
//! * [`diff_bytes`] / [`apply_bytes`] encode a snapshot's serialized bytes
//!   against the predecessor's as one zigzag-LEB128 varint per 64-bit
//!   word of the wrapping difference — unchanged words cost one byte.
//!   Both byte strings must have the same length (same configuration ⇒
//!   same state vector shape); a length mismatch is rejected, so a delta
//!   can never be applied to a foreign model's snapshot.
//! * [`encode_events`] / [`decode_events`] pack the event *suffix* beyond
//!   the predecessor's prefix as delta-timestamped compact records: a
//!   zigzag varint time delta, a tag byte (`0` internal, `1` binary, `2`
//!   broadcast) and varint-encoded participant ids.
//!
//! Every decoder is exact: applying a delta reproduces the original bytes
//! and events bit-for-bit, and truncated or trailing input is an error
//! (`None`), never a partial decode.

use swa_nsa::semantics::Transition;
use swa_nsa::{AutomatonId, ChannelId, EdgeId, SyncEvent};

/// Appends `v` as an unsigned LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends `v` zigzag-mapped (small magnitudes of either sign stay short).
fn put_zigzag(out: &mut Vec<u8>, v: i64) {
    #[allow(clippy::cast_sign_loss)]
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Little-endian varint cursor; every read is bounds-checked.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Cursor<'_> {
    fn varint(&mut self) -> Option<u64> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = *self.bytes.get(self.at)?;
            self.at += 1;
            if shift >= 64 {
                return None;
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Some(v);
            }
            shift += 7;
        }
    }

    fn zigzag(&mut self) -> Option<i64> {
        let v = self.varint()?;
        #[allow(clippy::cast_possible_wrap)]
        Some(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    fn u32(&mut self) -> Option<u32> {
        u32::try_from(self.varint()?).ok()
    }

    fn done(&self) -> bool {
        self.at == self.bytes.len()
    }
}

/// Reads the `i`-th 64-bit word of `bytes`, zero-padding the tail.
fn word(bytes: &[u8], i: usize) -> u64 {
    let mut buf = [0u8; 8];
    let at = i * 8;
    let n = bytes.len().saturating_sub(at).min(8);
    buf[..n].copy_from_slice(&bytes[at..at + n]);
    u64::from_le_bytes(buf)
}

/// Encodes `new` as a word-wise delta against `base`. The two byte
/// strings must have equal length; the caller falls back to full storage
/// otherwise.
#[must_use]
pub(crate) fn diff_bytes(base: &[u8], new: &[u8]) -> Option<Vec<u8>> {
    if base.len() != new.len() {
        return None;
    }
    let words = new.len().div_ceil(8);
    let mut out = Vec::with_capacity(words + 8);
    put_varint(&mut out, new.len() as u64);
    for i in 0..words {
        #[allow(clippy::cast_possible_wrap)]
        put_zigzag(&mut out, word(new, i).wrapping_sub(word(base, i)) as i64);
    }
    Some(out)
}

/// Applies a [`diff_bytes`] delta to `base`, reproducing the original
/// bytes exactly. Rejects (returns `None`) a delta recorded against a
/// base of a different length — the foreign-model guard — as well as
/// truncated or trailing input.
#[must_use]
pub(crate) fn apply_bytes(base: &[u8], delta: &[u8]) -> Option<Vec<u8>> {
    let mut c = Cursor {
        bytes: delta,
        at: 0,
    };
    let len = usize::try_from(c.varint()?).ok()?;
    if len != base.len() {
        return None;
    }
    let words = len.div_ceil(8);
    let mut out = Vec::with_capacity(words * 8);
    for i in 0..words {
        #[allow(clippy::cast_sign_loss)]
        let w = word(base, i).wrapping_add(c.zigzag()? as u64);
        out.extend_from_slice(&w.to_le_bytes());
    }
    if !c.done() {
        return None;
    }
    out.truncate(len);
    Some(out)
}

/// Encodes an event run as delta-timestamped compact records. `prev_time`
/// is the timestamp of the event immediately before the run (`0` for a
/// run starting the trace) — the decoder must be given the same value.
#[must_use]
pub(crate) fn encode_events(events: &[SyncEvent], mut prev_time: i64) -> Vec<u8> {
    let mut out = Vec::with_capacity(events.len() * 4);
    for e in events {
        put_zigzag(&mut out, e.time.wrapping_sub(prev_time));
        prev_time = e.time;
        match &e.transition {
            Transition::Internal { participant } => {
                out.push(0);
                put_varint(&mut out, u64::from(participant.0.raw()));
                put_varint(&mut out, u64::from(participant.1.raw()));
            }
            Transition::Binary {
                channel,
                sender,
                receiver,
            } => {
                out.push(1);
                put_varint(&mut out, u64::from(channel.raw()));
                put_varint(&mut out, u64::from(sender.0.raw()));
                put_varint(&mut out, u64::from(sender.1.raw()));
                put_varint(&mut out, u64::from(receiver.0.raw()));
                put_varint(&mut out, u64::from(receiver.1.raw()));
            }
            Transition::Broadcast {
                channel,
                sender,
                receivers,
            } => {
                out.push(2);
                put_varint(&mut out, u64::from(channel.raw()));
                put_varint(&mut out, u64::from(sender.0.raw()));
                put_varint(&mut out, u64::from(sender.1.raw()));
                put_varint(&mut out, receivers.len() as u64);
                for (a, e) in receivers {
                    put_varint(&mut out, u64::from(a.raw()));
                    put_varint(&mut out, u64::from(e.raw()));
                }
            }
        }
    }
    out
}

/// Decodes exactly `count` events from an [`encode_events`] stream.
/// Truncated input, an unknown tag and trailing bytes are all rejected.
#[must_use]
pub(crate) fn decode_events(
    bytes: &[u8],
    mut prev_time: i64,
    count: usize,
) -> Option<Vec<SyncEvent>> {
    let mut c = Cursor { bytes, at: 0 };
    // Every event takes at least four bytes (time delta, tag and one
    // participant), so a larger `count` can only be corruption; the loop
    // below rejects it, and the capacity must not trust it.
    let mut out = Vec::with_capacity(count.min(bytes.len() / 4));
    for _ in 0..count {
        let time = prev_time.wrapping_add(c.zigzag()?);
        prev_time = time;
        let tag = *c.bytes.get(c.at)?;
        c.at += 1;
        let participant =
            |c: &mut Cursor| Some((AutomatonId::from_raw(c.u32()?), EdgeId::from_raw(c.u32()?)));
        let transition = match tag {
            0 => Transition::Internal {
                participant: participant(&mut c)?,
            },
            1 => Transition::Binary {
                channel: ChannelId::from_raw(c.u32()?),
                sender: participant(&mut c)?,
                receiver: participant(&mut c)?,
            },
            2 => {
                let channel = ChannelId::from_raw(c.u32()?);
                let sender = participant(&mut c)?;
                let n = usize::try_from(c.varint()?).ok()?;
                if n > bytes.len() {
                    // A receiver list longer than the remaining input can
                    // only be corruption; cap before allocating.
                    return None;
                }
                let mut receivers = Vec::with_capacity(n);
                for _ in 0..n {
                    receivers.push(participant(&mut c)?);
                }
                Transition::Broadcast {
                    channel,
                    sender,
                    receivers,
                }
            }
            _ => return None,
        };
        out.push(SyncEvent { time, transition });
    }
    if !c.done() {
        return None;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn internal(time: i64, a: u32, e: u32) -> SyncEvent {
        SyncEvent {
            time,
            transition: Transition::Internal {
                participant: (AutomatonId::from_raw(a), EdgeId::from_raw(e)),
            },
        }
    }

    fn binary(time: i64, ch: u32, s: (u32, u32), r: (u32, u32)) -> SyncEvent {
        SyncEvent {
            time,
            transition: Transition::Binary {
                channel: ChannelId::from_raw(ch),
                sender: (AutomatonId::from_raw(s.0), EdgeId::from_raw(s.1)),
                receiver: (AutomatonId::from_raw(r.0), EdgeId::from_raw(r.1)),
            },
        }
    }

    fn broadcast(time: i64, ch: u32, s: (u32, u32), rs: &[(u32, u32)]) -> SyncEvent {
        SyncEvent {
            time,
            transition: Transition::Broadcast {
                channel: ChannelId::from_raw(ch),
                sender: (AutomatonId::from_raw(s.0), EdgeId::from_raw(s.1)),
                receivers: rs
                    .iter()
                    .map(|&(a, e)| (AutomatonId::from_raw(a), EdgeId::from_raw(e)))
                    .collect(),
            },
        }
    }

    #[test]
    fn byte_delta_round_trips_and_is_compact() {
        let base: Vec<u8> = (0..1000u32).flat_map(|i| i.to_le_bytes()).collect();
        let mut new = base.clone();
        new[40] ^= 0xff;
        new[3999] = 7;
        let delta = diff_bytes(&base, &new).unwrap();
        // One byte per unchanged word: ~500 words, 2 changed.
        assert!(delta.len() < 520, "delta is {} bytes", delta.len());
        assert_eq!(apply_bytes(&base, &delta).unwrap(), new);
    }

    #[test]
    fn byte_delta_handles_non_word_tails() {
        for tail in 0..8usize {
            let base = vec![0xaau8; 8 * 3 + tail];
            let mut new = base.clone();
            if let Some(last) = new.last_mut() {
                *last = 0x55;
            }
            let delta = diff_bytes(&base, &new).unwrap();
            assert_eq!(apply_bytes(&base, &delta).unwrap(), new);
        }
    }

    #[test]
    fn byte_delta_rejects_foreign_base_lengths() {
        let base = vec![1u8; 64];
        let new = vec![2u8; 64];
        assert!(diff_bytes(&base, &new[..32]).is_none());
        let delta = diff_bytes(&base, &new).unwrap();
        assert!(apply_bytes(&base[..32], &delta).is_none());
        assert!(apply_bytes(&[1u8; 128], &delta).is_none());
    }

    #[test]
    fn byte_delta_rejects_truncated_and_trailing_input() {
        let base = vec![9u8; 100];
        let delta = diff_bytes(&base, &base).unwrap();
        assert!(apply_bytes(&base, &delta[..delta.len() - 1]).is_none());
        let mut padded = delta;
        padded.push(0);
        assert!(apply_bytes(&base, &padded).is_none());
    }

    #[test]
    fn event_codec_round_trips_every_shape() {
        let events = vec![
            internal(5, 3, 7),
            binary(5, 2, (0, 1), (4, 9)),
            broadcast(12, 1, (8, 2), &[(1, 1), (2, 3), (900, 40)]),
            broadcast(12, 0, (1, 0), &[]),
            internal(1000, u32::MAX, u32::MAX),
        ];
        for prev in [0i64, 5, -3] {
            let bytes = encode_events(&events, prev);
            assert_eq!(
                decode_events(&bytes, prev, events.len()).unwrap(),
                events,
                "prev_time {prev}"
            );
        }
    }

    #[test]
    fn event_codec_is_compact_for_dense_traces() {
        let events: Vec<SyncEvent> = (0..1000).map(|i| internal(i / 4, 3, 2)).collect();
        let bytes = encode_events(&events, 0);
        assert!(
            bytes.len() <= events.len() * 4,
            "encoded {} bytes for {} events",
            bytes.len(),
            events.len()
        );
    }

    #[test]
    fn event_codec_rejects_malformed_input() {
        let events = vec![internal(1, 2, 3), binary(2, 0, (1, 1), (2, 2))];
        let bytes = encode_events(&events, 0);
        // Truncation at every split point fails rather than mis-decoding.
        for cut in 0..bytes.len() {
            assert!(decode_events(&bytes[..cut], 0, events.len()).is_none());
        }
        // Trailing garbage is rejected.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_events(&padded, 0, events.len()).is_none());
        // An unknown tag is rejected.
        let mut bad = bytes.clone();
        bad[1] = 9;
        assert!(decode_events(&bad, 0, events.len()).is_none());
        // A corrupted count is rejected without allocating for it.
        assert!(decode_events(&bytes, 0, 1 << 53).is_none());
    }

    #[test]
    fn wrong_prev_time_shifts_are_detected_by_value_mismatch() {
        // The codec itself cannot detect a wrong anchor — it reproduces
        // shifted timestamps — so the checkpoint layer verifies prefixes
        // at insert time. This test documents the contract.
        let events = vec![internal(10, 0, 0)];
        let bytes = encode_events(&events, 7);
        let shifted = decode_events(&bytes, 9, 1).unwrap();
        assert_eq!(shifted[0].time, 12);
    }
}
