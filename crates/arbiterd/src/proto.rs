//! The framed wire protocol between telemetry producers and the daemon.
//!
//! Frames are length-prefixed (`u32` little-endian byte count, then the
//! payload) so they survive arbitrary TCP segmentation; the payload is a
//! one-byte tag followed by fixed-width little-endian fields. All watts
//! and seconds travel as raw `f64` bits ([`f64::to_bits`]), never as
//! decimal text — the chaos acceptance criterion is *bitwise* grant
//! equality between the daemon path and the in-process arbiter, and a
//! round-trip through formatting would forfeit it.
//!
//! The protocol is deliberately version-tagged and paranoid on decode:
//! a daemon that parses attacker-shaped bytes with `unwrap` is a daemon
//! that dies to a single corrupt frame, so every decode path returns
//! [`ProtoError`] and the frame scanner bounds allocation with
//! [`MAX_FRAME`].

use cluster::NodeTelemetry;

/// Cap on a single *singleton* frame's payload, bytes. The largest
/// legitimate message is `Telemetry` at 53 bytes; anything claiming more
/// is a corrupt or hostile length prefix and is rejected before
/// allocation. [`Msg::Batch`] frames get their own cap,
/// [`MAX_BATCH_FRAME`].
pub const MAX_FRAME: usize = 256;

/// Cap on a [`Msg::Batch`] frame's payload, bytes. Batches exist so one
/// syscall can carry thousands of telemetry reports or grants (57 bytes
/// per inner telemetry frame → ~18k reports fit); a prefix claiming more
/// than this is hostile regardless of tag.
pub const MAX_BATCH_FRAME: usize = 1 << 20;

/// Decoding failure: the frame is structurally broken. The connection
/// that produced it is dropped, not the daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized(usize),
    /// Unknown message tag.
    BadTag(u8),
    /// The payload is shorter or longer than its tag demands.
    BadLength {
        /// Message tag.
        tag: u8,
        /// Payload bytes actually present.
        got: usize,
    },
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Oversized(n) => write!(f, "frame of {n} bytes exceeds {MAX_FRAME}"),
            ProtoError::BadTag(t) => write!(f, "unknown message tag {t:#04x}"),
            ProtoError::BadLength { tag, got } => {
                write!(f, "tag {tag:#04x} payload has {got} bytes")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

/// Every message either side of the wire can carry.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Client → daemon: (re)introduce node `node`. Renews the lease and
    /// solicits an immediate [`Msg::Grant`] so a reconnecting client
    /// recovers its cap without waiting a full arbiter tick.
    Hello {
        /// Cluster-wide node id.
        node: u32,
    },
    /// Client → daemon: keep the lease alive without fresh telemetry.
    Heartbeat {
        /// Cluster-wide node id.
        node: u32,
    },
    /// Client → daemon: one epoch's telemetry. `seq` is the client's own
    /// monotone counter, echoed back on the matching grant so recovery
    /// runs can be compared grant-for-grant.
    Telemetry {
        /// Cluster-wide node id.
        node: u32,
        /// Client-side sequence number, from 1; the daemon NACKs 0.
        seq: u64,
        /// The report itself.
        report: NodeTelemetry,
    },
    /// Daemon → client: the current grant for `node`.
    Grant {
        /// Cluster-wide node id.
        node: u32,
        /// Sequence of the telemetry this grant answers (0 for grants
        /// pushed outside a telemetry round, e.g. on Hello).
        seq: u64,
        /// Daemon tick that produced the grant.
        tick: u64,
        /// Granted cap, W.
        watts: f64,
    },
    /// Daemon → client: load shed. The ingress queue is full or the
    /// client is over its rate; retry after `retry_after` ticks.
    Busy {
        /// Ticks to back off before retrying.
        retry_after: u32,
    },
    /// Daemon → client: the telemetry was malformed and dropped. The
    /// lease survives; the client keeps its last grant.
    Nack {
        /// Which seq was rejected.
        seq: u64,
    },
    /// Either direction: many messages in one frame, so one syscall
    /// carries a whole tick's worth of telemetry or grants. The payload
    /// is a count followed by the inner messages' complete *singleton*
    /// frames, verbatim — so a batch is bit-identical to the
    /// concatenation of its members' individual encodings (after the
    /// 5-byte batch header), and decoding distributes over the members.
    /// Batches do not nest: an inner `Batch` is a [`ProtoError::BadTag`].
    Batch(Vec<Msg>),
}

const TAG_HELLO: u8 = 1;
const TAG_HEARTBEAT: u8 = 2;
const TAG_TELEMETRY: u8 = 3;
const TAG_GRANT: u8 = 4;
const TAG_BUSY: u8 = 5;
const TAG_NACK: u8 = 6;
const TAG_BATCH: u8 = 7;

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn get_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().unwrap())
}

fn get_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().unwrap())
}

fn get_f64(b: &[u8]) -> f64 {
    f64::from_bits(get_u64(b))
}

/// Body bytes (after the tag) of a telemetry and of a grant message.
const TELEMETRY_BODY: usize = 4 + 8 + 5 * 8;
const GRANT_BODY: usize = 4 + 8 + 8 + 8;

/// A telemetry message from its [`TELEMETRY_BODY`]-byte body.
#[inline(always)]
fn telemetry(body: &[u8]) -> Msg {
    Msg::Telemetry {
        node: get_u32(body),
        seq: get_u64(&body[4..]),
        report: NodeTelemetry {
            compute_s: get_f64(&body[12..]),
            comm_s: get_f64(&body[20..]),
            slack_s: get_f64(&body[28..]),
            rate: get_f64(&body[36..]),
            power_w: get_f64(&body[44..]),
        },
    }
}

/// A grant message from its [`GRANT_BODY`]-byte body.
#[inline(always)]
fn grant(body: &[u8]) -> Msg {
    Msg::Grant {
        node: get_u32(body),
        seq: get_u64(&body[4..]),
        tick: get_u64(&body[12..]),
        watts: get_f64(&body[20..]),
    }
}

impl Msg {
    /// Serialize into a complete frame (length prefix included).
    pub fn encode(&self) -> Vec<u8> {
        let mut frame = Vec::with_capacity(self.frame_len());
        self.encode_into(&mut frame);
        frame
    }

    /// The length of this message's frame, prefix included. Reserving it
    /// before encoding takes one allocation of exactly the right size,
    /// where a batch would otherwise realloc-and-copy its way up from
    /// nothing, member by member.
    pub(crate) fn frame_len(&self) -> usize {
        4 + match self {
            Msg::Hello { .. } | Msg::Heartbeat { .. } | Msg::Busy { .. } => 1 + 4,
            Msg::Telemetry { .. } => 1 + TELEMETRY_BODY,
            Msg::Grant { .. } => 1 + GRANT_BODY,
            Msg::Nack { .. } => 1 + 8,
            Msg::Batch(msgs) => 1 + 4 + msgs.iter().map(Msg::frame_len).sum::<usize>(),
        }
    }

    /// [`Msg::frame_len`], after the checks [`Msg::encode_into`] makes:
    /// panics, with the same message, on a nested batch or a payload over
    /// its cap. A caller that encodes into a shared buffer calls this
    /// first, so a construction bug panics before anything is written
    /// rather than leaving a partial frame behind.
    pub(crate) fn checked_frame_len(&self) -> usize {
        let Msg::Batch(msgs) = self else {
            return self.frame_len(); // fixed-size, always under MAX_FRAME
        };
        let mut len = 4 + 1 + 4;
        for m in msgs {
            assert!(!matches!(m, Msg::Batch(_)), "batches do not nest");
            len += m.frame_len();
        }
        assert!(
            len - 4 <= MAX_BATCH_FRAME,
            "encoded {}-byte payload exceeds the {MAX_BATCH_FRAME}-byte cap",
            len - 4
        );
        len
    }

    /// Append this message's complete frame (length prefix included) to
    /// `frame`, reusing the caller's allocation — the hot path when a
    /// tick's worth of grants is batched into one buffer.
    ///
    /// # Panics
    /// Panics on a nested [`Msg::Batch`] (batches do not nest) and when
    /// the encoded payload would exceed its frame cap — both are
    /// construction bugs on *our* side of the wire, not input errors.
    pub fn encode_into(&self, frame: &mut Vec<u8>) {
        // The two frame types that dominate every wire (telemetry up,
        // grants down) are fixed-size: build the whole frame in a stack
        // buffer and append it in one go, instead of one
        // capacity-checked extend per field. Their byte layout is pinned
        // by `telemetry_and_grant_frames_are_pinned_byte_for_byte`.
        match self {
            Msg::Telemetry { node, seq, report } => {
                let mut b = [0u8; 57];
                b[..4].copy_from_slice(&53u32.to_le_bytes());
                b[4] = TAG_TELEMETRY;
                b[5..9].copy_from_slice(&node.to_le_bytes());
                b[9..17].copy_from_slice(&seq.to_le_bytes());
                b[17..25].copy_from_slice(&report.compute_s.to_bits().to_le_bytes());
                b[25..33].copy_from_slice(&report.comm_s.to_bits().to_le_bytes());
                b[33..41].copy_from_slice(&report.slack_s.to_bits().to_le_bytes());
                b[41..49].copy_from_slice(&report.rate.to_bits().to_le_bytes());
                b[49..57].copy_from_slice(&report.power_w.to_bits().to_le_bytes());
                frame.extend_from_slice(&b);
                return;
            }
            Msg::Grant {
                node,
                seq,
                tick,
                watts,
            } => {
                let mut b = [0u8; 33];
                b[..4].copy_from_slice(&29u32.to_le_bytes());
                b[4] = TAG_GRANT;
                b[5..9].copy_from_slice(&node.to_le_bytes());
                b[9..17].copy_from_slice(&seq.to_le_bytes());
                b[17..25].copy_from_slice(&tick.to_le_bytes());
                b[25..33].copy_from_slice(&watts.to_bits().to_le_bytes());
                frame.extend_from_slice(&b);
                return;
            }
            _ => {}
        }
        let start = frame.len();
        frame.extend_from_slice(&[0u8; 4]); // length prefix backpatched below
        self.encode_payload(frame);
        let len = frame.len() - start - 4;
        let cap = if matches!(self, Msg::Batch(_)) {
            MAX_BATCH_FRAME
        } else {
            MAX_FRAME
        };
        assert!(
            len <= cap,
            "encoded {len}-byte payload exceeds the {cap}-byte cap"
        );
        frame[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    }

    fn encode_payload(&self, p: &mut Vec<u8>) {
        match self {
            Msg::Hello { node } => {
                p.push(TAG_HELLO);
                put_u32(p, *node);
            }
            Msg::Heartbeat { node } => {
                p.push(TAG_HEARTBEAT);
                put_u32(p, *node);
            }
            Msg::Telemetry { .. } | Msg::Grant { .. } => {
                unreachable!("encode_into writes fixed-size frames itself")
            }
            Msg::Busy { retry_after } => {
                p.push(TAG_BUSY);
                put_u32(p, *retry_after);
            }
            Msg::Nack { seq } => {
                p.push(TAG_NACK);
                put_u64(p, *seq);
            }
            Msg::Batch(msgs) => {
                p.push(TAG_BATCH);
                put_u32(p, msgs.len() as u32);
                for m in msgs {
                    assert!(!matches!(m, Msg::Batch(_)), "batches do not nest");
                    m.encode_into(p);
                }
            }
        }
    }

    /// Parse one frame payload (the bytes after the length prefix).
    pub fn decode(payload: &[u8]) -> Result<Msg, ProtoError> {
        let (&tag, body) = payload
            .split_first()
            .ok_or(ProtoError::BadLength { tag: 0, got: 0 })?;
        let need = |n: usize| -> Result<(), ProtoError> {
            if body.len() == n {
                Ok(())
            } else {
                Err(ProtoError::BadLength {
                    tag,
                    got: body.len(),
                })
            }
        };
        match tag {
            TAG_HELLO => {
                need(4)?;
                Ok(Msg::Hello {
                    node: get_u32(body),
                })
            }
            TAG_HEARTBEAT => {
                need(4)?;
                Ok(Msg::Heartbeat {
                    node: get_u32(body),
                })
            }
            TAG_TELEMETRY => {
                need(TELEMETRY_BODY)?;
                Ok(telemetry(body))
            }
            TAG_GRANT => {
                need(GRANT_BODY)?;
                Ok(grant(body))
            }
            TAG_BUSY => {
                need(4)?;
                Ok(Msg::Busy {
                    retry_after: get_u32(body),
                })
            }
            TAG_NACK => {
                need(8)?;
                Ok(Msg::Nack { seq: get_u64(body) })
            }
            TAG_BATCH => {
                if body.len() < 4 {
                    return Err(ProtoError::BadLength {
                        tag,
                        got: body.len(),
                    });
                }
                let count = get_u32(body) as usize;
                // Allocation is bounded by what the body can actually
                // hold (5 bytes is the smallest inner frame), not by the
                // attacker-controlled count field.
                let mut inner = Vec::with_capacity(count.min(body.len() / 5));
                let mut at = 4usize;
                for _ in 0..count {
                    if body.len() - at < 4 {
                        return Err(ProtoError::BadLength {
                            tag,
                            got: body.len(),
                        });
                    }
                    let len = get_u32(&body[at..]) as usize;
                    if len > MAX_FRAME {
                        return Err(ProtoError::Oversized(len));
                    }
                    if body.len() - at - 4 < len {
                        return Err(ProtoError::BadLength {
                            tag,
                            got: body.len(),
                        });
                    }
                    // The two members batches carry by the thousand are
                    // built straight into the vector; any other frame,
                    // or one whose length does not fit its tag, takes
                    // the general decode and fails there as it would
                    // alone.
                    match &body[at + 4..at + 4 + len] {
                        [TAG_TELEMETRY, b @ ..] if b.len() == TELEMETRY_BODY => {
                            inner.push(telemetry(b))
                        }
                        [TAG_GRANT, b @ ..] if b.len() == GRANT_BODY => inner.push(grant(b)),
                        frame => {
                            let m = Msg::decode(frame)?;
                            if matches!(m, Msg::Batch(_)) {
                                // Nesting would let one frame amplify into
                                // unbounded recursion; flat batches only.
                                return Err(ProtoError::BadTag(TAG_BATCH));
                            }
                            inner.push(m);
                        }
                    }
                    at += 4 + len;
                }
                if at != body.len() {
                    return Err(ProtoError::BadLength {
                        tag,
                        got: body.len(),
                    });
                }
                Ok(Msg::Batch(inner))
            }
            other => Err(ProtoError::BadTag(other)),
        }
    }
}

/// Scan `buf` for complete frames, removing consumed bytes. Returns the
/// decoded messages in arrival order; a structurally broken frame aborts
/// the scan with the error (the caller drops the connection).
pub fn drain_frames(buf: &mut Vec<u8>) -> Result<Vec<Msg>, ProtoError> {
    let mut msgs = Vec::new();
    let mut at = 0usize;
    while buf.len() - at >= 4 {
        let len = get_u32(&buf[at..]) as usize;
        if len > MAX_BATCH_FRAME {
            return Err(ProtoError::Oversized(len));
        }
        if len > MAX_FRAME {
            // Only a batch may run past the singleton cap, and judging
            // that needs the tag byte; with exactly 4 bytes buffered we
            // wait for it rather than guess.
            if buf.len() - at == 4 {
                break;
            }
            if buf[at + 4] != TAG_BATCH {
                return Err(ProtoError::Oversized(len));
            }
        }
        if buf.len() - at - 4 < len {
            break;
        }
        msgs.push(Msg::decode(&buf[at + 4..at + 4 + len])?);
        at += 4 + len;
    }
    buf.drain(..at);
    Ok(msgs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Batch decode as first written: every member through
    /// [`Msg::decode`], one at a time. The reference the in-place
    /// decode must equal, error for error.
    fn decode_batch_reference(payload: &[u8]) -> Result<Msg, ProtoError> {
        let tag = TAG_BATCH;
        assert_eq!(payload[0], tag);
        let body = &payload[1..];
        let bad = || ProtoError::BadLength {
            tag,
            got: body.len(),
        };
        if body.len() < 4 {
            return Err(bad());
        }
        let count = get_u32(body) as usize;
        let mut inner = Vec::new();
        let mut at = 4usize;
        for _ in 0..count {
            if body.len() - at < 4 {
                return Err(bad());
            }
            let len = get_u32(&body[at..]) as usize;
            if len > MAX_FRAME {
                return Err(ProtoError::Oversized(len));
            }
            if body.len() - at - 4 < len {
                return Err(bad());
            }
            let m = Msg::decode(&body[at + 4..at + 4 + len])?;
            if matches!(m, Msg::Batch(_)) {
                return Err(ProtoError::BadTag(TAG_BATCH));
            }
            inner.push(m);
            at += 4 + len;
        }
        if at != body.len() {
            return Err(bad());
        }
        Ok(Msg::Batch(inner))
    }

    /// Decode results compared through their encodings, so NaN fields
    /// compare by bits rather than failing `PartialEq`.
    fn as_bytes(r: Result<Msg, ProtoError>) -> Result<Vec<u8>, ProtoError> {
        r.map(|m| m.encode())
    }

    /// Any singleton message, with arbitrary field bits.
    fn member() -> impl Strategy<Value = Msg> {
        (0u8..6, any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(kind, a, b, c)| {
            let f = |x: u64, r: u32| f64::from_bits(x.rotate_left(r));
            match kind {
                0 => Msg::Hello { node: a as u32 },
                1 => Msg::Heartbeat { node: a as u32 },
                2 | 3 => Msg::Telemetry {
                    node: a as u32,
                    seq: b,
                    report: NodeTelemetry {
                        compute_s: f(c, 0),
                        comm_s: f(c, 11),
                        slack_s: f(c, 23),
                        rate: f(b, 37),
                        power_w: f(a, 41),
                    },
                },
                4 => Msg::Grant {
                    node: a as u32,
                    seq: b,
                    tick: c,
                    watts: f(a ^ c, 5),
                },
                _ if a % 2 == 0 => Msg::Busy {
                    retry_after: b as u32,
                },
                _ => Msg::Nack { seq: c },
            }
        })
    }

    /// Byte offsets of each member frame inside a batch payload.
    fn member_offsets(payload: &[u8]) -> Vec<usize> {
        let count = get_u32(&payload[1..]) as usize;
        let mut at = 5;
        let mut offs = Vec::with_capacity(count);
        for _ in 0..count {
            offs.push(at);
            at += 4 + get_u32(&payload[at..]) as usize;
        }
        offs
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 384, ..ProptestConfig::default() })]

        /// Valid batches decode to their members, exactly as member-by-
        /// member decoding reads them.
        #[test]
        fn batch_decode_equals_member_by_member_decode(
            members in prop::collection::vec(member(), 0..80),
        ) {
            let batch = Msg::Batch(members.clone());
            let frame = batch.encode();
            prop_assert_eq!(batch.frame_len(), frame.len());
            for m in &members {
                prop_assert_eq!(m.frame_len(), m.encode().len());
            }
            let got = Msg::decode(&frame[4..]);
            prop_assert_eq!(as_bytes(got.clone()), as_bytes(decode_batch_reference(&frame[4..])));
            prop_assert_eq!(as_bytes(got), Ok(frame.clone()));
        }

        /// Corrupted batches fail with the reference's error: a member's
        /// length prefix moved, its tag replaced (unknown, or a known tag
        /// of another length), a nested batch spliced in, the count
        /// changed, or the payload truncated.
        #[test]
        fn corrupted_batches_fail_like_member_by_member_decode(
            members in prop::collection::vec(member(), 1..24),
            pick in any::<u64>(),
            how in 0u8..6,
            value in any::<u64>(),
        ) {
            let frame = Msg::Batch(members).encode();
            let mut payload = frame[4..].to_vec();
            let offs = member_offsets(&payload);
            let at = offs[pick as usize % offs.len()];
            match how {
                0 => {
                    let len = get_u32(&payload[at..]);
                    let moved = match value % 4 {
                        0 => len.wrapping_add(1),
                        1 => len.wrapping_sub(1),
                        2 => (value >> 8) as u32 % (MAX_FRAME as u32 + 8),
                        _ => (value >> 8) as u32,
                    };
                    payload[at..at + 4].copy_from_slice(&moved.to_le_bytes());
                }
                1 => payload[at + 4] = value as u8,
                2 => payload[at + 4] = 1 + (value % 7) as u8,
                3 => {
                    let nested = Msg::Batch(vec![Msg::Hello { node: value as u32 }]).encode();
                    let end = at + 4 + get_u32(&payload[at..]) as usize;
                    payload.splice(at..end, nested);
                }
                4 => {
                    let count = get_u32(&payload[1..]);
                    let moved = count.wrapping_add(1 + (value % 3) as u32);
                    payload[1..5].copy_from_slice(&moved.to_le_bytes());
                }
                _ => payload.truncate(1 + (value as usize % (payload.len() - 1))),
            }
            prop_assert_eq!(
                as_bytes(Msg::decode(&payload)),
                as_bytes(decode_batch_reference(&payload))
            );
        }
    }

    fn sample_report() -> NodeTelemetry {
        NodeTelemetry {
            compute_s: 1.25,
            comm_s: 0.125,
            slack_s: 0.5,
            rate: 0.8,
            power_w: 97.3,
        }
    }

    #[test]
    fn every_message_round_trips_bitwise() {
        let msgs = [
            Msg::Hello { node: 7 },
            Msg::Heartbeat { node: 0 },
            Msg::Telemetry {
                node: 3,
                seq: 41,
                report: sample_report(),
            },
            Msg::Grant {
                node: 3,
                seq: 41,
                tick: 9,
                watts: 88.125,
            },
            Msg::Busy { retry_after: 4 },
            Msg::Nack { seq: 41 },
        ];
        for m in msgs {
            let frame = m.encode();
            let got = Msg::decode(&frame[4..]).unwrap();
            assert_eq!(got, m);
        }
    }

    /// The two fixed-size frames, byte for byte: little-endian length
    /// prefix, tag, node, seq, then the grant's tick and the raw `f64`
    /// bits in field order.
    #[test]
    fn telemetry_and_grant_frames_are_pinned_byte_for_byte() {
        let telemetry = Msg::Telemetry {
            node: 0x0403_0201,
            seq: 0x0C0B_0A09_0807_0605,
            report: NodeTelemetry {
                compute_s: 1.0,
                comm_s: 2.0,
                slack_s: 0.5,
                rate: -1.0,
                power_w: 100.0,
            },
        };
        #[rustfmt::skip]
        let expect: [u8; 57] = [
            53, 0, 0, 0,
            3,
            1, 2, 3, 4,
            5, 6, 7, 8, 9, 10, 11, 12,
            0, 0, 0, 0, 0, 0, 0xF0, 0x3F,
            0, 0, 0, 0, 0, 0, 0x00, 0x40,
            0, 0, 0, 0, 0, 0, 0xE0, 0x3F,
            0, 0, 0, 0, 0, 0, 0xF0, 0xBF,
            0, 0, 0, 0, 0, 0, 0x59, 0x40,
        ];
        assert_eq!(telemetry.encode(), expect);

        let grant = Msg::Grant {
            node: 7,
            seq: 0x0102_0304_0506_0708,
            tick: 9,
            watts: 88.125,
        };
        #[rustfmt::skip]
        let expect: [u8; 33] = [
            29, 0, 0, 0,
            4,
            7, 0, 0, 0,
            8, 7, 6, 5, 4, 3, 2, 1,
            9, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0x08, 0x56, 0x40,
        ];
        assert_eq!(grant.encode(), expect);
    }

    #[test]
    fn grants_preserve_exact_f64_bits() {
        // A value with no short decimal representation.
        let w = f64::from_bits(0x3FF7_3ABC_DEF0_1234);
        let m = Msg::Grant {
            node: 0,
            seq: 1,
            tick: 1,
            watts: w,
        };
        let frame = m.encode();
        match Msg::decode(&frame[4..]).unwrap() {
            Msg::Grant { watts, .. } => assert_eq!(watts.to_bits(), w.to_bits()),
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn drain_handles_split_and_coalesced_frames() {
        let a = Msg::Hello { node: 1 }.encode();
        let b = Msg::Heartbeat { node: 2 }.encode();
        let mut buf = Vec::new();
        buf.extend_from_slice(&a);
        buf.extend_from_slice(&b[..3]); // partial second frame
        let msgs = drain_frames(&mut buf).unwrap();
        assert_eq!(msgs, vec![Msg::Hello { node: 1 }]);
        buf.extend_from_slice(&b[3..]);
        let msgs = drain_frames(&mut buf).unwrap();
        assert_eq!(msgs, vec![Msg::Heartbeat { node: 2 }]);
        assert!(buf.is_empty());
    }

    #[test]
    fn batch_payload_is_bitwise_the_concatenation_of_singleton_frames() {
        let msgs = vec![
            Msg::Hello { node: 7 },
            Msg::Telemetry {
                node: 3,
                seq: 41,
                report: sample_report(),
            },
            Msg::Grant {
                node: 3,
                seq: 41,
                tick: 9,
                watts: f64::from_bits(0x3FF7_3ABC_DEF0_1234),
            },
        ];
        let batch = Msg::Batch(msgs.clone()).encode();
        let mut singles = Vec::new();
        for m in &msgs {
            singles.extend_from_slice(&m.encode());
        }
        // Frame = len prefix, tag, count, then the singleton frames verbatim.
        assert_eq!(&batch[9..], &singles[..]);
        assert_eq!(batch[4], TAG_BATCH);
        assert_eq!(get_u32(&batch[5..]), msgs.len() as u32);
        assert_eq!(Msg::decode(&batch[4..]).unwrap(), Msg::Batch(msgs));
    }

    #[test]
    fn empty_batch_round_trips() {
        let frame = Msg::Batch(Vec::new()).encode();
        assert_eq!(Msg::decode(&frame[4..]).unwrap(), Msg::Batch(Vec::new()));
    }

    #[test]
    fn truncated_and_padded_batches_are_rejected() {
        let frame = Msg::Batch(vec![Msg::Hello { node: 1 }, Msg::Nack { seq: 2 }]).encode();
        let payload = &frame[4..];
        // Any strict prefix that still has the batch header is BadLength.
        for cut in 5..payload.len() {
            assert!(
                matches!(
                    Msg::decode(&payload[..cut]),
                    Err(ProtoError::BadLength { tag: TAG_BATCH, .. })
                ),
                "cut at {cut} must be rejected"
            );
        }
        // Trailing bytes beyond the counted members are BadLength too.
        let mut padded = payload.to_vec();
        padded.push(0);
        assert!(matches!(
            Msg::decode(&padded),
            Err(ProtoError::BadLength { tag: TAG_BATCH, .. })
        ));
    }

    #[test]
    fn batches_do_not_nest() {
        // Hand-craft a batch whose single member is itself a batch.
        let inner = Msg::Batch(vec![Msg::Hello { node: 1 }]).encode();
        let mut payload = vec![TAG_BATCH];
        put_u32(&mut payload, 1);
        payload.extend_from_slice(&inner);
        assert_eq!(Msg::decode(&payload), Err(ProtoError::BadTag(TAG_BATCH)));
    }

    #[test]
    fn oversized_inner_frame_inside_a_batch_is_rejected() {
        let mut payload = vec![TAG_BATCH];
        put_u32(&mut payload, 1);
        put_u32(&mut payload, (MAX_FRAME + 1) as u32); // hostile inner prefix
        payload.extend_from_slice(&vec![0u8; MAX_FRAME + 1]);
        assert!(matches!(
            Msg::decode(&payload),
            Err(ProtoError::Oversized(_))
        ));
    }

    #[test]
    fn drain_accepts_large_batches_and_waits_for_the_tag_byte() {
        // A batch bigger than MAX_FRAME must pass the scanner...
        let big = Msg::Batch(
            (0..40)
                .map(|i| Msg::Telemetry {
                    node: i,
                    seq: u64::from(i),
                    report: sample_report(),
                })
                .collect(),
        );
        let frame = big.encode();
        assert!(frame.len() > MAX_FRAME);
        // ...even when it arrives one byte at a time (in particular when
        // only the 4-byte length prefix is in, before the tag settles
        // whether the large length is legitimate).
        let mut buf = Vec::new();
        let mut got = Vec::new();
        for &b in &frame {
            buf.push(b);
            got.extend(drain_frames(&mut buf).unwrap());
        }
        assert_eq!(got, vec![big]);
        // A non-batch tag claiming a batch-sized frame stays hostile.
        let mut bad = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        bad.push(TAG_GRANT);
        bad.extend_from_slice(&[0u8; 32]);
        assert!(matches!(
            drain_frames(&mut bad),
            Err(ProtoError::Oversized(_))
        ));
    }

    #[test]
    fn hostile_length_prefix_is_rejected_before_allocation() {
        let mut buf = u32::MAX.to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            drain_frames(&mut buf),
            Err(ProtoError::Oversized(_))
        ));
    }

    #[test]
    fn unknown_tags_and_short_payloads_are_errors() {
        assert_eq!(
            Msg::decode(&[0xEE, 0, 0, 0, 0]),
            Err(ProtoError::BadTag(0xEE))
        );
        assert!(matches!(
            Msg::decode(&[TAG_GRANT, 1, 2]),
            Err(ProtoError::BadLength { .. })
        ));
    }
}
