//! Wire encoding.
//!
//! A compact length-prefixed TLV format standing in for BER (the collector
//! code path is identical; only the byte grammar differs — documented as a
//! substitution in DESIGN.md). All integers are big-endian. Layout:
//!
//! ```text
//! message   := MAGIC u8=version community:bytes pdu
//! pdu       := type:u8 request_id:u32 error_status:u8 error_index:u32
//!              max_repetitions:u32 nbindings:u16 binding*
//! binding   := oid value
//! oid       := len:u16 subid:u32*
//! value     := tag:u8 payload
//! bytes     := len:u32 byte*
//! ```

use crate::error::{SnmpError, SnmpResult};
use crate::oid::Oid;
use crate::pdu::{ErrorStatus, Pdu, PduType, VarBind};
use crate::value::Value;

/// Magic byte opening every message.
pub const MAGIC: u8 = 0x53; // 'S'
/// Protocol version carried on the wire.
pub const VERSION: u8 = 2;

// Value tags.
const TAG_INTEGER: u8 = 0x02;
const TAG_OCTET_STRING: u8 = 0x04;
const TAG_NULL: u8 = 0x05;
const TAG_OID: u8 = 0x06;
const TAG_IP_ADDRESS: u8 = 0x40;
const TAG_COUNTER32: u8 = 0x41;
const TAG_GAUGE32: u8 = 0x42;
const TAG_TIMETICKS: u8 = 0x43;
const TAG_NO_SUCH_OBJECT: u8 = 0x80;
const TAG_END_OF_MIB_VIEW: u8 = 0x82;

/// Append the big-endian bytes of an integer (`put(buf, v.to_be_bytes())`).
fn put<const N: usize>(buf: &mut Vec<u8>, be: [u8; N]) {
    buf.extend_from_slice(&be);
}

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put(buf, (b.len() as u32).to_be_bytes());
    buf.extend_from_slice(b);
}

fn put_oid(buf: &mut Vec<u8>, oid: &Oid) {
    put(buf, (oid.len() as u16).to_be_bytes());
    for &p in oid.parts() {
        put(buf, p.to_be_bytes());
    }
}

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Integer(i) => {
            buf.push(TAG_INTEGER);
            put(buf, i.to_be_bytes());
        }
        Value::OctetString(b) => {
            buf.push(TAG_OCTET_STRING);
            put_bytes(buf, b);
        }
        Value::ObjectId(o) => {
            buf.push(TAG_OID);
            put_oid(buf, o);
        }
        Value::Counter32(c) => {
            buf.push(TAG_COUNTER32);
            put(buf, c.to_be_bytes());
        }
        Value::Gauge32(g) => {
            buf.push(TAG_GAUGE32);
            put(buf, g.to_be_bytes());
        }
        Value::TimeTicks(t) => {
            buf.push(TAG_TIMETICKS);
            put(buf, t.to_be_bytes());
        }
        Value::IpAddress(ip) => {
            buf.push(TAG_IP_ADDRESS);
            put(buf, *ip);
        }
        Value::Null => buf.push(TAG_NULL),
        Value::NoSuchObject => buf.push(TAG_NO_SUCH_OBJECT),
        Value::EndOfMibView => buf.push(TAG_END_OF_MIB_VIEW),
    }
}

/// Encode a message to wire bytes.
pub fn encode(pdu: &Pdu) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + pdu.bindings.len() * 32);
    buf.push(MAGIC);
    buf.push(VERSION);
    put_bytes(&mut buf, pdu.community.as_bytes());
    buf.push(pdu.pdu_type.code());
    put(&mut buf, pdu.request_id.to_be_bytes());
    buf.push(pdu.error_status.code());
    put(&mut buf, pdu.error_index.to_be_bytes());
    put(&mut buf, pdu.max_repetitions.to_be_bytes());
    put(&mut buf, (pdu.bindings.len() as u16).to_be_bytes());
    for b in &pdu.bindings {
        put_oid(&mut buf, &b.oid);
        put_value(&mut buf, &b.value);
    }
    buf
}

/// The unread rest of a received message. [`Reader::take`] is the only
/// way forward, so a message that ends early is a `Decode` error at
/// whichever field it ends in — never an out-of-bounds read.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> SnmpResult<&'a [u8]> {
        let (head, rest) = self
            .0
            .split_at_checked(n)
            .ok_or_else(|| SnmpError::Decode(format!("truncated: need {n} more bytes")))?;
        self.0 = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> SnmpResult<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    fn u8(&mut self) -> SnmpResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> SnmpResult<u16> {
        self.array().map(u16::from_be_bytes)
    }

    fn u32(&mut self) -> SnmpResult<u32> {
        self.array().map(u32::from_be_bytes)
    }

    fn bytes(&mut self) -> SnmpResult<Vec<u8>> {
        let len = self.u32()? as usize;
        if len > 1 << 24 {
            return Err(SnmpError::Decode(format!("unreasonable length {len}")));
        }
        Ok(self.take(len)?.to_vec())
    }

    fn oid(&mut self) -> SnmpResult<Oid> {
        let n = self.u16()? as usize;
        let parts: Vec<u32> = self
            .take(n * 4)?
            .chunks_exact(4)
            .map(|c| u32::from_be_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        Ok(Oid::new(parts))
    }

    fn value(&mut self) -> SnmpResult<Value> {
        Ok(match self.u8()? {
            TAG_INTEGER => Value::Integer(i64::from_be_bytes(self.array()?)),
            TAG_OCTET_STRING => Value::OctetString(self.bytes()?),
            TAG_OID => Value::ObjectId(self.oid()?),
            TAG_COUNTER32 => Value::Counter32(self.u32()?),
            TAG_GAUGE32 => Value::Gauge32(self.u32()?),
            TAG_TIMETICKS => Value::TimeTicks(self.u32()?),
            TAG_IP_ADDRESS => Value::IpAddress(self.array()?),
            TAG_NULL => Value::Null,
            TAG_NO_SUCH_OBJECT => Value::NoSuchObject,
            TAG_END_OF_MIB_VIEW => Value::EndOfMibView,
            other => return Err(SnmpError::Decode(format!("unknown value tag {other:#x}"))),
        })
    }
}

/// Decode a message from wire bytes.
pub fn decode(wire: impl AsRef<[u8]>) -> SnmpResult<Pdu> {
    let mut r = Reader(wire.as_ref());
    let magic = r.u8()?;
    if magic != MAGIC {
        return Err(SnmpError::Decode(format!("bad magic {magic:#x}")));
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(SnmpError::Decode(format!("unsupported version {version}")));
    }
    let community = String::from_utf8(r.bytes()?)
        .map_err(|_| SnmpError::Decode("community not UTF-8".into()))?;
    let pdu_type = PduType::from_code(r.u8()?)
        .ok_or_else(|| SnmpError::Decode("unknown pdu type".into()))?;
    let request_id = r.u32()?;
    let error_status = ErrorStatus::from_code(r.u8()?)
        .ok_or_else(|| SnmpError::Decode("unknown error status".into()))?;
    let error_index = r.u32()?;
    let max_repetitions = r.u32()?;
    let n = r.u16()? as usize;
    let mut bindings = Vec::with_capacity(n);
    for _ in 0..n {
        let oid = r.oid()?;
        let value = r.value()?;
        bindings.push(VarBind { oid, value });
    }
    if !r.0.is_empty() {
        return Err(SnmpError::Decode(format!("{} trailing bytes after message", r.0.len())));
    }
    Ok(Pdu {
        community,
        pdu_type,
        request_id,
        error_status,
        error_index,
        max_repetitions,
        bindings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_pdu() -> Pdu {
        Pdu::get_bulk(
            "public",
            7,
            vec!["1.3.6.1.2.1.2.2.1.10".parse().unwrap()],
            20,
        )
    }

    #[test]
    fn roundtrip_request() {
        let p = sample_pdu();
        let bytes = encode(&p);
        assert_eq!(decode(bytes).unwrap(), p);
    }

    #[test]
    fn roundtrip_all_value_kinds() {
        let req = sample_pdu();
        let bindings = vec![
            VarBind { oid: "1.1".parse().unwrap(), value: Value::Integer(-5) },
            VarBind { oid: "1.2".parse().unwrap(), value: Value::text("timberline") },
            VarBind {
                oid: "1.3".parse().unwrap(),
                value: Value::ObjectId("1.3.6.1".parse().unwrap()),
            },
            VarBind { oid: "1.4".parse().unwrap(), value: Value::Counter32(u32::MAX) },
            VarBind { oid: "1.5".parse().unwrap(), value: Value::Gauge32(100_000_000) },
            VarBind { oid: "1.6".parse().unwrap(), value: Value::TimeTicks(360000) },
            VarBind { oid: "1.7".parse().unwrap(), value: Value::Null },
            VarBind { oid: "1.8".parse().unwrap(), value: Value::NoSuchObject },
            VarBind { oid: "1.9".parse().unwrap(), value: Value::EndOfMibView },
        ];
        let resp = Pdu::response(&req, bindings);
        let decoded = decode(encode(&resp)).unwrap();
        assert_eq!(decoded, resp);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut b = encode(&sample_pdu());
        b[0] = 0x00;
        assert!(matches!(decode(b), Err(SnmpError::Decode(_))));
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let full = encode(&sample_pdu());
        for cut in 0..full.len() {
            assert!(decode(&full[..cut]).is_err(), "decode succeeded on {cut}-byte prefix");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut b = encode(&sample_pdu());
        b.push(0xaa);
        assert!(decode(b).is_err());
    }

    mod properties {
        use super::*;
        use remos_prop::prelude::*;

        fn arb_oid() -> impl Strategy<Value = Oid> {
            prop::collection::vec(0u32..1 << 16, 0..12).prop_map(Oid::new)
        }

        fn arb_value() -> impl Strategy<Value = Value> {
            prop_oneof![
                any::<i64>().prop_map(Value::Integer),
                prop::collection::vec(any::<u8>(), 0..64).prop_map(Value::OctetString),
                arb_oid().prop_map(Value::ObjectId),
                any::<u32>().prop_map(Value::Counter32),
                any::<u32>().prop_map(Value::Gauge32),
                any::<u32>().prop_map(Value::TimeTicks),
                any::<[u8; 4]>().prop_map(Value::IpAddress),
                Just(Value::Null),
                Just(Value::NoSuchObject),
                Just(Value::EndOfMibView),
            ]
        }

        fn arb_pdu() -> impl Strategy<Value = Pdu> {
            (
                "[a-z]{0,12}",
                prop_oneof![
                    Just(PduType::Get),
                    Just(PduType::GetNext),
                    Just(PduType::GetBulk),
                    Just(PduType::Response),
                    Just(PduType::TrapV2)
                ],
                any::<u32>(),
                prop_oneof![
                    Just(ErrorStatus::NoError),
                    Just(ErrorStatus::TooBig),
                    Just(ErrorStatus::GenErr),
                    Just(ErrorStatus::NoAccess)
                ],
                any::<u32>(),
                any::<u32>(),
                prop::collection::vec((arb_oid(), arb_value()), 0..8),
            )
                .prop_map(|(community, t, rid, es, ei, mr, binds)| Pdu {
                    community,
                    pdu_type: t,
                    request_id: rid,
                    error_status: es,
                    error_index: ei,
                    max_repetitions: mr,
                    bindings: binds
                        .into_iter()
                        .map(|(oid, value)| VarBind { oid, value })
                        .collect(),
                })
        }

        proptest! {
            #[test]
            fn encode_decode_roundtrip(pdu in arb_pdu()) {
                let decoded = decode(encode(&pdu)).unwrap();
                prop_assert_eq!(decoded, pdu);
            }

            #[test]
            fn decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
                let _ = decode(bytes);
            }

            #[test]
            fn truncated_encodings_error_without_panicking(
                pdu in arb_pdu(),
                frac in 0.0f64..1.0,
            ) {
                // Every strict prefix of a valid message must fail cleanly:
                // the parse runs out of bytes mid-field and `Reader::take`
                // turns that into a Decode error, never a panic or over-read.
                let full = encode(&pdu);
                let cut = ((full.len() as f64) * frac) as usize;
                prop_assert!(cut < full.len());
                prop_assert!(decode(&full[..cut]).is_err());
            }

            #[test]
            fn bit_flipped_encodings_never_panic(
                pdu in arb_pdu(),
                pos in any::<prop::sample::Index>(),
                bit in 0u8..8,
            ) {
                // A single flipped bit may corrupt a tag, a length, or a
                // payload byte. Decoding may legitimately succeed (payload
                // flip) or fail, but must never panic or read past the
                // buffer.
                let mut bytes = encode(&pdu);
                let i = pos.index(bytes.len());
                bytes[i] ^= 1 << bit;
                let _ = decode(bytes);
            }
        }
    }
}
