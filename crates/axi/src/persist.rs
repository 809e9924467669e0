//! [`PersistValue`] implementations for the AXI vocabulary: vocabulary
//! types, channel beats (with their sim-only `tag`/`uid`/timestamp
//! metadata) and whole port boundaries.
//!
//! In-flight transactions are exactly what makes snapshot/restore hard —
//! a beat frozen mid-fabric must resume with its original uid, hop
//! timestamps and payload bytes so post-restore latency measurements and
//! fingerprints are bit-identical to an uninterrupted run. Everything
//! here is plain data, so it all takes the value shape (reconstructable
//! from bytes alone).

use sim::persist::{PersistError, PersistValue, SnapshotReader, SnapshotWriter};

use crate::beat::{ArBeat, AwBeat, BBeat, RBeat, WBeat};
use crate::payload::Payload;
use crate::port::AxiPort;
use crate::types::{AxiId, AxiVersion, BurstKind, BurstSize, PortId, Resp};

sim::persist_fields!(PortId { 0 });
sim::persist_fields!(AxiId { 0 });
sim::persist_enum!(AxiVersion, "AxiVersion discriminant", [Axi3, Axi4]);
sim::persist_enum!(BurstKind, "BurstKind discriminant", [Fixed, Incr, Wrap]);
sim::persist_enum!(Resp, "Resp discriminant", [Okay, ExOkay, SlvErr, DecErr]);

/// Stored as the AXI `AxSIZE` encoding (log2 of the beat bytes), not a
/// variant index.
impl PersistValue for BurstSize {
    fn save_value(&self, w: &mut SnapshotWriter) {
        w.put_u8(self.encoding());
    }
    fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        let enc = r.take_u8()?;
        if enc > 7 {
            return Err(PersistError::Corrupt("BurstSize encoding"));
        }
        BurstSize::from_bytes(1u64 << enc).map_err(|_| PersistError::Corrupt("BurstSize encoding"))
    }
}

/// Stored as length-prefixed bytes, whatever the inline/spill layout.
impl PersistValue for Payload {
    fn save_value(&self, w: &mut SnapshotWriter) {
        w.put_bytes(self.as_slice());
    }
    fn load_value(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        Ok(Payload::from(r.take_bytes()?))
    }
}

sim::persist_fields!(ArBeat {
    id,
    addr,
    len,
    size,
    burst,
    qos,
    tag,
    issued_at,
    uid
});
sim::persist_fields!(AwBeat {
    id,
    addr,
    len,
    size,
    burst,
    qos,
    tag,
    issued_at,
    uid
});
sim::persist_fields!(WBeat {
    data,
    strb,
    last,
    tag,
    issued_at
});
sim::persist_fields!(RBeat {
    id,
    data,
    resp,
    last,
    tag,
    issued_at,
    uid,
    hopped_at
});
sim::persist_fields!(BBeat {
    id,
    resp,
    tag,
    issued_at,
    uid,
    hopped_at
});
sim::persist_fields!(AxiPort { ar, aw, w, r, b });

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: PersistValue>(v: &T) -> T {
        let mut w = SnapshotWriter::new();
        v.save_value(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        let out = T::load_value(&mut r).unwrap();
        assert_eq!(r.remaining(), 0, "trailing bytes after load");
        out
    }

    #[test]
    fn vocabulary_roundtrips() {
        for v in [AxiVersion::Axi3, AxiVersion::Axi4] {
            assert_eq!(roundtrip(&v), v);
        }
        for k in [BurstKind::Fixed, BurstKind::Incr, BurstKind::Wrap] {
            assert_eq!(roundtrip(&k), k);
        }
        for s in BurstSize::ALL {
            assert_eq!(roundtrip(&s), s);
        }
        for resp in [Resp::Okay, Resp::ExOkay, Resp::SlvErr, Resp::DecErr] {
            assert_eq!(roundtrip(&resp), resp);
        }
        assert_eq!(roundtrip(&PortId(9)), PortId(9));
        assert_eq!(roundtrip(&AxiId(1234)), AxiId(1234));
    }

    #[test]
    fn beats_keep_observability_metadata() {
        let ar = ArBeat::new(0x4000, 16, BurstSize::B16)
            .with_id(AxiId(5))
            .with_tag(77)
            .with_issued_at(1000)
            .with_uid(42);
        assert_eq!(roundtrip(&ar), ar);
        assert_eq!(roundtrip(&ar).uid, 42);

        let rb = RBeat::new(AxiId(5), vec![1, 2, 3, 4], true)
            .with_tag(77)
            .with_uid(42)
            .with_hopped_at(1234);
        let back = roundtrip(&rb);
        // Equality excludes uid/hopped_at, so check them explicitly.
        assert_eq!(back, rb);
        assert_eq!(back.uid, 42);
        assert_eq!(back.hopped_at, 1234);

        let bb = BBeat::new(AxiId(2)).with_uid(9).with_hopped_at(55);
        let back = roundtrip(&bb);
        assert_eq!(back.uid, 9);
        assert_eq!(back.hopped_at, 55);
    }

    #[test]
    fn payload_spill_and_inline_roundtrip() {
        let small = Payload::from_fn(8, |i| i as u8);
        assert_eq!(roundtrip(&small), small);
        let big = Payload::from_fn(100, |i| (i * 3) as u8);
        assert_eq!(roundtrip(&big), big);
    }

    #[test]
    fn port_with_in_flight_beats_roundtrips() {
        let mut port = AxiPort::default();
        port.ar
            .push(10, ArBeat::new(0, 4, BurstSize::B4).with_uid(1))
            .unwrap();
        port.w
            .push(11, WBeat::new(vec![9u8; 4], true).with_tag(3))
            .unwrap();
        port.r
            .push(
                12,
                RBeat::new(AxiId(0), vec![7u8; 4], true).with_hopped_at(12),
            )
            .unwrap();
        let back = roundtrip(&port);
        assert_eq!(back.occupancy(), 3);
        let counters = |p: &AxiPort| {
            [
                (p.ar.total_pushed(), p.ar.total_popped()),
                (p.aw.total_pushed(), p.aw.total_popped()),
                (p.w.total_pushed(), p.w.total_popped()),
                (p.r.total_pushed(), p.r.total_popped()),
                (p.b.total_pushed(), p.b.total_popped()),
            ]
        };
        assert_eq!(counters(&back), counters(&port));
        assert_eq!(back.next_ready_at(), port.next_ready_at());
    }
}
