//! The reference in-flight table the [`MetricsRegistry`] replaced: one
//! `BTreeMap` keyed by uid, a hop `Vec` allocated per transaction and a
//! scan of the hop list for each response beat's memory-emit stamp. The
//! differential test below feeds it and the registry the same seeded
//! event streams and requires every observable output to match.

use std::collections::{BTreeMap, VecDeque};

use sim::persist::{PersistError, PersistValue, SnapshotReader, SnapshotWriter};
use sim::stats::Gauge;
use sim::Cycle;

use super::{
    json_latency, Hop, HopStamp, MetricsRegistry, ObsChannel, ObsEvent, PortMetrics, TxnRecord,
    COMPLETED_RING,
};

/// The uid-keyed registry, kept as the oracle.
struct OracleRegistry {
    ports: Vec<PortMetrics>,
    master_efifo_occupancy: Gauge,
    inflight: BTreeMap<u64, TxnRecord>,
    completed: VecDeque<TxnRecord>,
    dropped_subs: u64,
    dropped_txns: u64,
    instance: String,
}

impl OracleRegistry {
    fn new(num_ports: usize) -> Self {
        Self {
            ports: (0..num_ports).map(|_| PortMetrics::default()).collect(),
            master_efifo_occupancy: Gauge::new(),
            inflight: BTreeMap::new(),
            completed: VecDeque::new(),
            dropped_subs: 0,
            dropped_txns: 0,
            instance: String::new(),
        }
    }

    fn hops_of(&self, uid: u64) -> Vec<HopStamp> {
        if let Some(rec) = self.inflight.get(&uid) {
            return rec.hops.clone();
        }
        self.completed
            .iter()
            .rev()
            .find(|r| r.uid == uid)
            .map(|r| r.hops.clone())
            .unwrap_or_default()
    }

    fn on_event(&mut self, ev: &ObsEvent) {
        match ev.hop {
            Hop::TsAccepted => {
                let port = ev.port.unwrap_or(0);
                let rec = TxnRecord {
                    uid: ev.uid,
                    port,
                    is_write: ev.channel == ObsChannel::Aw,
                    issued_at: ev.ref_cycle,
                    completed_at: None,
                    bytes: ev.bytes,
                    hops: vec![
                        HopStamp {
                            hop: Hop::Issued,
                            channel: ev.channel,
                            cycle: ev.ref_cycle,
                        },
                        HopStamp {
                            hop: Hop::TsAccepted,
                            channel: ev.channel,
                            cycle: ev.cycle,
                        },
                    ],
                };
                self.inflight.insert(ev.uid, rec);
            }
            Hop::TsStaged | Hop::ExbarGranted => {
                self.append_hop(ev);
            }
            Hop::MemVisible => {
                let visible = ev.cycle + 1;
                match ev.channel {
                    ObsChannel::W => {
                        if let Some(p) = ev.port {
                            self.ports[p].channel_mut(ObsChannel::W).record(
                                visible,
                                visible.saturating_sub(ev.ref_cycle),
                                ev.bytes,
                            );
                        }
                    }
                    ch => {
                        self.append_hop(ev);
                        if let Some(rec) = self.inflight.get(&ev.uid) {
                            let port = rec.port;
                            self.ports[port].channel_mut(ch).record(
                                visible,
                                visible.saturating_sub(ev.ref_cycle),
                                ev.bytes,
                            );
                        }
                    }
                }
            }
            Hop::Delivered => {
                let visible = ev.cycle + 1;
                self.append_mem_responded(ev);
                self.append_hop(ev);
                let port = ev
                    .port
                    .or_else(|| self.inflight.get(&ev.uid).map(|r| r.port));
                if let Some(p) = port {
                    let reaches_port = ev.channel != ObsChannel::B || ev.txn_end;
                    if reaches_port {
                        self.ports[p].channel_mut(ev.channel).record(
                            visible,
                            visible.saturating_sub(ev.ref_cycle),
                            ev.bytes,
                        );
                    }
                }
                if ev.txn_end {
                    self.complete(ev, visible);
                }
            }
            Hop::Dropped => {
                self.dropped_subs += 1;
                if self.inflight.remove(&ev.uid).is_some() {
                    self.dropped_txns += 1;
                }
            }
            Hop::Issued | Hop::MemResponded => {}
        }
    }

    fn append_hop(&mut self, ev: &ObsEvent) {
        if let Some(rec) = self.inflight.get_mut(&ev.uid) {
            rec.hops.push(HopStamp {
                hop: ev.hop,
                channel: ev.channel,
                cycle: ev.cycle,
            });
        }
    }

    fn append_mem_responded(&mut self, ev: &ObsEvent) {
        if let Some(rec) = self.inflight.get_mut(&ev.uid) {
            let already = rec
                .hops
                .iter()
                .any(|h| h.hop == Hop::MemResponded && h.cycle == ev.ref_cycle);
            if !already {
                rec.hops.push(HopStamp {
                    hop: Hop::MemResponded,
                    channel: ev.channel,
                    cycle: ev.ref_cycle,
                });
            }
        }
    }

    fn complete(&mut self, ev: &ObsEvent, visible: Cycle) {
        if let Some(mut rec) = self.inflight.remove(&ev.uid) {
            rec.completed_at = Some(visible);
            let latency = visible.saturating_sub(rec.issued_at);
            let stat = if rec.is_write {
                &mut self.ports[rec.port].write_txns
            } else {
                &mut self.ports[rec.port].read_txns
            };
            stat.record(latency);
            if self.completed.len() == COMPLETED_RING {
                self.completed.pop_front();
            }
            self.completed.push_back(rec);
        }
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{\"ports\":[");
        for (i, p) in self.ports.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"port\":{},\"ar\":{},\"aw\":{},\"w\":{},\"r\":{},\"b\":{},\
                 \"read_txns\":{},\"write_txns\":{},\
                 \"efifo_occupancy\":{{\"current\":{},\"peak\":{}}}",
                i,
                p.ar.json(),
                p.aw.json(),
                p.w.json(),
                p.r.json(),
                p.b.json(),
                json_latency(&p.read_txns),
                json_latency(&p.write_txns),
                p.efifo_occupancy.current(),
                p.efifo_occupancy.peak(),
            ));
            if let Some(reg) = &p.regulator {
                out.push_str(&format!(",\"regulator\":{}", reg.json()));
            }
            out.push('}');
        }
        out.push_str(&format!(
            "],\"master_efifo_occupancy\":{{\"current\":{},\"peak\":{}}},\"inflight\":{}}}",
            self.master_efifo_occupancy.current(),
            self.master_efifo_occupancy.peak(),
            self.inflight.len(),
        ));
        out
    }

    fn save(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        self.ports.save_value(&mut w);
        self.master_efifo_occupancy.save_value(&mut w);
        w.put_usize(self.inflight.len());
        for rec in self.inflight.values() {
            rec.save_value(&mut w);
        }
        w.put_usize(self.completed.len());
        for rec in &self.completed {
            rec.save_value(&mut w);
        }
        w.put_u64(self.dropped_subs);
        w.put_u64(self.dropped_txns);
        w.put_str(&self.instance);
        w.into_bytes()
    }

    fn load(bytes: &[u8]) -> Result<Self, PersistError> {
        let r = &mut SnapshotReader::new(bytes);
        let ports = Vec::load_value(r)?;
        let master_efifo_occupancy = PersistValue::load_value(r)?;
        let n_inflight = r.take_usize()?;
        let mut inflight = BTreeMap::new();
        for _ in 0..n_inflight {
            let rec = TxnRecord::load_value(r)?;
            if inflight.insert(rec.uid, rec).is_some() {
                return Err(PersistError::Corrupt("duplicate in-flight uid"));
            }
        }
        let n_completed = r.take_usize()?;
        if n_completed > COMPLETED_RING {
            return Err(PersistError::Corrupt("completed ring over capacity"));
        }
        let mut completed = VecDeque::with_capacity(COMPLETED_RING);
        for _ in 0..n_completed {
            completed.push_back(TxnRecord::load_value(r)?);
        }
        Ok(Self {
            ports,
            master_efifo_occupancy,
            inflight,
            completed,
            dropped_subs: r.take_u64()?,
            dropped_txns: r.take_u64()?,
            instance: r.take_str()?,
        })
    }
}

fn save(reg: &MetricsRegistry) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    reg.save_value(&mut w);
    w.into_bytes()
}

fn load(bytes: &[u8]) -> MetricsRegistry {
    MetricsRegistry::load_value(&mut SnapshotReader::new(bytes)).expect("registry image loads")
}

mod differential {
    use super::super::uid_of;
    use super::*;
    use sim::rng::SimRng;

    /// One transaction's hop events in pipeline order, consumed front
    /// to back as the stream interleaves transactions.
    struct Script {
        uid: u64,
        events: VecDeque<ObsEvent>,
    }

    fn event(uid: u64, port: Option<usize>, channel: ObsChannel, hop: Hop) -> ObsEvent {
        ObsEvent {
            uid,
            port,
            channel,
            hop,
            cycle: 0,
            ref_cycle: 0,
            bytes: 0,
            sub_end: false,
            txn_end: false,
        }
    }

    /// A read or write of 1–3 sub-bursts on `port`: accept, then per sub
    /// staging, grant and memory visibility, then its response beats
    /// (R) or merged response (B), with W data by explicit port.
    /// Cycles are filled in when the event is emitted; `ref_cycle` of a
    /// response carries a marker (`u64::MAX` = the latest emit cycle
    /// again) resolved at emission.
    fn script(rng: &mut SimRng, port: usize, seq: u64) -> Script {
        let uid = uid_of(port, seq);
        let write = rng.chance(0.4);
        let (addr, resp) = if write {
            (ObsChannel::Aw, ObsChannel::B)
        } else {
            (ObsChannel::Ar, ObsChannel::R)
        };
        let subs = rng.range_usize(1, 3);
        let mut events = VecDeque::new();
        events.push_back(ObsEvent {
            bytes: 64 * subs as u64,
            ..event(uid, Some(port), addr, Hop::TsAccepted)
        });
        for sub in 0..subs {
            let last_sub = sub + 1 == subs;
            events.push_back(event(uid, Some(port), addr, Hop::TsStaged));
            events.push_back(event(uid, None, addr, Hop::ExbarGranted));
            events.push_back(ObsEvent {
                bytes: 64,
                ..event(uid, None, addr, Hop::MemVisible)
            });
            if write {
                for beat in 0..rng.range_usize(1, 3) {
                    let w_port = (!rng.chance(0.1)).then_some(port);
                    events.push_back(ObsEvent {
                        bytes: 4,
                        sub_end: beat == 0,
                        ..event(0, w_port, ObsChannel::W, Hop::TsStaged)
                    });
                    events.push_back(ObsEvent {
                        bytes: 4,
                        ..event(0, w_port, ObsChannel::W, Hop::MemVisible)
                    });
                }
                events.push_back(ObsEvent {
                    sub_end: true,
                    txn_end: last_sub,
                    ref_cycle: 1,
                    ..event(
                        uid,
                        (!rng.chance(0.2)).then_some(port),
                        resp,
                        Hop::Delivered,
                    )
                });
            } else {
                let beats = rng.range_usize(1, 4);
                for beat in 0..beats {
                    let last = beat + 1 == beats;
                    events.push_back(ObsEvent {
                        bytes: 16,
                        sub_end: last,
                        txn_end: last && last_sub,
                        // 0: a fresh emit cycle; u64::MAX: the latest
                        // one again; 1: an older one.
                        ref_cycle: match rng.index(10) {
                            0..=5 => 0,
                            6..=8 => u64::MAX,
                            _ => 1,
                        },
                        ..event(
                            uid,
                            (!rng.chance(0.2)).then_some(port),
                            resp,
                            Hop::Delivered,
                        )
                    });
                }
            }
        }
        Script { uid, events }
    }

    struct Stream {
        rng: SimRng,
        ports: usize,
        seq: Vec<u64>,
        live: Vec<Script>,
        uids: Vec<u64>,
        now: Cycle,
        last_emit: Cycle,
    }

    impl Stream {
        fn new(seed: u64, ports: usize) -> Self {
            Self {
                rng: SimRng::seed(seed),
                ports,
                seq: vec![0; ports],
                live: Vec::new(),
                uids: Vec::new(),
                now: 100,
                last_emit: 0,
            }
        }

        /// The next event: a new transaction, the next hop of a live
        /// one, a force-flush of a live one, or a hop of an unknown uid.
        fn next(&mut self) -> ObsEvent {
            self.now += self.rng.range_u64(0, 2);
            let now = self.now;
            let roll = self.rng.index(100);
            if self.live.is_empty() || roll < 12 {
                let port = self.rng.index(self.ports);
                self.seq[port] += 1;
                let s = script(&mut self.rng, port, self.seq[port]);
                self.uids.push(s.uid);
                self.live.push(s);
            } else if roll < 14 {
                let k = self.rng.index(self.live.len());
                let s = self.live.swap_remove(k);
                return ObsEvent {
                    cycle: now,
                    sub_end: self.rng.chance(0.5),
                    ..event(s.uid, None, ObsChannel::Ar, Hop::Dropped)
                };
            } else if roll < 16 {
                let port = self.rng.index(self.ports);
                let uid = uid_of(port, self.seq[port] + 1000);
                return ObsEvent {
                    cycle: now,
                    ..event(uid, None, ObsChannel::R, Hop::Delivered)
                };
            }
            let k = self.rng.index(self.live.len());
            let mut ev = self.live[k]
                .events
                .pop_front()
                .expect("live scripts are non-empty");
            if self.live[k].events.is_empty() {
                self.live.swap_remove(k);
            }
            ev.cycle = now;
            if ev.hop == Hop::Delivered {
                ev.ref_cycle = match ev.ref_cycle {
                    u64::MAX => self.last_emit,
                    1 => now.saturating_sub(self.rng.range_u64(5, 40)),
                    _ => {
                        self.last_emit = now.saturating_sub(1);
                        self.last_emit
                    }
                };
            } else {
                ev.ref_cycle = now.saturating_sub(self.rng.range_u64(1, 8));
            }
            ev
        }
    }

    fn assert_same(reg: &MetricsRegistry, oracle: &OracleRegistry, uids: &[u64], at: &str) {
        assert_eq!(reg.to_json(), oracle.to_json(), "{at}: to_json");
        assert_eq!(
            reg.inflight_len(),
            oracle.inflight.len(),
            "{at}: inflight_len"
        );
        assert!(
            reg.completed().eq(oracle.completed.iter()),
            "{at}: completed ring"
        );
        assert_eq!(
            (reg.dropped_subs(), reg.dropped_txns()),
            (oracle.dropped_subs, oracle.dropped_txns),
            "{at}: dropped counts"
        );
        for &uid in uids {
            assert_eq!(
                reg.hops_of(uid),
                oracle.hops_of(uid),
                "{at}: hops_of({uid})"
            );
        }
        assert_eq!(save(reg), oracle.save(), "{at}: persisted bytes");
    }

    #[test]
    fn registry_matches_the_uid_keyed_oracle() {
        for seed in 0..24u64 {
            let ports = 1 + (seed as usize % 4);
            let mut stream = Stream::new(seed, ports);
            let mut reg = MetricsRegistry::new(ports);
            let mut oracle = OracleRegistry::new(ports);
            for batch in 0..60 {
                for _ in 0..25 {
                    let ev = stream.next();
                    reg.on_event(&ev);
                    oracle.on_event(&ev);
                }
                let port = stream.rng.index(ports);
                let level = stream.rng.range_u64(0, 20);
                reg.set_efifo_occupancy(port, level);
                reg.set_master_occupancy(level);
                reg.set_regulator(port, level, level / 2, level / 3);
                oracle.ports[port].efifo_occupancy.set(level);
                oracle.master_efifo_occupancy.set(level);
                let r = oracle.ports[port]
                    .regulator
                    .get_or_insert_with(Default::default);
                r.throttle_events = level;
                r.read_credits.set(level / 2);
                r.write_credits.set(level / 3);
                let at = format!("seed {seed} batch {batch}");
                let recent = &stream.uids[stream.uids.len().saturating_sub(64)..];
                assert_same(&reg, &oracle, recent, &at);
                if batch % 7 == 3 {
                    // Save and restore both mid-stream: each image
                    // re-saves to its own bytes, and the streams carry
                    // on from the restored state.
                    let bytes = save(&reg);
                    reg = load(&bytes);
                    assert_eq!(save(&reg), bytes, "{at}: restored image re-saves");
                    oracle = OracleRegistry::load(&oracle.save()).expect("oracle image loads");
                    assert_same(&reg, &oracle, recent, &at);
                }
            }
            assert!(reg.dropped_txns() > 0, "seed {seed}: no drop exercised");
        }
    }
}
