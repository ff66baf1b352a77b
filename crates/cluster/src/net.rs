//! The network model: per-machine NIC serialization over shared links.
//!
//! Every inter-machine transfer occupies the sender's TX NIC and the
//! receiver's RX NIC for its serialization time, FIFO in request order. This
//! first-order model is what produces the paper's parameter-server
//! bottleneck: N workers pushing gradients at one PS machine queue on that
//! machine's RX NIC, so per-worker effective bandwidth degrades as 1/N —
//! exactly the effect §VI-C attributes ASP/SSP's poor 10 Gbps scaling to.
//!
//! Intra-machine transfers use the (much faster) PCIe-class fabric and do
//! not touch the NICs.

use std::sync::{Arc, Mutex};

use dtrain_desim::SimTime;
use dtrain_obs::{names, ObsSink, Track, TrackHandle};

use crate::config::{ClusterConfig, NodeId};

#[derive(Debug, Default, Clone)]
struct NicState {
    tx_free: SimTime,
    rx_free: SimTime,
}

/// Logical class of a transfer, for per-class accounting (Table I checks
/// each algorithm's aggregation traffic against its closed form).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TrafficClass {
    /// Worker (or machine leader) ↔ parameter server.
    WorkerPs,
    /// Intra-machine local aggregation (follower ↔ leader).
    LocalAgg,
    /// Peer-to-peer (ring hops, gossip, AD-PSGD exchanges).
    Peer,
    /// Anything else (control messages, unclassified).
    Other,
    /// Hierarchical/tree collective phases (intra reduce, leader ring,
    /// tree fan-out) — kept apart from `Peer`/`WorkerPs` so Table I's
    /// closed forms for the flat schedules stay checkable.
    Collective,
}

/// Per-transfer deadline/retry policy (elastic mode): cut off a transfer
/// that would exceed `deadline`, back off exponentially from `backoff`, and
/// give up retrying (accepting whatever delay remains) after `max_retries`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeadlinePolicy {
    pub deadline: SimTime,
    pub max_retries: u32,
    pub backoff: SimTime,
}

/// Aggregate traffic statistics, for Table I's communication-complexity
/// verification.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TrafficStats {
    pub inter_messages: u64,
    pub inter_bytes: u64,
    pub intra_messages: u64,
    pub intra_bytes: u64,
    /// Bytes by logical class: [WorkerPs, LocalAgg, Peer, Other, Collective].
    pub class_bytes: [u64; 5],
}

impl TrafficStats {
    /// Bytes recorded under `class`.
    pub fn bytes_of(&self, class: TrafficClass) -> u64 {
        self.class_bytes[class as usize]
    }

    /// Total bytes moved (all classes, intra + inter).
    pub fn total_bytes(&self) -> u64 {
        self.inter_bytes + self.intra_bytes
    }
}

/// A time-varying link fault: machine `machine`'s NIC runs at
/// `factor`× bandwidth during `[start, start + duration)`. `factor = 0.0`
/// is a partition — transfers touching the machine cannot start until the
/// window closes. Windows are supplied by the fault layer
/// (`dtrain-faults`); the network model only applies them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkWindow {
    pub start: SimTime,
    pub machine: usize,
    pub factor: f64,
    pub duration: SimTime,
}

impl LinkWindow {
    fn end(&self) -> SimTime {
        self.start + self.duration
    }

    fn covers(&self, t: SimTime, machine: usize) -> bool {
        self.machine == machine && self.start <= t && t < self.end()
    }
}

struct NetInner {
    nics: Vec<NicState>,
    stats: TrafficStats,
    link_faults: Vec<LinkWindow>,
    /// Per-machine obs tracks (empty unless [`NetModel::set_obs`] was
    /// called): NIC queue-occupancy counters and wire-bytes instants.
    obs: Vec<TrackHandle>,
}

/// Shared handle to the network model. Clone freely; all clones observe the
/// same NIC occupancy. Thread-safe, but within the DES exactly one process
/// calls in at a time, so there is no contention.
#[derive(Clone)]
pub struct NetModel {
    cfg: NetParams,
    inner: Arc<Mutex<NetInner>>,
}

/// The subset of [`ClusterConfig`] the network model needs (copied out so
/// the model is independent of the rest of the config's lifetime).
#[derive(Clone, Copy, Debug)]
struct NetParams {
    bandwidth_gbps: f64,
    latency_us: f64,
    intra_bandwidth_gbps: f64,
    intra_latency_us: f64,
}

impl NetModel {
    pub fn new(cfg: &ClusterConfig) -> Self {
        NetModel {
            cfg: NetParams {
                bandwidth_gbps: cfg.network.bandwidth_gbps,
                latency_us: cfg.network.latency_us,
                intra_bandwidth_gbps: cfg.intra_bandwidth_gbps,
                intra_latency_us: cfg.intra_latency_us,
            },
            inner: Arc::new(Mutex::new(NetInner {
                nics: vec![NicState::default(); cfg.machines],
                stats: TrafficStats::default(),
                link_faults: Vec::new(),
                obs: Vec::new(),
            })),
        }
    }

    /// Install time-varying link faults. Replaces any previous set; call
    /// before the simulation starts to keep runs deterministic.
    pub fn set_link_faults(&self, windows: Vec<LinkWindow>) {
        self.inner.lock().unwrap().link_faults = windows;
    }

    /// Mirror NIC-level activity onto per-machine obs tracks: every
    /// inter-machine reservation samples the backlog (ns until the
    /// endpoint's NIC frees) at both endpoints and stamps the transfer's
    /// wire bytes on the sender. Call before the simulation starts.
    pub fn set_obs(&self, sink: &ObsSink) {
        let mut inner = self.inner.lock().unwrap();
        inner.obs = (0..inner.nics.len())
            .map(|m| sink.track(Track::Machine(m as u16)))
            .collect();
    }

    /// Reserve NIC time for an unclassified transfer; see
    /// [`Self::transfer_delay_class`].
    pub fn transfer_delay(&self, now: SimTime, src: NodeId, dst: NodeId, bytes: u64) -> SimTime {
        self.transfer_delay_class(now, src, dst, bytes, TrafficClass::Other)
    }

    /// Reserve NIC time for a `bytes`-sized transfer from `src` to `dst`
    /// starting no earlier than `now`; returns the *delay from `now`* until
    /// the message is fully delivered at `dst`. Pass this delay to
    /// [`dtrain_desim::Ctx::send`].
    pub fn transfer_delay_class(
        &self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        class: TrafficClass,
    ) -> SimTime {
        let mut inner = self.inner.lock().unwrap();
        inner.stats.class_bytes[class as usize] += bytes;
        if src == dst {
            inner.stats.intra_messages += 1;
            inner.stats.intra_bytes += bytes;
            let ser =
                SimTime::from_secs_f64(bytes as f64 * 8.0 / (self.cfg.intra_bandwidth_gbps * 1e9));
            let lat = SimTime::from_secs_f64(self.cfg.intra_latency_us * 1e-6);
            return ser + lat;
        }
        inner.stats.inter_messages += 1;
        inner.stats.inter_bytes += bytes;
        if !inner.obs.is_empty() {
            // Backlog already queued ahead of this transfer, in ns of NIC
            // time — the quantity Fig. 4's PS-bottleneck analysis is about.
            let tx_backlog = inner.nics[src.0].tx_free.saturating_sub(now).as_nanos();
            let rx_backlog = inner.nics[dst.0].rx_free.saturating_sub(now).as_nanos();
            let ts = now.as_nanos();
            inner.obs[src.0].counter(ts, names::NIC_TX_QUEUE, tx_backlog as i64);
            inner.obs[dst.0].counter(ts, names::NIC_RX_QUEUE, rx_backlog as i64);
            inner.obs[src.0].instant(ts, names::WIRE_BYTES, bytes as i64);
        }
        let lat = SimTime::from_secs_f64(self.cfg.latency_us * 1e-6);
        // Start once both endpoints' NICs are free (FIFO in request order).
        let mut start = now
            .max(inner.nics[src.0].tx_free)
            .max(inner.nics[dst.0].rx_free);
        // Partition windows (factor = 0) block the transfer outright: it
        // cannot start until every such window touching either endpoint has
        // closed. Loop because clearing one window can land inside another.
        loop {
            let blocked_until = inner
                .link_faults
                .iter()
                .filter(|w| w.factor <= 0.0 && (w.covers(start, src.0) || w.covers(start, dst.0)))
                .map(LinkWindow::end)
                .max();
            match blocked_until {
                Some(t) if t > start => start = t,
                _ => break,
            }
        }
        // Degradation windows multiply down the effective bandwidth. The
        // factor is sampled at the start instant and held for the whole
        // transfer (first-order model, keeps reservations deterministic).
        let factor = inner
            .link_faults
            .iter()
            .filter(|w| w.factor > 0.0 && (w.covers(start, src.0) || w.covers(start, dst.0)))
            .map(|w| w.factor)
            .product::<f64>()
            .clamp(1e-3, 1.0);
        let ser =
            SimTime::from_secs_f64(bytes as f64 * 8.0 / (self.cfg.bandwidth_gbps * factor * 1e9));
        let wire_done = start + ser;
        inner.nics[src.0].tx_free = wire_done;
        inner.nics[dst.0].rx_free = wire_done;
        (wire_done + lat)
            .saturating_sub(now)
            .max(SimTime::from_nanos(1))
    }

    /// Reserve NIC time for a transfer under a deadline/retry policy
    /// (elastic mode). An attempt whose delivery delay would exceed
    /// `pol.deadline` is abandoned at the deadline and retried after an
    /// exponential backoff; the final attempt always completes so bounded
    /// retries never lose the message. Returns the *total* delay from `now`
    /// until delivery plus the number of retries taken. Abandoned attempts
    /// still reserve NIC time and count bytes — duplicate traffic is the
    /// price of impatience, and it is visible in [`TrafficStats`].
    pub fn transfer_delay_deadline(
        &self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        class: TrafficClass,
        pol: DeadlinePolicy,
    ) -> (SimTime, u32) {
        let mut at = now;
        let mut attempt = 0u32;
        loop {
            let d = self.transfer_delay_class(at, src, dst, bytes, class);
            if d <= pol.deadline || attempt >= pol.max_retries {
                return ((at + d).saturating_sub(now), attempt);
            }
            at = at + pol.deadline + pol.backoff * (1u64 << attempt.min(20));
            attempt += 1;
        }
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> TrafficStats {
        self.inner.lock().unwrap().stats
    }

    /// Earliest instant `node`'s TX NIC is free — exposed for tests and for
    /// wait-free BP's overlap accounting.
    pub fn tx_free_at(&self, node: NodeId) -> SimTime {
        self.inner.lock().unwrap().nics[node.0].tx_free
    }
}

#[cfg(test)]
mod obs_tests {
    use super::*;
    use crate::config::NetworkConfig;
    use dtrain_obs::EventKind;

    #[test]
    fn nic_counters_sample_backlog_at_both_endpoints() {
        let mut cfg = ClusterConfig::paper(NetworkConfig::TEN_GBPS);
        cfg.machines = 3;
        let net = NetModel::new(&cfg);
        let sink = ObsSink::enabled();
        net.set_obs(&sink);
        const MB100: u64 = 100_000_000;
        net.transfer_delay(SimTime::ZERO, NodeId(1), NodeId(0), MB100);
        net.transfer_delay(SimTime::ZERO, NodeId(2), NodeId(0), MB100);
        let events = sink.snapshot();
        let rx_samples: Vec<i64> = events
            .iter()
            .filter(|e| e.track == Track::Machine(0))
            .filter_map(|e| match e.kind {
                EventKind::Counter { name, value } if name == names::NIC_RX_QUEUE => Some(value),
                _ => None,
            })
            .collect();
        // First arrival sees an idle NIC; the second sees the first's 80 ms
        // of serialization already queued.
        assert_eq!(rx_samples.len(), 2);
        assert_eq!(rx_samples[0], 0);
        assert_eq!(rx_samples[1], 80_000_000);
        let wire_bytes: i64 = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Instant { name, value } if name == names::WIRE_BYTES => Some(value),
                _ => None,
            })
            .sum();
        assert_eq!(wire_bytes, 2 * MB100 as i64);
    }

    #[test]
    fn intra_machine_transfers_emit_no_nic_events() {
        let cfg = ClusterConfig::paper(NetworkConfig::TEN_GBPS);
        let net = NetModel::new(&cfg);
        let sink = ObsSink::enabled();
        net.set_obs(&sink);
        net.transfer_delay(SimTime::ZERO, NodeId(0), NodeId(0), 1_000_000);
        assert!(sink.snapshot().is_empty());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;

    fn model(bw: NetworkConfig, machines: usize) -> NetModel {
        let mut cfg = ClusterConfig::paper(bw);
        cfg.machines = machines;
        NetModel::new(&cfg)
    }

    const MB100: u64 = 100_000_000;

    #[test]
    fn single_transfer_time() {
        let net = model(NetworkConfig::TEN_GBPS, 2);
        let d = net.transfer_delay(SimTime::ZERO, NodeId(0), NodeId(1), MB100);
        // 100 MB over 10 Gbps = 80 ms + 50 µs latency
        assert!((d.as_secs_f64() - 0.08005).abs() < 1e-6, "{d:?}");
    }

    #[test]
    fn receiver_nic_serializes_fan_in() {
        // Two senders to one receiver: the second transfer queues behind the
        // first on the receiver's RX NIC.
        let net = model(NetworkConfig::TEN_GBPS, 3);
        let d1 = net.transfer_delay(SimTime::ZERO, NodeId(1), NodeId(0), MB100);
        let d2 = net.transfer_delay(SimTime::ZERO, NodeId(2), NodeId(0), MB100);
        assert!(d2 > d1, "second transfer must wait: {d1:?} vs {d2:?}");
        assert!((d2.as_secs_f64() - 0.16005).abs() < 1e-5, "{d2:?}");
    }

    #[test]
    fn disjoint_pairs_do_not_interfere() {
        let net = model(NetworkConfig::TEN_GBPS, 4);
        let d1 = net.transfer_delay(SimTime::ZERO, NodeId(0), NodeId(1), MB100);
        let d2 = net.transfer_delay(SimTime::ZERO, NodeId(2), NodeId(3), MB100);
        assert_eq!(d1, d2, "independent links run in parallel");
    }

    #[test]
    fn intra_machine_is_fast_and_unserialized() {
        let net = model(NetworkConfig::TEN_GBPS, 2);
        let d_intra = net.transfer_delay(SimTime::ZERO, NodeId(0), NodeId(0), MB100);
        let d_inter = net.transfer_delay(SimTime::ZERO, NodeId(0), NodeId(1), MB100);
        assert!(d_intra.as_secs_f64() * 5.0 < d_inter.as_secs_f64());
        // intra transfers don't occupy the NIC
        assert_eq!(
            net.tx_free_at(NodeId(0)),
            d_inter.saturating_sub(SimTime::from_micros(50))
        );
    }

    #[test]
    fn faster_network_shrinks_delay_proportionally() {
        let slow = model(NetworkConfig::TEN_GBPS, 2);
        let fast = model(NetworkConfig::FIFTY_SIX_GBPS, 2);
        let ds = slow.transfer_delay(SimTime::ZERO, NodeId(0), NodeId(1), MB100);
        let df = fast.transfer_delay(SimTime::ZERO, NodeId(0), NodeId(1), MB100);
        let ratio = ds.as_secs_f64() / df.as_secs_f64();
        assert!((5.0..6.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn stats_accumulate() {
        let net = model(NetworkConfig::TEN_GBPS, 2);
        net.transfer_delay(SimTime::ZERO, NodeId(0), NodeId(1), 10);
        net.transfer_delay(SimTime::ZERO, NodeId(0), NodeId(0), 20);
        let s = net.stats();
        assert_eq!(s.inter_messages, 1);
        assert_eq!(s.inter_bytes, 10);
        assert_eq!(s.intra_messages, 1);
        assert_eq!(s.intra_bytes, 20);
    }

    #[test]
    fn degraded_window_stretches_serialization() {
        let net = model(NetworkConfig::TEN_GBPS, 2);
        let base = net.transfer_delay(SimTime::ZERO, NodeId(0), NodeId(1), MB100);
        // Fresh model with a 10%-bandwidth window covering t=0 on machine 1.
        let net = model(NetworkConfig::TEN_GBPS, 2);
        net.set_link_faults(vec![LinkWindow {
            start: SimTime::ZERO,
            machine: 1,
            factor: 0.1,
            duration: SimTime::from_secs(10),
        }]);
        let slow = net.transfer_delay(SimTime::ZERO, NodeId(0), NodeId(1), MB100);
        let ratio = slow.as_secs_f64() / base.as_secs_f64();
        assert!((9.0..10.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn partition_window_delays_start() {
        let net = model(NetworkConfig::TEN_GBPS, 2);
        net.set_link_faults(vec![LinkWindow {
            start: SimTime::ZERO,
            machine: 0,
            factor: 0.0,
            duration: SimTime::from_secs(1),
        }]);
        let d = net.transfer_delay(SimTime::ZERO, NodeId(0), NodeId(1), MB100);
        // 1 s blocked + 80 ms wire + 50 µs latency
        assert!((d.as_secs_f64() - 1.08005).abs() < 1e-5, "{d:?}");
        // Transfers not touching the partitioned machine are unaffected.
        let net = model(NetworkConfig::TEN_GBPS, 3);
        net.set_link_faults(vec![LinkWindow {
            start: SimTime::ZERO,
            machine: 2,
            factor: 0.0,
            duration: SimTime::from_secs(1),
        }]);
        let d = net.transfer_delay(SimTime::ZERO, NodeId(0), NodeId(1), MB100);
        assert!((d.as_secs_f64() - 0.08005).abs() < 1e-6, "{d:?}");
    }

    #[test]
    fn expired_window_has_no_effect() {
        let net = model(NetworkConfig::TEN_GBPS, 2);
        net.set_link_faults(vec![LinkWindow {
            start: SimTime::ZERO,
            machine: 0,
            factor: 0.5,
            duration: SimTime::from_millis(1),
        }]);
        let d = net.transfer_delay(SimTime::from_secs(1), NodeId(0), NodeId(1), MB100);
        assert!((d.as_secs_f64() - 0.08005).abs() < 1e-6, "{d:?}");
    }

    #[test]
    fn deadline_retries_through_a_partition_and_charges_duplicates() {
        let pol = DeadlinePolicy {
            deadline: SimTime::from_millis(100),
            max_retries: 3,
            backoff: SimTime::from_millis(10),
        };
        // No congestion: one attempt, no retries, same delay as the plain
        // call would give.
        let net = model(NetworkConfig::TEN_GBPS, 2);
        let (d, retries) = net.transfer_delay_deadline(
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            MB100,
            TrafficClass::Peer,
            pol,
        );
        assert_eq!(retries, 0);
        assert!((d.as_secs_f64() - 0.08005).abs() < 1e-6, "{d:?}");
        // A partition until t=1s: the first attempts blow the 100 ms
        // deadline and are retried with doubling backoff.
        let net = model(NetworkConfig::TEN_GBPS, 2);
        net.set_link_faults(vec![LinkWindow {
            start: SimTime::ZERO,
            machine: 1,
            factor: 0.0,
            duration: SimTime::from_secs(1),
        }]);
        let (d, retries) = net.transfer_delay_deadline(
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            MB100,
            TrafficClass::Peer,
            pol,
        );
        assert_eq!(retries, 3, "every allowed retry was needed");
        // Every abandoned attempt still reserved a full serialization slot,
        // so delivery lands after the 1 s partition plus 4 × 80 ms of wire.
        assert!((d.as_secs_f64() - 1.32005).abs() < 1e-4, "{d:?}");
        // Duplicate attempts are charged: 4 messages' worth of bytes.
        assert_eq!(net.stats().inter_bytes, 4 * MB100);
    }

    #[test]
    fn deadline_retry_landing_exactly_at_window_end_is_unthrottled() {
        // Fault windows are half-open: `covers` holds for `start <= t <
        // end`, so an attempt starting at exactly `end` must see full
        // bandwidth. Regression probe for an off-by-one that would make
        // the boundary instant still throttled (`t <= end`).
        const MB10: u64 = 10_000_000;
        let net = model(NetworkConfig::TEN_GBPS, 2);
        net.set_link_faults(vec![LinkWindow {
            start: SimTime::ZERO,
            machine: 1,
            factor: 0.1,
            duration: SimTime::from_millis(100),
        }]);
        // Attempt 0 starts inside the window: 80 ms of throttled wire blows
        // the 50 ms deadline and is abandoned (NICs held until t = 80 ms).
        // The retry fires at deadline + backoff = exactly the window end.
        let pol = DeadlinePolicy {
            deadline: SimTime::from_millis(50),
            max_retries: 3,
            backoff: SimTime::from_millis(50),
        };
        let (d, retries) = net.transfer_delay_deadline(
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            MB10,
            TrafficClass::Peer,
            pol,
        );
        // At t == end the factor no longer applies: the retry is a clean
        // 8 ms + 50 µs and fits the deadline, so exactly one retry total.
        // An inclusive boundary would throttle it to 80 ms and burn a
        // second retry.
        assert_eq!(retries, 1);
        assert!((d.as_secs_f64() - 0.10805).abs() < 1e-6, "{d:?}");
    }

    #[test]
    fn transfer_starting_exactly_at_window_end_is_unaffected() {
        // Both partition (factor 0) and degradation windows release at the
        // exact `end` instant.
        for factor in [0.0, 0.1] {
            let net = model(NetworkConfig::TEN_GBPS, 2);
            net.set_link_faults(vec![LinkWindow {
                start: SimTime::ZERO,
                machine: 0,
                factor,
                duration: SimTime::from_secs(1),
            }]);
            let d = net.transfer_delay(SimTime::from_secs(1), NodeId(0), NodeId(1), MB100);
            assert!(
                (d.as_secs_f64() - 0.08005).abs() < 1e-6,
                "factor {factor}: {d:?}"
            );
        }
    }

    #[test]
    fn later_transfers_start_later() {
        let net = model(NetworkConfig::TEN_GBPS, 2);
        let _ = net.transfer_delay(SimTime::ZERO, NodeId(0), NodeId(1), MB100);
        // A request arriving mid-transfer queues for the remainder only.
        let at = SimTime::from_millis(40);
        let d = net.transfer_delay(at, NodeId(0), NodeId(1), MB100);
        // remaining 40 ms of the first + 80 ms own = ~120 ms
        assert!((d.as_secs_f64() - 0.12005).abs() < 1e-5, "{d:?}");
    }
}
