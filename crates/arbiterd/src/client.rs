//! The member-side grant client: timeouts, jittered backoff, and
//! hold-last-grant degradation.
//!
//! [`GrantClient`] is the bridge between cluster members and the
//! daemon: it pushes telemetry upstream and keeps each member's newest
//! grant ([`GrantClient::grants`]) across a lossy wire. One client
//! speaks for a contiguous group of `count ≥ 1` nodes over one
//! connection: a single node sends singleton frames, a larger group one
//! [`Msg::Batch`] each way per tick. Degradation is the design center,
//! per Cerf et al.'s assumption that the runtime outlives its transport:
//!
//! - **disconnected** → every member keeps the last grant it saw (a
//!   stale cap is safe — the daemon froze the same value bitwise) and
//!   the client reconnects under seeded jittered exponential backoff
//!   ([`nrm::Backoff`], the same curve the resilient NRM daemon uses
//!   for actuator re-probes);
//! - **shed** ([`Msg::Busy`]) → the client honours the daemon's
//!   `retry_after` hint and mutes telemetry, never retries hot; one
//!   member's shed mutes the whole group, since the daemon is telling
//!   the connection to slow down;
//! - **NACKed** → the offending report is dropped, not resent: the
//!   next epoch produces fresher telemetry anyway.

use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::time::Duration;

use cluster::NodeTelemetry;
use nrm::Backoff;

use crate::proto::Msg;
use crate::wire::{TcpWire, Wire, WireError};

/// Client-side counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Successful (re)connections, first connect included.
    pub connects: u64,
    /// Link losses observed.
    pub disconnects: u64,
    /// Member reports suppressed while muted or down (hold-last-grant
    /// ticks; a held group counts each member).
    pub held: u64,
    /// [`Msg::Busy`] sheds honoured.
    pub busy: u64,
    /// [`Msg::Nack`] rejections observed.
    pub nacked: u64,
    /// [`Msg::Grant`]s received (batch members counted individually).
    pub grants: u64,
}

impl std::ops::Add for ClientStats {
    type Output = Self;

    fn add(self, o: Self) -> Self {
        Self {
            connects: self.connects + o.connects,
            disconnects: self.disconnects + o.disconnects,
            held: self.held + o.held,
            busy: self.busy + o.busy,
            nacked: self.nacked + o.nacked,
            grants: self.grants + o.grants,
        }
    }
}

impl std::iter::Sum for ClientStats {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |a, b| a + b)
    }
}

/// Dials the daemon (or hands over a pre-connected test pipe): each
/// call is one connection attempt, `None` while the daemon is
/// unreachable.
///
/// A connector is not `Send`, so neither is a [`GrantClient`]: a client
/// lives on the thread that built it, whether its wires are in-process
/// pipes or TCP sockets.
pub type Connector = Box<dyn FnMut() -> Option<Box<dyn Wire>>>;

/// A [`Connector`] dialing a daemon's TCP listener at `addr`, giving up
/// on one attempt after `timeout`.
pub fn tcp_connector(addr: SocketAddr, timeout: Duration) -> Connector {
    Box::new(move || {
        TcpStream::connect_timeout(&addr, timeout)
            .ok()
            .and_then(|s| TcpWire::new(s).ok())
            .map(|w| Box::new(w) as Box<dyn Wire>)
    })
}

enum Link {
    Up(Box<dyn Wire>),
    /// Waiting `retry_in` more polls before redialing.
    Down {
        /// Polls left before the next connection attempt.
        retry_in: u32,
    },
}

/// A telemetry producer / grant consumer for the nodes
/// `first..first + count`, sharing one connection.
pub struct GrantClient {
    first: u32,
    link: Link,
    connector: Connector,
    backoff: Backoff,
    /// Newest grant seen per member, W; held across outages. Its length
    /// is the group size.
    grants: Vec<Option<f64>>,
    /// Telemetry sequence, shared by the members — advances only when a
    /// report is actually sent, so a recovered run's seq stream aligns
    /// with an uncrashed reference regardless of how long the outage
    /// lasted.
    seq: u64,
    /// Local poll counter (the client's clock).
    polls: u64,
    /// Busy-shed mute: no telemetry until this local poll.
    muted_until: u64,
    /// Reused member buffer for outgoing batch frames.
    scratch: Vec<Msg>,
    stats: ClientStats,
}

impl GrantClient {
    /// Build a client for one node. `connector` dials the daemon;
    /// `backoff_cap` and `seed` shape the reconnect schedule.
    pub fn new(node: u32, connector: Connector, backoff_cap: u32, seed: u64) -> Self {
        Self::group(node, 1, connector, backoff_cap, seed)
    }

    /// Build a client for the `count` nodes `first..first + count`,
    /// multiplexed over one connection.
    ///
    /// # Panics
    /// Panics when `count` is zero.
    pub fn group(
        first: u32,
        count: u32,
        connector: Connector,
        backoff_cap: u32,
        seed: u64,
    ) -> Self {
        assert!(count > 0, "a client needs at least one node");
        let mut c = Self {
            first,
            link: Link::Down { retry_in: 0 },
            connector,
            backoff: Backoff::new(backoff_cap, seed),
            grants: vec![None; count as usize],
            seq: 0,
            polls: 0,
            muted_until: 0,
            scratch: Vec::new(),
            stats: ClientStats::default(),
        };
        c.try_connect();
        c
    }

    fn try_connect(&mut self) {
        let nodes = self.nodes();
        match (self.connector)() {
            Some(mut wire) => {
                // Introduce ourselves; the daemon answers with the
                // current grants so caps recover without waiting a full
                // telemetry round.
                let hello = send_members(&mut *wire, nodes, &mut self.scratch, |node| Msg::Hello {
                    node,
                });
                if hello.is_ok() {
                    self.link = Link::Up(wire);
                    self.backoff.reset();
                    self.stats.connects += 1;
                    // Settle for one poll before resuming telemetry: the
                    // Hello grant gets a round trip to land, and a
                    // recovering daemon sees at most one report per
                    // control period — which keeps a recovered run's
                    // round structure aligned with an uncrashed one.
                    self.muted_until = self.polls + 1;
                } else {
                    self.note_down();
                }
            }
            None => self.note_down(),
        }
    }

    fn note_down(&mut self) {
        self.stats.disconnects += u64::from(matches!(self.link, Link::Up(_)));
        self.link = Link::Down {
            retry_in: self.backoff.record_failure(),
        };
    }

    /// One client tick: drain inbound grants, run the reconnect state
    /// machine. Call once per control period (the load generator calls
    /// it once per simulated tick).
    pub fn advance(&mut self) {
        self.polls += 1;
        if let Link::Down { retry_in } = &mut self.link {
            if *retry_in == 0 {
                self.try_connect();
            } else {
                *retry_in -= 1;
            }
            return;
        }
        while let Link::Up(wire) = &mut self.link {
            let polled = wire.poll();
            match polled {
                // A batch is its members in order — the daemon groups a
                // tick's replies per connection into one frame.
                Ok(Some(Msg::Batch(msgs))) => {
                    for m in msgs {
                        self.absorb(m);
                    }
                }
                Ok(Some(msg)) => self.absorb(msg),
                Ok(None) => break,
                Err(WireError::Disconnected) | Err(WireError::Corrupt(_)) => {
                    self.note_down();
                    break;
                }
            }
        }
    }

    fn absorb(&mut self, msg: Msg) {
        match msg {
            Msg::Grant { node, watts, .. } => {
                self.stats.grants += 1;
                if let Some(g) = self.grants.get_mut(node.wrapping_sub(self.first) as usize) {
                    *g = Some(watts);
                }
            }
            Msg::Busy { retry_after } => {
                self.stats.busy += 1;
                self.muted_until = self.polls + retry_after as u64;
            }
            Msg::Nack { .. } => {
                self.stats.nacked += 1;
            }
            // Client-only messages from a confused peer; nested batches
            // never decode off the wire.
            Msg::Hello { .. } | Msg::Heartbeat { .. } | Msg::Telemetry { .. } | Msg::Batch(_) => {}
        }
    }

    /// Offer this epoch's telemetry for a one-node client (a group
    /// would send `report` for every member; see
    /// [`GrantClient::send_reports`]). Returns the seq it was sent
    /// under, or `None` when held back (down, muted, or send failure) —
    /// the member then simply keeps its current cap.
    #[cfg(test)]
    pub(crate) fn send_report(&mut self, report: &NodeTelemetry) -> Option<u64> {
        self.send_reports(|_, _| *report)
    }

    /// Offer this epoch's telemetry for every member in one frame, all
    /// under the same seq: `report(j, seq)` is member `j`'s (node
    /// `first + j`). Returns the seq, or `None` when held back (down,
    /// muted, or send failure) — every member then keeps its current
    /// cap, and `report` is not called.
    pub fn send_reports(
        &mut self,
        mut report: impl FnMut(u32, u64) -> NodeTelemetry,
    ) -> Option<u64> {
        let nodes = self.nodes();
        let count = nodes.len() as u64;
        if self.polls < self.muted_until {
            self.stats.held += count;
            return None;
        }
        let Link::Up(wire) = &mut self.link else {
            self.stats.held += count;
            return None;
        };
        let seq = self.seq + 1;
        let first = nodes.start;
        let sent = send_members(&mut **wire, nodes, &mut self.scratch, |node| {
            Msg::Telemetry {
                node,
                seq,
                report: report(node - first, seq),
            }
        });
        match sent {
            Ok(()) => {
                self.seq = seq;
                Some(seq)
            }
            Err(_) => {
                self.note_down();
                self.stats.held += count;
                None
            }
        }
    }

    /// Whether the link is currently up.
    pub fn connected(&self) -> bool {
        matches!(self.link, Link::Up(_))
    }

    /// Nodes this client speaks for.
    pub fn nodes(&self) -> Range<u32> {
        self.first..self.first + self.grants.len() as u32
    }

    /// Newest grant seen by the first member (a one-node client's only
    /// member), W — held across outages.
    #[cfg(test)]
    pub(crate) fn last_grant(&self) -> Option<f64> {
        self.grants[0]
    }

    /// Newest grant seen per member, W, in node order.
    pub fn grants(&self) -> &[Option<f64>] {
        &self.grants
    }

    /// Client counters.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }
}

/// Send `member(node)` for every node in one frame: the bare message for
/// one node, a [`Msg::Batch`] for several. The batch is built in
/// `scratch`, which keeps its allocation for the next frame.
fn send_members(
    wire: &mut dyn Wire,
    nodes: Range<u32>,
    scratch: &mut Vec<Msg>,
    mut member: impl FnMut(u32) -> Msg,
) -> Result<(), WireError> {
    if nodes.len() == 1 {
        return wire.send(&member(nodes.start));
    }
    scratch.clear();
    scratch.extend(nodes.map(member));
    let frame = Msg::Batch(std::mem::take(scratch));
    let sent = wire.send(&frame);
    if let Msg::Batch(v) = frame {
        *scratch = v;
    }
    sent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Msg;
    use crate::wire::PipeWire;
    use cluster::NodeTelemetry;

    /// A connector that hands out pre-made pipes, one per call.
    fn pipe_connector(mut pipes: Vec<Option<PipeWire>>) -> Connector {
        pipes.reverse();
        Box::new(move || pipes.pop().flatten().map(|p| Box::new(p) as Box<dyn Wire>))
    }

    fn report() -> NodeTelemetry {
        NodeTelemetry::compute_only(1.0, 1.0, 95.0)
    }

    #[test]
    fn connects_says_hello_and_tracks_grants() {
        let (client_end, mut server_end) = PipeWire::pair();
        let mut c = GrantClient::new(3, pipe_connector(vec![Some(client_end)]), 32, 1);
        assert!(c.connected());
        assert_eq!(server_end.poll().unwrap(), Some(Msg::Hello { node: 3 }));

        server_end
            .send(&Msg::Grant {
                node: 3,
                seq: 0,
                tick: 7,
                watts: 88.5,
            })
            .unwrap();
        c.advance();
        assert_eq!(c.last_grant(), Some(88.5));

        let seq = c.send_report(&report()).unwrap();
        assert_eq!(seq, 1);
        assert!(matches!(
            server_end.poll().unwrap(),
            Some(Msg::Telemetry {
                node: 3,
                seq: 1,
                ..
            })
        ));
    }

    #[test]
    fn holds_last_grant_and_seq_across_an_outage() {
        let (a, server_a) = PipeWire::pair();
        let (b, mut server_b) = PipeWire::pair();
        let mut c = GrantClient::new(0, pipe_connector(vec![Some(a), None, Some(b)]), 4, 9);
        // Deliver a grant, then kill the first pipe.
        let mut sa = server_a;
        sa.poll().unwrap(); // consume Hello
        sa.send(&Msg::Grant {
            node: 0,
            seq: 0,
            tick: 1,
            watts: 77.0,
        })
        .unwrap();
        c.advance();
        assert_eq!(c.last_grant(), Some(77.0));
        sa.hang_up();

        // The outage: grant held, telemetry suppressed, seq frozen.
        c.advance();
        assert!(!c.connected());
        assert_eq!(c.last_grant(), Some(77.0), "hold-last-grant");
        assert_eq!(c.send_report(&report()), None);
        assert!(c.stats().held >= 1);

        // Backoff eventually redials: attempt 1 fails (None), attempt 2
        // lands on the second pipe and re-Hellos.
        for _ in 0..64 {
            c.advance();
            if c.connected() {
                break;
            }
        }
        assert!(c.connected(), "client must reconnect through backoff");
        assert_eq!(server_b.poll().unwrap(), Some(Msg::Hello { node: 0 }));
        // One settle poll after the redial, then telemetry resumes.
        assert_eq!(c.send_report(&report()), None, "settling after redial");
        c.advance();
        // Seq resumes where it left off — nothing was consumed while down.
        assert_eq!(c.send_report(&report()), Some(1));
        assert!(c.stats().connects >= 2);
        assert_eq!(c.stats().disconnects, 1);
    }

    #[test]
    fn busy_shed_mutes_telemetry_for_the_hinted_window() {
        let (client_end, mut server_end) = PipeWire::pair();
        let mut c = GrantClient::new(0, pipe_connector(vec![Some(client_end)]), 32, 5);
        server_end.poll().unwrap(); // Hello
        server_end.send(&Msg::Busy { retry_after: 3 }).unwrap();
        c.advance();
        assert_eq!(c.stats().busy, 1);
        assert_eq!(c.send_report(&report()), None, "muted after shed");
        c.advance();
        c.advance();
        assert_eq!(c.send_report(&report()), None, "still muted");
        c.advance();
        assert!(c.send_report(&report()).is_some(), "mute expires");
    }

    #[test]
    fn a_group_batches_its_frames_and_is_muted_as_one() {
        let (client_end, mut server_end) = PipeWire::pair();
        let mut c = GrantClient::group(4, 3, pipe_connector(vec![Some(client_end)]), 32, 1);
        assert_eq!(c.nodes(), 4..7);
        assert_eq!(
            server_end.poll().unwrap(),
            Some(Msg::Batch((4..7).map(|node| Msg::Hello { node }).collect()))
        );

        let grant = |node, watts| Msg::Grant {
            node,
            seq: 0,
            tick: 2,
            watts,
        };
        // Grants land per member; one for a node outside the group is
        // counted but recorded nowhere.
        server_end
            .send(&Msg::Batch(vec![
                grant(4, 50.0),
                grant(6, 70.0),
                grant(9, 1.0),
            ]))
            .unwrap();
        c.advance();
        assert_eq!(c.grants(), &[Some(50.0), None, Some(70.0)]);
        assert_eq!(c.stats().grants, 3);

        let seq = c.send_reports(|j, seq| {
            NodeTelemetry::compute_only(1.0 + j as f64, 1.0, 90.0 + seq as f64)
        });
        assert_eq!(seq, Some(1));
        let Some(Msg::Batch(members)) = server_end.poll().unwrap() else {
            panic!("a group sends one batch frame");
        };
        assert_eq!(members.len(), 3);
        for (j, m) in members.iter().enumerate() {
            assert_eq!(
                m,
                &Msg::Telemetry {
                    node: 4 + j as u32,
                    seq: 1,
                    report: NodeTelemetry::compute_only(1.0 + j as f64, 1.0, 91.0),
                }
            );
        }

        // One member's shed mutes the whole group; every member is held.
        server_end.send(&Msg::Busy { retry_after: 2 }).unwrap();
        c.advance();
        assert_eq!(c.send_reports(|_, _| report()), None);
        assert_eq!(c.stats().held, 3);
        assert_eq!(c.stats().busy, 1);
    }
}
