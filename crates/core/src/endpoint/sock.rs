//! Socket endpoint backend: the `knet` glue.
//!
//! Stream **source**: one pending-read slot pulls one queued datagram
//! (truncated to the transfer's remaining bytes). The engine issues at
//! most one pull per queued datagram (`rcv_depth`), and `net_rx` re-arms
//! the read side when the next datagram arrives.
//!
//! Stream **sink**: one arrived block becomes one datagram — no user
//! copy, no socket-buffer copy.

use knet::{Datagram, SockId};
use ksim::{Dur, TraceEvent};

use crate::endpoint::Block;
use crate::event::{Event, KWork};
use crate::kernel::Kernel;

impl Kernel {
    /// Pulls the next queued datagram, truncated to `want` bytes.
    /// `None` if the queue drained between issue and apply.
    pub(crate) fn sock_pull(&mut self, sock: SockId, want: usize) -> Option<Vec<u8>> {
        let mut data = self.net.recv(sock).ok().flatten().map(|d| d.data)?;
        data.truncate(want);
        Some(data)
    }

    /// Sends `payload` as one datagram and schedules its delivery.
    pub(crate) fn sock_send_payload(&mut self, sock: SockId, payload: Vec<u8>) {
        let now = self.q.now();
        let len = payload.len() as u32;
        match self.net.send(now, sock, payload.len()) {
            Ok(tx) => {
                if let Some(dst) = tx.dst {
                    self.trace
                        .emit(now, || TraceEvent::NetSend { sock: sock.0, len });
                    let src_addr = self.net.source_addr(sock).expect("socket exists");
                    self.q.schedule(
                        tx.arrival.max(now),
                        Event::NetDeliver {
                            dst,
                            dgram: Datagram {
                                src: src_addr,
                                src_sock: sock,
                                data: payload,
                            },
                        },
                    );
                } else {
                    // No peer bound: knet counted the drop.
                    self.trace
                        .emit(now, || TraceEvent::NetDrop { sock: sock.0, len });
                }
            }
            Err(_) => {
                self.counts.splice.sock_send_errs += 1;
                self.trace
                    .emit(now, || TraceEvent::NetDrop { sock: sock.0, len });
            }
        }
    }

    /// Socket-sink write side: packetize one arrived block.
    pub(crate) fn splice_sock_write(&mut self, desc: u64, lblk: u64, src: Block) {
        // Abort drain: a held buffer is released via `src_bufs`; owned
        // bytes just drop.
        if self.splice_drain_write(desc, lblk, None) {
            return;
        }
        let Some(d) = self.splices.get(&desc) else {
            if let Block::Buf(buf) = src {
                self.release_buf(buf);
            }
            return;
        };
        let crate::endpoint::DstEndpoint::Sock { sock } = d.dst else {
            panic!("splice_sock_write with non-socket sink")
        };
        let (payload, buf) = match src {
            Block::Bytes(data) => (data, None),
            Block::Buf(buf) => {
                let len = d.mapped_len(lblk);
                let boff = if lblk == 0 { d.first_boff() } else { 0 };
                let data = self.cache.data(buf);
                let bytes = data.bytes();
                (bytes[boff..boff + len].to_vec(), Some(buf))
            }
        };
        let now = self.q.now();
        self.trace
            .emit(now, || TraceEvent::SpliceWriteIssue { desc, lblk });
        self.note_write_issue_stage(desc, lblk);
        // The payload is extracted, so the cache buffer can go back
        // before the wire is ready — holding it across a backpressure
        // backoff would starve the cache under high connection counts.
        if let Some(buf) = buf {
            let d = self.splices.get_mut(&desc).unwrap();
            d.src_bufs.remove(&lblk);
            self.release_buf(buf);
        }
        self.sock_send_or_backoff(desc, lblk, sock, payload);
    }

    /// Sends the packetized block, or — when the destination link's
    /// backlog exceeds the socket's send-buffer limit — parks the
    /// payload on the per-host FIFO until the link drains. The block
    /// only completes once it is on the wire, so splice flow control
    /// (§5.2.3) sees the backpressure and stops issuing reads.
    ///
    /// A non-empty parked queue also forces parking (FIFO: a fresh block
    /// must not overtake payloads already waiting for the same link).
    fn sock_send_or_backoff(&mut self, desc: u64, lblk: u64, sock: SockId, payload: Vec<u8>) {
        let now = self.q.now();
        let host = self.net.peer(sock).map(|a| a.host);
        let queued = host.is_some_and(|h| self.parked_sends.get(&h).is_some_and(|q| !q.is_empty()));
        if let Some(host) = host {
            if queued || self.net.send_would_block(now, sock, payload.len()) {
                self.parked_sends
                    .entry(host)
                    .or_default()
                    .push_back(ParkedSend {
                        desc,
                        lblk,
                        sock,
                        payload,
                    });
                self.schedule_park_drain(host);
                return;
            }
        }
        let bytes = payload.len() as u64;
        self.sock_send_payload(sock, payload);
        self.splice_block_completed(desc, lblk, bytes);
    }

    /// Schedules the (single) drain callout for `host`'s parked queue at
    /// the moment the link should fit the queue head. No-op while one is
    /// already in flight.
    fn schedule_park_drain(&mut self, host: u32) {
        if self.park_drains.contains(&host) {
            return;
        }
        let Some((sock, len)) = self
            .parked_sends
            .get(&host)
            .and_then(|q| q.front())
            .map(|p| (p.sock, p.payload.len()))
        else {
            return;
        };
        let now = self.q.now();
        let ready = self.net.link_ready_at(now, sock, len);
        let wait = ready.saturating_since(now).max(Dur::from_us(1));
        let ticks = self.dur_to_ticks(wait).max(1);
        self.park_drains.insert(host);
        self.callout
            .schedule(self.tick, ticks, KWork::SpliceSockDrain { host });
    }

    /// Drains `host`'s parked-send queue: sends every payload that now
    /// fits, skips entries whose splice was torn down or aborted while
    /// parked, and re-arms one callout for the first payload that still
    /// does not fit.
    pub(crate) fn splice_sock_drain(&mut self, host: u32) {
        self.park_drains.remove(&host);
        loop {
            let Some((desc, lblk, sock, len)) = self
                .parked_sends
                .get(&host)
                .and_then(|q| q.front())
                .map(|p| (p.desc, p.lblk, p.sock, p.payload.len()))
            else {
                return;
            };
            // The splice may have died while the payload waited.
            let dead =
                self.splice_drain_write(desc, lblk, None) || !self.splices.contains_key(&desc);
            if dead {
                self.parked_sends.get_mut(&host).unwrap().pop_front();
                continue;
            }
            let now = self.q.now();
            if self.net.send_would_block(now, sock, len) {
                self.schedule_park_drain(host);
                return;
            }
            let p = self
                .parked_sends
                .get_mut(&host)
                .unwrap()
                .pop_front()
                .unwrap();
            let bytes = p.payload.len() as u64;
            self.sock_send_payload(p.sock, p.payload);
            self.splice_block_completed(p.desc, p.lblk, bytes);
        }
    }
}

/// One splice payload parked behind a full link send buffer (its cache
/// buffer was released when the block was packetized).
pub(crate) struct ParkedSend {
    /// Splice descriptor id.
    pub(crate) desc: u64,
    /// Logical block within the transfer.
    pub(crate) lblk: u64,
    /// Sending socket.
    pub(crate) sock: SockId,
    /// The packetized bytes.
    pub(crate) payload: Vec<u8>,
}
