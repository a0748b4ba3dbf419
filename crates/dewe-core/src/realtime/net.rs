//! The TCP transport: a networked master/worker runtime over the same
//! serve loops as the in-process bus.
//!
//! [`TcpMaster`] implements [`Transport`] (and therefore
//! `MasterTransport`), so `spawn_master_on` drives an entire remote
//! fleet with the exact master loop — LivenessTable lifecycle, retry
//! machinery, WAL journal — that the in-process oracle paths exercise.
//! [`TcpWorkerLink`] implements [`WorkerTransport`], so `spawn_worker_on`
//! runs the unchanged slot/heartbeat loops against a remote master.
//!
//! ## Wire model
//!
//! Every connection speaks length-prefixed [`WireMsg`] frames
//! (`dewe_mq::push_frame` / `read_frame`); the first frame after
//! `accept` is a handshake — [`WireMsg::Hello`] for workers,
//! [`WireMsg::SubmitterHello`] for submission clients — and any version
//! skew or garbage drops the connection before it touches master state.
//!
//! ## Wire I/O
//!
//! Frames move in bursts, never one at a time. Each connection's writer
//! thread wakes on its out topic, drains everything queued, encodes it
//! into one reused buffer ([`BurstWriter`]) and writes the burst with
//! one `write` once the queue is empty — flushing when idle adds no
//! latency (no timer, no linger, no Nagle). Out topics carry typed
//! messages, so publishing an ack or a dispatch allocates nothing. A
//! live workflow announcement is encoded once and its bytes shared by
//! every connection it is broadcast to; the replay to a late-joining
//! worker re-serializes each workflow. Readers decode out of one reused
//! frame buffer and hand a read burst's acks to the serve loop with one
//! `publish_all`, and a [`WireMsg::DispatchBatch`] to the slot loops the
//! same way. Neither buffer keeps a large frame's capacity: a writer
//! shrinks back to [`BURST_BYTES`] after each burst, a reader to
//! [`FRAME_RETAIN`] before each read.
//!
//! ## Backpressure
//!
//! Each worker offers a dispatch *window* in its Hello: the maximum
//! unsettled dispatches the master may hold on that connection
//! ([`dewe_mq::SendWindow`] credit). A terminal acknowledgment
//! (Completed/Failed) or an explicit [`WireMsg::Return`] refunds one
//! credit; dispatches that find no credit anywhere queue inside the
//! master transport and drain as credit frees up. A slow worker
//! therefore throttles only itself — the paper's pull-based competition,
//! recreated over push-with-credit.
//!
//! ## Registry mirroring
//!
//! Networked workers cannot share the master's in-memory [`Registry`],
//! so the master broadcasts every accepted workflow as a
//! [`WireMsg::Workflow`] announcement (and replays the full set to
//! late-joining workers at Hello). The worker link inserts each DAG into
//! its local registry mirror — its stand-in for the paper's shared file
//! system. With a state directory configured, announcements are also
//! spooled to disk (`wf-<id>.dag`) so a restarted master process can
//! rebuild its registry before WAL recovery.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use dewe_dag::{parse_workflow, write_workflow, Workflow, WorkflowId};
use dewe_mq::{
    bind_reuse, push_frame, read_frame, BurstWriter, SendWindow, Topic, Transport, WorkerTransport,
    DEFAULT_MAX_FRAME,
};
use parking_lot::Mutex;

use super::bus::Registry;
use crate::protocol::{
    AckKind, AckMsg, DispatchMsg, LifecycleMsg, SubmissionMsg, WireMsg, WorkflowAnnounce,
};

/// How often blocked I/O helper threads re-check their stop flags.
const IO_TICK: Duration = Duration::from_millis(50);

/// A writer writes its buffer once it holds this many bytes, even with
/// more queued: a backlog of workflow announcements (megabytes of DAG
/// text each) drains in bounded bursts instead of one giant buffer.
const BURST_BYTES: usize = 256 * 1024;

/// Messages a writer takes off its out topic per lock acquisition.
const BURST_MSGS: usize = 256;

/// Capacity a reader's frame buffer keeps between frames. A larger frame
/// (a workflow announcement or submission: megabytes of DAG text) grows
/// the buffer only until the next read.
const FRAME_RETAIN: usize = 64 * 1024;

/// A reader settles its read burst — publishes the acks, drains the
/// pending queue with the refunded credit — at least every this many
/// acks, so a sustained flood cannot starve the serve loop.
const SETTLE_EVERY: usize = 64;

/// One message on a connection's out topic.
enum Outbound {
    /// A message the writer thread encodes.
    Msg(WireMsg),
    /// A payload encoded once and shared by every connection it is sent
    /// on (a workflow announcement).
    Shared(Arc<[u8]>),
}

impl Outbound {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Outbound::Msg(msg) => msg.encode_into(out),
            Outbound::Shared(payload) => out.extend_from_slice(payload),
        }
    }
}

/// A connection's writer loop: drain `out` onto `w` in bursts. Every
/// queued message is encoded into the writer's buffer, and the burst is
/// written once the queue runs dry (or the buffer reaches
/// [`BURST_BYTES`]). Returns `Ok` once `out` is closed and drained or
/// `alive` turns false, and the first write error otherwise — the
/// writer then still holds the frames that did not go out.
fn pump<W: Write>(
    out: &Topic<Outbound>,
    w: &mut BurstWriter<W>,
    alive: impl Fn() -> bool,
) -> io::Result<()> {
    let mut burst = Vec::new();
    while alive() {
        // Wait for work only with nothing buffered: frames carried over
        // from a failed connection go out without waiting.
        if w.buffered() == 0 {
            match out.pull_timeout(IO_TICK) {
                Some(first) => burst.push(first),
                None if out.is_closed() && out.is_empty() => return Ok(()),
                None => continue,
            }
        }
        loop {
            for msg in burst.drain(..) {
                w.push(|buf| msg.encode_into(buf));
            }
            if w.buffered() >= BURST_BYTES || out.try_pull_batch(&mut burst, BURST_MSGS) == 0 {
                break;
            }
        }
        w.write_burst()?;
        // A burst that carried an announcement grew the buffer past
        // BURST_BYTES; give that back rather than hold it per connection.
        w.shrink_to(BURST_BYTES);
    }
    Ok(())
}

/// Read the next frame into `frame`, first releasing whatever capacity
/// beyond [`FRAME_RETAIN`] a large earlier frame left behind, so an idle
/// connection never holds a DAG-sized buffer. `false` on end of stream
/// or any read error.
fn next_frame(r: &mut impl io::Read, max_frame: usize, frame: &mut Vec<u8>) -> bool {
    frame.clear();
    frame.shrink_to(FRAME_RETAIN);
    matches!(read_frame(r, max_frame, frame), Ok(true))
}

// ---------------------------------------------------------------------------
// Master side
// ---------------------------------------------------------------------------

/// Options for [`TcpMaster::bind`].
#[derive(Debug, Clone)]
pub struct TcpMasterOptions {
    /// Spool accepted workflows to `wf-<id>.dag` files in this directory
    /// so a restarted master process can rebuild its registry (see
    /// [`load_spool`]). `None` disables spooling.
    pub state_dir: Option<PathBuf>,
    /// Maximum accepted frame size; larger frames drop the connection.
    pub max_frame: usize,
}

impl Default for TcpMasterOptions {
    fn default() -> Self {
        Self { state_dir: None, max_frame: DEFAULT_MAX_FRAME }
    }
}

/// One connected worker, from the master's side.
struct Conn {
    /// Outbound messages; a dedicated writer thread drains this, so the
    /// master loop never blocks on a slow worker's socket.
    out: Topic<Outbound>,
    /// Dispatch credit for this connection.
    window: SendWindow,
    /// Shard pin from the Hello; `None` serves every shard.
    shard: Option<u32>,
    /// For unblocking the reader on shutdown.
    stream: TcpStream,
}

impl Conn {
    fn serves(&self, shard: usize) -> bool {
        self.shard.is_none_or(|s| s as usize == shard)
    }

    fn send(&self, msg: WireMsg) {
        self.out.publish(Outbound::Msg(msg));
    }
}

struct MasterInner {
    local_addr: SocketAddr,
    stop: AtomicBool,
    submission: Topic<SubmissionMsg>,
    ack: Topic<AckMsg>,
    lifecycle: Topic<LifecycleMsg>,
    conns: Mutex<HashMap<u64, Arc<Conn>>>,
    next_conn: AtomicU64,
    /// Dispatches that found no window credit, FIFO per arrival.
    pending: Mutex<VecDeque<(usize, DispatchMsg)>>,
    /// Everything announced so far, replayed to late-joining workers.
    /// Also the synchronization point between `announce` broadcasts and
    /// Hello replays (see `register_worker_conn`).
    announced: Mutex<Vec<WorkflowAnnounce>>,
    state_dir: Option<PathBuf>,
    max_frame: usize,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
}

/// The master's TCP endpoint: accepts worker and submitter connections
/// and exposes them to the serve loop as a [`Transport`]. Clones share
/// the endpoint.
#[derive(Clone)]
pub struct TcpMaster {
    inner: Arc<MasterInner>,
}

impl TcpMaster {
    /// Bind the master endpoint and start accepting connections.
    /// `addr` may use port 0 to let the OS pick (see
    /// [`local_addr`](Self::local_addr)).
    pub fn bind(addr: impl ToSocketAddrs, options: TcpMasterOptions) -> io::Result<Self> {
        if let Some(dir) = &options.state_dir {
            std::fs::create_dir_all(dir)?;
        }
        let listener = bind_reuse(addr)?;
        let local_addr = listener.local_addr()?;
        let inner = Arc::new(MasterInner {
            local_addr,
            stop: AtomicBool::new(false),
            submission: Topic::default(),
            ack: Topic::default(),
            lifecycle: Topic::default(),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            pending: Mutex::new(VecDeque::new()),
            announced: Mutex::new(Vec::new()),
            state_dir: options.state_dir,
            max_frame: options.max_frame,
            accept_thread: Mutex::new(None),
        });
        let accept_inner = Arc::clone(&inner);
        let handle = std::thread::Builder::new()
            .name("dewe-master-accept".into())
            .spawn(move || accept_loop(accept_inner, listener))
            .expect("spawn accept thread");
        *inner.accept_thread.lock() = Some(handle);
        Ok(Self { inner })
    }

    /// The bound address (resolves port 0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr
    }

    /// Number of currently connected worker connections.
    pub fn worker_conns(&self) -> usize {
        self.inner.conns.lock().len()
    }

    /// Stop the endpoint gracefully: send [`WireMsg::Bye`] to every
    /// worker (telling their links not to reconnect — the ensemble is
    /// done), close the internal topics (releasing the serve loop), and
    /// join the accept thread. Connection threads exit as their sockets
    /// close.
    pub fn shutdown(&self) {
        self.stop(true);
    }

    /// Kill the endpoint abruptly — connections drop with *no* Bye, as a
    /// crashed master would drop them — so worker links keep
    /// reconnecting and ride out a restart. The crash half of the
    /// kill/restart recovery drill.
    pub fn kill(&self) {
        self.stop(false);
    }

    fn stop(&self, say_bye: bool) {
        let inner = &self.inner;
        if inner.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        {
            let conns = inner.conns.lock();
            for conn in conns.values() {
                if say_bye {
                    conn.send(WireMsg::Bye);
                }
                // Close after Bye: the writer drains queued frames
                // (including the Bye) before exiting.
                conn.out.close();
                let _ = conn.stream.shutdown(std::net::Shutdown::Read);
            }
        }
        inner.submission.close();
        inner.ack.close();
        inner.lifecycle.close();
        if let Some(t) = inner.accept_thread.lock().take() {
            // Wake the blocking accept with a connection of our own; the
            // accept loop sees `stop` and returns.
            let mut wake = inner.local_addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
            let _ = t.join();
        }
    }
}

impl Transport for TcpMaster {
    type Submission = SubmissionMsg;
    type Dispatch = DispatchMsg;
    type Ack = AckMsg;
    type Lifecycle = LifecycleMsg;
    type Announce = WorkflowAnnounce;

    fn try_pull_submission(&self) -> Option<SubmissionMsg> {
        self.inner.submission.try_pull()
    }

    fn pull_ack(&self, timeout: Duration) -> Option<AckMsg> {
        self.inner.ack.pull_timeout(timeout)
    }

    fn pull_ack_batch(&self, out: &mut Vec<AckMsg>, max: usize) -> usize {
        self.inner.ack.try_pull_batch(out, max)
    }

    fn try_pull_lifecycle(&self) -> Option<LifecycleMsg> {
        self.inner.lifecycle.try_pull()
    }

    fn publish_dispatch(&self, shard: usize, dispatch: DispatchMsg) {
        if !self.inner.try_send_dispatch(shard, dispatch) {
            self.inner.pending.lock().push_back((shard, dispatch));
            // Re-drain once: credit may have been refunded between the
            // failed placement and the enqueue.
            self.inner.drain_pending();
        }
    }

    fn publish_dispatch_batch(&self, shard: usize, batch: &mut Vec<DispatchMsg>) {
        self.inner.try_send_batch(shard, batch);
        if !batch.is_empty() {
            let mut pending = self.inner.pending.lock();
            for d in batch.drain(..) {
                pending.push_back((shard, d));
            }
            drop(pending);
            self.inner.drain_pending();
        }
    }

    fn announce(&self, announce: WorkflowAnnounce) {
        // Serialize and encode the announcement once; the spool and every
        // connection share the text.
        let dag = write_workflow(&announce.workflow);
        if let Some(dir) = &self.inner.state_dir {
            if let Err(e) = spool_workflow(dir, announce.id, &announce.name, &dag) {
                eprintln!(
                    "dewe-master: failed to spool workflow {} to {}: {e}",
                    announce.id.0,
                    dir.display()
                );
            }
        }
        let payload: Arc<[u8]> =
            WireMsg::Workflow { id: announce.id, name: announce.name.clone(), dag }.encode().into();
        // Holding `announced` across the broadcast closes the race with
        // a concurrent Hello replay: a late-joining worker either shows
        // up in `conns` here, or snapshots this workflow from
        // `announced` — never neither.
        let mut announced = self.inner.announced.lock();
        for conn in self.inner.conns.lock().values() {
            conn.out.publish(Outbound::Shared(Arc::clone(&payload)));
        }
        announced.push(announce);
    }

    fn ack_closed(&self) -> bool {
        self.inner.ack.is_closed()
    }
}

impl MasterInner {
    /// Place a dispatch on some connection serving `shard` with free
    /// credit. Returns false when no such connection exists right now.
    fn try_send_dispatch(&self, shard: usize, dispatch: DispatchMsg) -> bool {
        let conns = self.conns.lock();
        for conn in conns.values() {
            if conn.serves(shard) && conn.window.try_acquire() {
                conn.send(WireMsg::Dispatch(dispatch));
                return true;
            }
        }
        false
    }

    /// Place a run of dispatches for `shard`, spending window credit in
    /// batch debits and splitting across connections as credit allows.
    /// Sent dispatches are drained from the front of `batch` (delivery
    /// order preserved); whatever found no credit stays behind. Returns
    /// how many were sent. Runs of one travel as plain [`WireMsg::
    /// Dispatch`] frames; longer runs coalesce into one
    /// [`WireMsg::DispatchBatch`] frame per granted connection.
    fn try_send_batch(&self, shard: usize, batch: &mut Vec<DispatchMsg>) -> usize {
        if batch.is_empty() {
            return 0;
        }
        let mut sent = 0;
        {
            let conns = self.conns.lock();
            for conn in conns.values() {
                if sent == batch.len() {
                    break;
                }
                if !conn.serves(shard) {
                    continue;
                }
                let want = (batch.len() - sent) as u32;
                let granted = conn.window.try_acquire_n(want) as usize;
                if granted == 0 {
                    continue;
                }
                let run = &batch[sent..sent + granted];
                conn.send(if granted == 1 {
                    WireMsg::Dispatch(run[0])
                } else {
                    WireMsg::DispatchBatch(run.to_vec())
                });
                sent += granted;
            }
        }
        batch.drain(..sent);
        sent
    }

    /// Retry queued dispatches against current credit, coalescing each
    /// contiguous same-shard run into one batch placement. Called
    /// whenever credit is refunded or a new worker connects.
    fn drain_pending(&self) {
        let mut pending = self.pending.lock();
        let mut i = 0;
        let mut batch = Vec::new();
        while i < pending.len() {
            let shard = pending[i].0;
            let mut j = i + 1;
            while j < pending.len() && pending[j].0 == shard {
                j += 1;
            }
            // Collect no more of the run than the shard's total free
            // credit: a deep backlog drains one refund at a time, and
            // copying the whole run to have try_send_batch grant one
            // dispatch would turn each refund into an O(queue) scan.
            // The estimate is racy only in the safe direction — a
            // concurrent release adds credit the next drain will use.
            let free: usize = {
                let conns = self.conns.lock();
                conns
                    .values()
                    .filter(|c| c.serves(shard))
                    .map(|c| c.window.limit().saturating_sub(c.window.in_flight()) as usize)
                    .sum()
            };
            if free == 0 {
                i = j;
                continue;
            }
            let take = (j - i).min(free);
            batch.clear();
            batch.extend(pending.range(i..i + take).map(|&(_, d)| d));
            let sent = self.try_send_batch(shard, &mut batch);
            pending.drain(i..i + sent);
            // Unsent leftovers mean this shard's connections are out of
            // credit; skip past the run and try the next shard's.
            i += (j - i) - sent;
        }
    }

    /// Hand a read burst's acks to the serve loop in one publish.
    fn publish_acks(&self, acks: &mut Vec<AckMsg>) {
        if !acks.is_empty() {
            self.ack.publish_all(acks.drain(..));
        }
    }

    /// Drop a connection from the routing map and close its out topic.
    /// Deliberately does NOT shut the socket down: a graceful stop parks
    /// the Bye frame on the out topic, and the writer thread must drain
    /// it onto the wire first. The conn loop joins the writer and then
    /// hard-closes the socket itself.
    fn remove_conn(&self, id: u64) {
        if let Some(conn) = self.conns.lock().remove(&id) {
            conn.out.close();
        }
    }
}

/// Accept connections as they arrive: a blocking accept, so a worker's
/// Hello is read at once rather than on the next poll. `stop` wakes it.
fn accept_loop(inner: Arc<MasterInner>, listener: std::net::TcpListener) {
    for stream in listener.incoming() {
        let Ok(stream) = stream else { break };
        if inner.stop.load(Ordering::SeqCst) {
            break;
        }
        let conn_inner = Arc::clone(&inner);
        let _ = std::thread::Builder::new()
            .name("dewe-master-conn".into())
            .spawn(move || serve_conn(conn_inner, stream));
    }
}

/// Handle one inbound connection: handshake, then the per-role frame
/// loop. Any decode error (version skew first) drops the connection.
fn serve_conn(inner: Arc<MasterInner>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    // One frame buffer per connection, reused for every frame it reads.
    let mut frame = Vec::new();
    let hello = match read_frame(&mut reader, inner.max_frame, &mut frame) {
        Ok(true) => match WireMsg::decode(&frame) {
            Ok(msg) => msg,
            Err(e) => {
                eprintln!("dewe-master: rejecting connection: {e}");
                return;
            }
        },
        _ => return,
    };
    match hello {
        WireMsg::Hello { worker, generation, shard, window } => {
            let _ = (worker, generation); // liveness identity arrives via Lifecycle frames
            worker_conn_loop(inner, stream, reader, frame, shard, window);
        }
        WireMsg::SubmitterHello => submitter_conn_loop(inner, reader, frame),
        other => {
            eprintln!("dewe-master: unexpected handshake {other:?}; dropping connection");
        }
    }
}

fn worker_conn_loop(
    inner: Arc<MasterInner>,
    stream: TcpStream,
    mut reader: BufReader<TcpStream>,
    mut frame: Vec<u8>,
    shard: Option<u32>,
    window: u32,
) {
    let conn = Arc::new(Conn {
        out: Topic::default(),
        window: SendWindow::new(window),
        shard,
        stream: match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        },
    });
    let id = inner.next_conn.fetch_add(1, Ordering::Relaxed);

    // Writer thread: drains the out topic onto the socket in bursts. A
    // failed write ends it; the reader notices the dead socket too.
    let writer_conn = Arc::clone(&conn);
    let writer = std::thread::Builder::new()
        .name("dewe-master-conn-writer".into())
        .spawn(move || {
            let _ = pump(&writer_conn.out, &mut BurstWriter::new(stream), || true);
        })
        .expect("spawn conn writer");

    // Registry replay + registration, synchronized against `announce`.
    {
        let announced = inner.announced.lock();
        for a in announced.iter() {
            conn.send(WireMsg::Workflow {
                id: a.id,
                name: a.name.clone(),
                dag: write_workflow(&a.workflow),
            });
        }
        inner.conns.lock().insert(id, Arc::clone(&conn));
    }
    inner.drain_pending();

    // Acks read and credits refunded since the burst was last settled.
    // Both are coalesced per read burst: a flood of acks sitting in the
    // read buffer reaches the serve loop in one `publish_all`, and
    // releases all its credit *before* the pending-queue drain runs, so
    // a deep dispatch backlog leaves as one DispatchBatch frame instead
    // of one frame per ack.
    let mut acks = Vec::new();
    let mut refunds = 0usize;
    while !inner.stop.load(Ordering::Relaxed) {
        if !next_frame(&mut reader, inner.max_frame, &mut frame) {
            break;
        }
        match WireMsg::decode(&frame) {
            Ok(WireMsg::Ack(ack)) => {
                // Terminal acks settle a dispatch: refund the credit
                // before the serve loop even sees the ack.
                if matches!(ack.kind, AckKind::Completed | AckKind::Failed) {
                    conn.window.release();
                    refunds += 1;
                }
                acks.push(ack);
            }
            Ok(WireMsg::Lifecycle(msg)) => {
                // Acks read before a lifecycle frame stay ahead of it.
                inner.publish_acks(&mut acks);
                inner.lifecycle.publish(msg);
            }
            Ok(WireMsg::Return(d)) => {
                // A stopping worker hands back an unstarted checkout:
                // refund and redeliver to whoever has credit.
                conn.window.release();
                refunds += 1;
                let shard = conn.shard.unwrap_or(0) as usize;
                if !inner.try_send_dispatch(shard, d) {
                    inner.pending.lock().push_back((shard, d));
                }
            }
            Ok(other) => {
                eprintln!("dewe-master: unexpected worker frame {other:?}; dropping connection");
                break;
            }
            Err(e) => {
                eprintln!("dewe-master: bad worker frame: {e}; dropping connection");
                break;
            }
        }
        // Settle once the read buffer empties (the burst is over and the
        // next read would block) — or every SETTLE_EVERY acks, so a
        // sustained flood cannot starve the serve loop or the pending
        // queue indefinitely.
        if reader.buffer().is_empty() || acks.len() >= SETTLE_EVERY || refunds >= SETTLE_EVERY {
            inner.publish_acks(&mut acks);
            if refunds > 0 {
                inner.drain_pending();
                refunds = 0;
            }
        }
    }
    inner.publish_acks(&mut acks);
    inner.remove_conn(id);
    if refunds > 0 {
        // The socket closed mid-burst (a stopping worker sends its
        // Returns and hangs up): redeliver what it handed back now that
        // its connection no longer competes for the credit.
        inner.drain_pending();
    }
    // Let the writer flush whatever is still queued — on a graceful stop
    // that includes the Bye telling the worker's link not to reconnect —
    // before hard-closing the socket. The writer cannot hang: the out
    // topic is closed (remove_conn above, or the stop path), so `pull`
    // returns None once the queue drains, and a dead peer fails the
    // write immediately.
    let _ = writer.join();
    let _ = conn.stream.shutdown(std::net::Shutdown::Both);
}

fn submitter_conn_loop(
    inner: Arc<MasterInner>,
    mut reader: BufReader<TcpStream>,
    mut frame: Vec<u8>,
) {
    while !inner.stop.load(Ordering::Relaxed) {
        if !next_frame(&mut reader, inner.max_frame, &mut frame) {
            break;
        }
        match WireMsg::decode(&frame) {
            Ok(WireMsg::Submit { name, dag }) => match parse_workflow(&dag) {
                Ok(wf) => {
                    inner.submission.publish(SubmissionMsg { name, workflow: Arc::new(wf) });
                }
                Err(e) => eprintln!("dewe-master: rejecting submission {name:?}: {e}"),
            },
            Ok(other) => {
                eprintln!("dewe-master: unexpected submitter frame {other:?}; dropping");
                break;
            }
            Err(e) => {
                eprintln!("dewe-master: bad submitter frame: {e}; dropping connection");
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// Options for [`TcpWorkerLink::connect`].
#[derive(Debug, Clone)]
pub struct TcpWorkerOptions {
    /// Worker identity sent in the Hello (informational; liveness
    /// identity travels in Lifecycle frames).
    pub worker_id: u32,
    /// Worker incarnation sent in the Hello.
    pub generation: u32,
    /// Shard pin offered to the master; `None` serves every shard.
    pub shard: Option<u32>,
    /// Dispatch window (unsettled-dispatch credit) offered to the
    /// master. Sensible default: slots × small factor.
    pub window: u32,
    /// Keep reconnecting (with `retry_interval` waits) when the master
    /// is unreachable or the connection drops — rides out a master
    /// restart. `false` gives up after the first failure.
    pub reconnect: bool,
    /// Delay between reconnect attempts.
    pub retry_interval: Duration,
    /// Maximum accepted frame size.
    pub max_frame: usize,
}

impl Default for TcpWorkerOptions {
    fn default() -> Self {
        Self {
            worker_id: 0,
            generation: 0,
            shard: None,
            window: 8,
            reconnect: true,
            retry_interval: Duration::from_millis(100),
            max_frame: DEFAULT_MAX_FRAME,
        }
    }
}

struct WorkerInner {
    addr: SocketAddr,
    opts: TcpWorkerOptions,
    registry: Registry,
    /// Dispatches delivered by the master, pulled by the slot loops.
    dispatch_in: Topic<DispatchMsg>,
    /// Messages to send; survives reconnects, so acks and heartbeats
    /// produced during a master outage are delivered after failover.
    outbound: Topic<Outbound>,
    /// Whole frames a failed burst did not deliver. The next connection
    /// sends them first, ahead of anything published since, so the
    /// master sees this worker's messages in publish order.
    unsent: Mutex<Vec<u8>>,
    stop: AtomicBool,
    /// The master said Bye: don't reconnect, the ensemble is done.
    bye: AtomicBool,
    /// Current socket, for unblocking the reader on close.
    current: Mutex<Option<TcpStream>>,
    supervisor: Mutex<Option<JoinHandle<()>>>,
}

/// A worker daemon's connection to a remote master, with reconnect. The
/// [`WorkerTransport`] the standard worker slot/heartbeat loops drive.
#[derive(Clone)]
pub struct TcpWorkerLink {
    inner: Arc<WorkerInner>,
}

impl TcpWorkerLink {
    /// Connect to the master at `addr`, mirroring announced workflows
    /// into `registry`. Returns immediately; the connection (and any
    /// reconnects) are managed by a background thread. Fails only if
    /// `addr` does not resolve.
    pub fn connect(
        addr: impl ToSocketAddrs,
        registry: Registry,
        opts: TcpWorkerOptions,
    ) -> io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "address resolves empty"))?;
        let inner = Arc::new(WorkerInner {
            addr,
            opts,
            registry,
            dispatch_in: Topic::default(),
            outbound: Topic::default(),
            unsent: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            bye: AtomicBool::new(false),
            current: Mutex::new(None),
            supervisor: Mutex::new(None),
        });
        let sup_inner = Arc::clone(&inner);
        let handle = std::thread::Builder::new()
            .name("dewe-worker-link".into())
            .spawn(move || supervisor_loop(sup_inner))
            .expect("spawn worker link thread");
        *inner.supervisor.lock() = Some(handle);
        Ok(Self { inner })
    }

    /// True once the master announced completion ([`WireMsg::Bye`]).
    pub fn master_said_bye(&self) -> bool {
        self.inner.bye.load(Ordering::Relaxed)
    }

    /// Tear the link down: stop reconnecting, close the socket and the
    /// local topics (releasing slot loops), and join the supervisor.
    pub fn close(&self) {
        let inner = &self.inner;
        if inner.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(s) = inner.current.lock().as_ref() {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        inner.dispatch_in.close();
        inner.outbound.close();
        if let Some(t) = inner.supervisor.lock().take() {
            let _ = t.join();
        }
    }
}

impl WorkerTransport for TcpWorkerLink {
    type Dispatch = DispatchMsg;
    type Ack = AckMsg;
    type Lifecycle = LifecycleMsg;

    fn pull_dispatch(&self, timeout: Duration) -> Option<DispatchMsg> {
        self.inner.dispatch_in.pull_timeout(timeout)
    }

    fn dispatch_closed(&self) -> bool {
        self.inner.dispatch_in.is_closed()
    }

    fn redeliver(&self, dispatch: DispatchMsg) {
        // Over the wire the checkout goes back to the master, which
        // refunds the window credit and redelivers elsewhere.
        self.inner.outbound.publish(Outbound::Msg(WireMsg::Return(dispatch)));
    }

    fn publish_ack(&self, ack: AckMsg) {
        self.inner.outbound.publish(Outbound::Msg(WireMsg::Ack(ack)));
    }

    fn publish_lifecycle(&self, msg: LifecycleMsg) {
        self.inner.outbound.publish(Outbound::Msg(WireMsg::Lifecycle(msg)));
    }
}

/// Connect/reconnect loop: one live connection at a time, with the
/// reader on this thread and a writer thread per connection.
fn supervisor_loop(inner: Arc<WorkerInner>) {
    let mut first_attempt = true;
    while !inner.stop.load(Ordering::Relaxed) && !inner.bye.load(Ordering::Relaxed) {
        if !first_attempt && !inner.opts.reconnect {
            break;
        }
        let stream = match TcpStream::connect_timeout(&inner.addr, Duration::from_secs(2)) {
            Ok(s) => s,
            Err(_) => {
                first_attempt = false;
                if !inner.opts.reconnect {
                    break;
                }
                std::thread::sleep(inner.opts.retry_interval);
                continue;
            }
        };
        first_attempt = false;
        let _ = stream.set_nodelay(true);
        run_connection(&inner, stream);
        if inner.opts.reconnect && !inner.stop.load(Ordering::Relaxed) {
            std::thread::sleep(inner.opts.retry_interval);
        }
    }
    // No more deliveries are coming: release blocked slot loops.
    inner.dispatch_in.close();
}

fn run_connection(inner: &Arc<WorkerInner>, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else { return };
    let Ok(write_half) = stream.try_clone() else { return };
    *inner.current.lock() = Some(stream);

    // Handshake, then hand the socket to the writer thread.
    let mut hello = Vec::new();
    push_frame(&mut hello, |buf| {
        WireMsg::Hello {
            worker: inner.opts.worker_id,
            generation: inner.opts.generation,
            shard: inner.opts.shard,
            window: inner.opts.window,
        }
        .encode_into(buf)
    });
    let conn_dead = Arc::new(AtomicBool::new(false));
    let writer = {
        let inner = Arc::clone(inner);
        let dead = Arc::clone(&conn_dead);
        std::thread::Builder::new()
            .name("dewe-worker-link-writer".into())
            .spawn(move || {
                if (&write_half).write_all(&hello).is_err() {
                    dead.store(true, Ordering::Relaxed);
                    return;
                }
                // Acks produced during a master outage wait in the
                // outbound topic; frames a failed burst did not deliver
                // wait in `unsent` and go out first.
                let carried = std::mem::take(&mut *inner.unsent.lock());
                let mut w = BurstWriter::resume(write_half, carried);
                if pump(&inner.outbound, &mut w, || !dead.load(Ordering::Relaxed)).is_err() {
                    dead.store(true, Ordering::Relaxed);
                }
                *inner.unsent.lock() = w.into_unsent();
            })
            .expect("spawn link writer")
    };

    let mut reader = BufReader::new(read_half);
    let mut frame = Vec::new();
    while next_frame(&mut reader, inner.opts.max_frame, &mut frame) {
        match WireMsg::decode(&frame) {
            Ok(WireMsg::Workflow { id, name, dag }) => match parse_workflow(&dag) {
                Ok(wf) => {
                    // Dense-insert guard: replays after a reconnect (the
                    // master resends its whole registry) are skipped.
                    if id.index() == inner.registry.len() {
                        inner.registry.insert(id, Arc::new(wf));
                    }
                    let _ = name;
                }
                Err(e) => eprintln!("dewe-worker: bad workflow {id:?} from master: {e}"),
            },
            Ok(WireMsg::Dispatch(d)) => inner.dispatch_in.publish(d),
            // Explode in order, in one publish: the slot loops pull
            // per-job exactly as if the run had arrived as single frames.
            Ok(WireMsg::DispatchBatch(batch)) => inner.dispatch_in.publish_all(batch),
            Ok(WireMsg::Bye) => {
                inner.bye.store(true, Ordering::Relaxed);
                break;
            }
            Ok(other) => {
                eprintln!("dewe-worker: unexpected frame {other:?}; reconnecting");
                break;
            }
            Err(e) => {
                eprintln!("dewe-worker: bad frame from master: {e}; reconnecting");
                break;
            }
        }
    }
    conn_dead.store(true, Ordering::Relaxed);
    if let Some(s) = inner.current.lock().take() {
        let _ = s.shutdown(std::net::Shutdown::Both);
    }
    let _ = writer.join();
}

// ---------------------------------------------------------------------------
// Submission client
// ---------------------------------------------------------------------------

/// Submit a workflow to a remote master over TCP (the networked
/// `dewectl submit`). Fire-and-forget: the frame is flushed onto a
/// healthy connection; if the master dies before ingesting it, resubmit.
pub fn submit_over_tcp(
    addr: impl ToSocketAddrs,
    name: impl Into<String>,
    workflow: &Workflow,
) -> io::Result<()> {
    let stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    let mut w = BurstWriter::new(stream);
    w.push(|buf| WireMsg::SubmitterHello.encode_into(buf));
    let msg = WireMsg::Submit { name: name.into(), dag: write_workflow(workflow) };
    w.push(|buf| msg.encode_into(buf));
    w.write_burst()
}

// ---------------------------------------------------------------------------
// Workflow spool (master state directory)
// ---------------------------------------------------------------------------

/// Write one announced workflow to `dir/wf-<id>.dag`: the name on the
/// first line, the DAG text (`write_workflow`'s output) after it. Atomic
/// via rename, so a crash mid-write never leaves a torn spool entry.
pub fn spool_workflow(dir: &Path, id: WorkflowId, name: &str, dag: &str) -> io::Result<()> {
    let final_path = dir.join(format!("wf-{:08}.dag", id.0));
    let tmp_path = dir.join(format!(".wf-{:08}.dag.tmp", id.0));
    let mut file = std::fs::File::create(&tmp_path)?;
    file.write_all(name.as_bytes())?;
    file.write_all(b"\n")?;
    file.write_all(dag.as_bytes())?;
    drop(file);
    std::fs::rename(&tmp_path, &final_path)
}

/// Load every spooled workflow from `dir`, sorted by id and verified
/// dense — the registry rebuild for a restarted master process. An
/// empty or missing directory loads nothing (a cold start).
pub fn load_spool(dir: &Path) -> io::Result<Vec<(WorkflowId, String, Arc<Workflow>)>> {
    let mut entries: Vec<(u32, PathBuf)> = Vec::new();
    let read_dir = match std::fs::read_dir(dir) {
        Ok(rd) => rd,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    for entry in read_dir {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(idx) = name.strip_prefix("wf-").and_then(|s| s.strip_suffix(".dag")) else {
            continue;
        };
        let Ok(id) = idx.parse::<u32>() else { continue };
        entries.push((id, entry.path()));
    }
    entries.sort_by_key(|(id, _)| *id);
    let mut out = Vec::with_capacity(entries.len());
    for (i, (id, path)) in entries.iter().enumerate() {
        if *id as usize != i {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("spool is not dense: expected wf-{i:08}, found wf-{id:08}"),
            ));
        }
        let content = std::fs::read_to_string(path)?;
        let (name, dag) = content.split_once('\n').ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: missing name line", path.display()),
            )
        })?;
        let wf = parse_workflow(dag).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("{}: {e}", path.display()))
        })?;
        out.push((WorkflowId(*id), name.to_string(), Arc::new(wf)));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dewe_dag::WorkflowBuilder;
    use proptest::prelude::*;

    fn wf(name: &str, jobs: usize) -> Arc<Workflow> {
        let mut b = WorkflowBuilder::new(name);
        for i in 0..jobs {
            b.job(format!("j{i}"), "t", 1.0).build();
        }
        Arc::new(b.finish().unwrap())
    }

    #[test]
    fn spool_round_trips_and_rejects_sparse() {
        let dir = std::env::temp_dir().join(format!("dewe-spool-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for i in 0..3u32 {
            let dag = write_workflow(&wf(&format!("w{i}"), 2));
            spool_workflow(&dir, WorkflowId(i), &format!("w{i}"), &dag).unwrap();
        }
        let loaded = load_spool(&dir).unwrap();
        assert_eq!(loaded.len(), 3);
        assert_eq!(loaded[1].0, WorkflowId(1));
        assert_eq!(loaded[1].1, "w1");
        assert_eq!(loaded[2].2.job_count(), 2);
        // Punch a hole: a sparse spool is corrupt and must fail loud.
        std::fs::remove_file(dir.join("wf-00000001.dag")).unwrap();
        assert!(load_spool(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_spool_of_missing_dir_is_a_cold_start() {
        let dir = std::env::temp_dir().join("dewe-spool-definitely-missing");
        assert!(load_spool(&dir).unwrap().is_empty());
    }

    #[test]
    fn tcp_link_delivers_dispatches_and_acks() {
        // Transport-level smoke: master endpoint + one worker link, no
        // serve loop — drive the Transport/WorkerTransport traits by hand.
        let master = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
        let registry = Registry::new();
        let link = TcpWorkerLink::connect(
            master.local_addr(),
            registry.clone(),
            TcpWorkerOptions { worker_id: 3, window: 4, ..TcpWorkerOptions::default() },
        )
        .unwrap();

        // Announce, then dispatch: the worker mirror must hold the DAG
        // before the dispatch arrives.
        let workflow = wf("net", 2);
        master.announce(WorkflowAnnounce {
            id: WorkflowId(0),
            name: "net".into(),
            workflow: Arc::clone(&workflow),
        });
        let job = dewe_dag::EnsembleJobId::new(WorkflowId(0), dewe_dag::JobId(1));
        master.publish_dispatch(0, DispatchMsg::new(job, 1));

        let d = link.pull_dispatch(Duration::from_secs(10)).expect("dispatch arrives");
        assert_eq!(d.job, job);
        assert_eq!(registry.len(), 1, "workflow mirrored before dispatch");
        assert_eq!(registry.get(WorkflowId(0)).unwrap().job_count(), 2);

        link.publish_ack(AckMsg::new(job, 3, AckKind::Running, 1));
        link.publish_ack(AckMsg::new(job, 3, AckKind::Completed, 1));
        let a1 = master.pull_ack(Duration::from_secs(10)).expect("running ack");
        assert_eq!(a1.kind, AckKind::Running);
        let a2 = master.pull_ack(Duration::from_secs(10)).expect("completed ack");
        assert_eq!(a2.kind, AckKind::Completed);

        master.shutdown();
        assert!(master.ack_closed());
        link.close();
    }

    #[test]
    fn window_credit_throttles_and_terminal_acks_refund() {
        let master = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
        let registry = Registry::new();
        let link = TcpWorkerLink::connect(
            master.local_addr(),
            registry,
            TcpWorkerOptions { worker_id: 0, window: 1, ..TcpWorkerOptions::default() },
        )
        .unwrap();
        // Wait for the link to register.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while master.worker_conns() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(master.worker_conns(), 1);

        let job = |j: u32| dewe_dag::EnsembleJobId::new(WorkflowId(0), dewe_dag::JobId(j));
        master.publish_dispatch(0, DispatchMsg::new(job(0), 1));
        master.publish_dispatch(0, DispatchMsg::new(job(1), 1));
        let d0 = link.pull_dispatch(Duration::from_secs(10)).expect("first dispatch");
        assert_eq!(d0.job, job(0));
        // Window is 1: the second dispatch is held back until the first
        // settles.
        assert!(link.pull_dispatch(Duration::from_millis(200)).is_none(), "window throttles");
        link.publish_ack(AckMsg::new(job(0), 0, AckKind::Completed, 1));
        let d1 = link.pull_dispatch(Duration::from_secs(10)).expect("second after refund");
        assert_eq!(d1.job, job(1));

        master.shutdown();
        link.close();
    }

    #[test]
    fn dispatch_batch_round_trips_in_order() {
        // publish_dispatch_batch with credit available for the whole run
        // sends one DispatchBatch frame; the worker explodes it back
        // into per-job dispatches in emission order.
        let master = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
        let link = TcpWorkerLink::connect(
            master.local_addr(),
            Registry::new(),
            TcpWorkerOptions { worker_id: 7, window: 8, ..TcpWorkerOptions::default() },
        )
        .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while master.worker_conns() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let job = |j: u32| dewe_dag::EnsembleJobId::new(WorkflowId(0), dewe_dag::JobId(j));
        let mut batch: Vec<DispatchMsg> = (0..5).map(|j| DispatchMsg::new(job(j), 1)).collect();
        master.publish_dispatch_batch(0, &mut batch);
        assert!(batch.is_empty(), "batch publish drains its buffer");
        for j in 0..5 {
            let d = link.pull_dispatch(Duration::from_secs(10)).expect("batched dispatch");
            assert_eq!(d.job, job(j), "in-shard order preserved");
        }
        master.shutdown();
        link.close();
    }

    #[test]
    fn dispatch_batch_splits_at_the_window_and_resumes_on_refund() {
        // A run longer than the worker's window is debited atomically up
        // to the free credit; the overflow parks in pending and flows as
        // terminal acks refund — same semantics as per-job publishes.
        let master = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
        let link = TcpWorkerLink::connect(
            master.local_addr(),
            Registry::new(),
            TcpWorkerOptions { worker_id: 1, window: 2, ..TcpWorkerOptions::default() },
        )
        .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while master.worker_conns() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let job = |j: u32| dewe_dag::EnsembleJobId::new(WorkflowId(0), dewe_dag::JobId(j));
        let mut batch: Vec<DispatchMsg> = (0..4).map(|j| DispatchMsg::new(job(j), 1)).collect();
        master.publish_dispatch_batch(0, &mut batch);
        let d0 = link.pull_dispatch(Duration::from_secs(10)).expect("first of split batch");
        let d1 = link.pull_dispatch(Duration::from_secs(10)).expect("second of split batch");
        assert_eq!((d0.job, d1.job), (job(0), job(1)));
        assert!(
            link.pull_dispatch(Duration::from_millis(200)).is_none(),
            "window of 2 holds the rest back"
        );
        link.publish_ack(AckMsg::new(job(0), 1, AckKind::Completed, 1));
        link.publish_ack(AckMsg::new(job(1), 1, AckKind::Failed, 1));
        let d2 = link.pull_dispatch(Duration::from_secs(10)).expect("third after refund");
        let d3 = link.pull_dispatch(Duration::from_secs(10)).expect("fourth after refund");
        assert_eq!((d2.job, d3.job), (job(2), job(3)));
        master.shutdown();
        link.close();
    }

    #[test]
    fn returned_checkout_is_redelivered() {
        let master = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
        let link = TcpWorkerLink::connect(
            master.local_addr(),
            Registry::new(),
            TcpWorkerOptions::default(),
        )
        .unwrap();
        let job = dewe_dag::EnsembleJobId::new(WorkflowId(0), dewe_dag::JobId(0));
        master.publish_dispatch(0, DispatchMsg::new(job, 1));
        let d = link.pull_dispatch(Duration::from_secs(10)).expect("dispatch");
        // The worker hands it back (kill path) — the master redelivers.
        link.redeliver(d);
        let d2 = link.pull_dispatch(Duration::from_secs(10)).expect("redelivered");
        assert_eq!(d2.job, job);
        master.shutdown();
        link.close();
    }

    #[test]
    fn submit_over_tcp_reaches_the_submission_topic() {
        let master = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
        submit_over_tcp(master.local_addr(), "net-sub", &wf("net-sub", 3)).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let sub = loop {
            if let Some(s) = master.try_pull_submission() {
                break s;
            }
            assert!(std::time::Instant::now() < deadline, "submission never arrived");
            std::thread::sleep(Duration::from_millis(5));
        };
        assert_eq!(sub.name, "net-sub");
        assert_eq!(sub.workflow.job_count(), 3);
        master.shutdown();
    }

    #[test]
    fn worker_link_survives_master_restart_on_same_port() {
        let master = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
        let addr = master.local_addr();
        let registry = Registry::new();
        let link = TcpWorkerLink::connect(
            addr,
            registry.clone(),
            TcpWorkerOptions {
                retry_interval: Duration::from_millis(20),
                ..TcpWorkerOptions::default()
            },
        )
        .unwrap();
        master.announce(WorkflowAnnounce {
            id: WorkflowId(0),
            name: "a".into(),
            workflow: wf("a", 1),
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while registry.is_empty() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(registry.len(), 1);
        // Kill the master endpoint abruptly (no Bye — a crash), then
        // bind a replacement on the same port (SO_REUSEADDR path) and
        // re-announce.
        master.kill();
        let master2 = TcpMaster::bind(addr, TcpMasterOptions::default()).unwrap();
        master2.announce(WorkflowAnnounce {
            id: WorkflowId(0),
            name: "a".into(),
            workflow: wf("a", 1),
        });
        master2.announce(WorkflowAnnounce {
            id: WorkflowId(1),
            name: "b".into(),
            workflow: wf("b", 1),
        });
        // The link reconnects and mirrors the new announcement; the
        // replayed wf-0 is skipped by the dense-insert guard.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while registry.len() < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(registry.len(), 2, "reconnected and mirrored");
        // And an ack published after the restart still arrives.
        let job = dewe_dag::EnsembleJobId::new(WorkflowId(1), dewe_dag::JobId(0));
        link.publish_ack(AckMsg::new(job, 0, AckKind::Completed, 1));
        let ack = master2.pull_ack(Duration::from_secs(10)).expect("ack after failover");
        assert_eq!(ack.job, job);
        master2.shutdown();
        link.close();
    }

    #[test]
    fn acks_across_a_master_restart_arrive_in_publish_order() {
        // The first master takes the Hello and then stops reading, as a
        // wedged process would, until the link's writer blocks mid-burst
        // with acks queued behind it. Killing that master resets the
        // connection under the blocked write. Acks lost in the dead
        // socket's buffers are allowed; reordering is not: the failed
        // burst's unsent frames must reach the restarted master ahead of
        // everything queued after them.
        let wedged = bind_reuse("127.0.0.1:0").unwrap();
        let addr = wedged.local_addr().unwrap();
        let link = TcpWorkerLink::connect(
            addr,
            Registry::new(),
            TcpWorkerOptions {
                retry_interval: Duration::from_millis(20),
                ..TcpWorkerOptions::default()
            },
        )
        .unwrap();
        let (mut conn, _) = wedged.accept().unwrap();
        let mut frame = Vec::new();
        assert!(read_frame(&mut conn, DEFAULT_MAX_FRAME, &mut frame).unwrap(), "hello");

        let job = dewe_dag::EnsembleJobId::new(WorkflowId(0), dewe_dag::JobId(0));
        let mut seq = 0u32;
        let mut publish = |n: u32| {
            for _ in 0..n {
                link.publish_ack(AckMsg::new(job, 0, AckKind::Running, seq));
                seq += 1;
            }
        };
        // Publish until the socket buffers are full: the writer is stuck
        // in a write and the queue behind it stops draining.
        let outbound = &link.inner.outbound;
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        loop {
            publish(4096);
            let queued = outbound.len();
            std::thread::sleep(Duration::from_millis(20));
            if queued > 0 && outbound.len() == queued {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "writer never blocked");
        }
        // Kill: closing with unread data resets the connection.
        drop(conn);
        drop(wedged);
        let master = TcpMaster::bind(addr, TcpMasterOptions::default()).unwrap();
        publish(100);
        let last = seq - 1;

        let mut seqs = Vec::new();
        while seqs.last() != Some(&last) {
            let ack = master.pull_ack(Duration::from_secs(10)).expect("acks after restart");
            seqs.push(ack.attempt);
        }
        if let Some(w) = seqs.windows(2).find(|w| w[0] >= w[1]) {
            panic!("ack {} arrived after ack {}", w[1], w[0]);
        }
        master.shutdown();
        link.close();
    }

    /// A stream that takes at most `chunk` bytes per write call.
    struct Trickle {
        out: Vec<u8>,
        chunk: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.chunk);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn outbound() -> impl Strategy<Value = Outbound> {
        let job = || {
            (0u32..64, 0u32..10_000)
                .prop_map(|(w, j)| dewe_dag::EnsembleJobId::new(WorkflowId(w), dewe_dag::JobId(j)))
        };
        let dispatch = move || (job(), 1u32..4).prop_map(|(j, a)| DispatchMsg::new(j, a));
        prop_oneof![
            dispatch().prop_map(|d| Outbound::Msg(WireMsg::Dispatch(d))),
            prop::collection::vec(dispatch(), 0..300)
                .prop_map(|b| Outbound::Msg(WireMsg::DispatchBatch(b))),
            (job(), 0u32..4, 1u32..4).prop_map(|(j, w, a)| {
                Outbound::Msg(WireMsg::Ack(AckMsg::new(j, w, AckKind::Completed, a)))
            }),
            dispatch().prop_map(|d| Outbound::Msg(WireMsg::Return(d))),
            // Announcements straddle BURST_BYTES, forcing mid-queue writes.
            (0u32..64, 0usize..BURST_BYTES + BURST_BYTES / 2).prop_map(|(id, n)| {
                let dag = "x".repeat(n);
                let msg = WireMsg::Workflow { id: WorkflowId(id), name: "w".into(), dag };
                Outbound::Shared(msg.encode().into())
            }),
            Just(WireMsg::Bye).prop_map(Outbound::Msg),
        ]
    }

    #[test]
    fn reader_frame_buffer_gives_back_a_large_frames_capacity() {
        let mut stream = Vec::new();
        push_frame(&mut stream, |b| b.resize(b.len() + 4 * FRAME_RETAIN, 1));
        push_frame(&mut stream, |b| b.push(2));
        let mut r = stream.as_slice();
        let mut frame = Vec::new();
        assert!(next_frame(&mut r, DEFAULT_MAX_FRAME, &mut frame));
        assert_eq!(frame.len(), 4 * FRAME_RETAIN);
        assert!(next_frame(&mut r, DEFAULT_MAX_FRAME, &mut frame));
        assert_eq!(frame, [2]);
        assert!(frame.capacity() < 4 * FRAME_RETAIN, "capacity {}", frame.capacity());
        assert!(!next_frame(&mut r, DEFAULT_MAX_FRAME, &mut frame), "clean end of stream");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn writer_stream_is_per_message_framing(
            msgs in prop::collection::vec(outbound(), 0..40),
            chunk in 1usize..100_000,
        ) {
            // The connection writer's bytes must equal each message's
            // payload behind its own length prefix, in publish order —
            // the stream a per-frame writer produced.
            let out = Topic::new();
            let mut expected = Vec::new();
            for msg in msgs {
                let mut payload = Vec::new();
                msg.encode_into(&mut payload);
                expected.extend_from_slice(&(payload.len() as u32).to_be_bytes());
                expected.extend_from_slice(&payload);
                out.publish(msg);
            }
            out.close();
            let mut sink = Trickle { out: Vec::new(), chunk };
            pump(&out, &mut BurstWriter::new(&mut sink), || true).unwrap();
            prop_assert_eq!(sink.out, expected);
        }
    }

    #[test]
    fn version_skew_drops_the_connection_loudly() {
        use std::io::Write as _;
        let master = TcpMaster::bind("127.0.0.1:0", TcpMasterOptions::default()).unwrap();
        let mut stream = TcpStream::connect(master.local_addr()).unwrap();
        // A "future protocol" hello: bumped version byte.
        let mut frame =
            WireMsg::Hello { worker: 0, generation: 0, shard: None, window: 1 }.encode();
        frame[0] = crate::protocol::PROTOCOL_VERSION + 1;
        let mut buf = Vec::new();
        push_frame(&mut buf, |b| b.extend_from_slice(&frame));
        stream.write_all(&buf).unwrap();
        stream.flush().unwrap();
        // The master must close the connection without registering it.
        use std::io::Read as _;
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut probe = [0u8; 1];
        match stream.read(&mut probe) {
            Ok(0) => {} // EOF: dropped, as required
            Ok(_) => panic!("master should not talk to a version-skewed peer"),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                panic!("master kept a version-skewed connection open")
            }
            Err(_) => {} // reset: dropped, as required
        }
        assert_eq!(master.worker_conns(), 0);
        master.shutdown();
    }
}
