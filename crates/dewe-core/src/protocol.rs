//! Messages carried on the three DEWE v2 topics (paper §III.C), plus
//! their versioned wire encoding for the TCP runtime.
//!
//! In-process the structs below travel through `dewe-mq` topics as-is.
//! Over TCP they are wrapped in [`WireMsg`] and serialized into
//! length-prefixed frames (see `dewe_mq::push_frame`/`read_frame`) as
//! `[PROTOCOL_VERSION, message-type, body…]`. Decoding checks the
//! version byte *first*: a frame from an incompatible peer is rejected
//! as [`WireError::Version`] before any body parsing, so mixed-version
//! fleets fail loud and early instead of misinterpreting bytes.
//!
//! The message structs are `#[non_exhaustive]`: future protocol
//! revisions can add fields without breaking downstream constructors,
//! which use the `new` associated functions.

use dewe_dag::{EnsembleJobId, JobId, Workflow, WorkflowId};
use std::sync::Arc;

/// Wire protocol revision. Bump on any change to frame layouts; peers
/// reject frames whose leading version byte differs from their own.
/// Revision 2 added the coalesced [`WireMsg::DispatchBatch`] frame — a
/// v1 worker cannot parse it, so mixed fleets must fail the handshake,
/// not mid-stream.
pub const PROTOCOL_VERSION: u8 = 2;

/// Workflow submission topic payload.
///
/// In the paper this is "the name of the workflow, as well as the path to
/// the related folder on the shared file system"; in-process we carry the
/// parsed DAG directly (the shared-FS folder equivalent). On the wire the
/// DAG travels as its text format ([`WireMsg::Submit`]) and is parsed
/// back at the master.
#[derive(Clone)]
pub struct SubmissionMsg {
    /// Human-readable workflow name.
    pub name: String,
    /// The parsed workflow DAG.
    pub workflow: Arc<Workflow>,
}

impl std::fmt::Debug for SubmissionMsg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubmissionMsg")
            .field("name", &self.name)
            .field("jobs", &self.workflow.job_count())
            .finish()
    }
}

/// Job dispatching topic payload: "meta data about the job (the location of
/// the binary executable with input and output parameters)".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct DispatchMsg {
    /// Which job, in which workflow of the ensemble.
    pub job: EnsembleJobId,
    /// Delivery attempt, starting at 1; incremented by timeout
    /// resubmissions (diagnostic only — any attempt's completion counts).
    pub attempt: u32,
}

impl DispatchMsg {
    /// Dispatch of `job`'s delivery `attempt`.
    pub fn new(job: EnsembleJobId, attempt: u32) -> Self {
        Self { job, attempt }
    }
}

/// Acknowledgment kinds (paper §III.D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckKind {
    /// The worker checked the job out and started executing it.
    Running,
    /// The job finished successfully.
    Completed,
    /// The job's execution failed on the worker (crash, nonzero exit). The
    /// master treats this as an immediate timeout: resubmit.
    Failed,
}

impl AckKind {
    /// Compact wire code, used by the master's write-ahead journal and
    /// the TCP frame encoding.
    pub fn code(self) -> u8 {
        match self {
            AckKind::Running => 0,
            AckKind::Completed => 1,
            AckKind::Failed => 2,
        }
    }

    /// Inverse of [`code`](Self::code); `None` for unknown codes (a
    /// corrupt or truncated journal record or frame).
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(AckKind::Running),
            1 => Some(AckKind::Completed),
            2 => Some(AckKind::Failed),
            _ => None,
        }
    }
}

/// Worker lifecycle announcement kinds (liveness plane).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleKind {
    /// The worker came up (or back up) and wants a lease.
    Register,
    /// Periodic proof of life; renews the lease.
    Heartbeat,
    /// Graceful shutdown announcement: the worker will finish its current
    /// jobs and exit; the master must stop counting on it for new work.
    Drain,
}

impl LifecycleKind {
    /// Compact wire code, used by the master's write-ahead journal and
    /// the TCP frame encoding.
    pub fn code(self) -> u8 {
        match self {
            LifecycleKind::Register => 0,
            LifecycleKind::Heartbeat => 1,
            LifecycleKind::Drain => 2,
        }
    }

    /// Inverse of [`code`](Self::code); `None` for unknown codes.
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(LifecycleKind::Register),
            1 => Some(LifecycleKind::Heartbeat),
            2 => Some(LifecycleKind::Drain),
            _ => None,
        }
    }
}

/// Worker lifecycle topic payload (worker → master).
///
/// `generation` distinguishes incarnations of the same worker id: a
/// restarted worker registers with a higher generation, and the master
/// treats messages from older generations as coming from a zombie.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct LifecycleMsg {
    /// Worker identity (same id space as [`AckMsg::worker`]).
    pub worker: u32,
    /// Incarnation of this worker id, starting at 0.
    pub generation: u32,
    /// What the worker announces.
    pub kind: LifecycleKind,
}

impl LifecycleMsg {
    /// Lifecycle announcement from `worker`'s incarnation `generation`.
    pub fn new(worker: u32, generation: u32, kind: LifecycleKind) -> Self {
        Self { worker, generation, kind }
    }
}

/// Job acknowledgment topic payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct AckMsg {
    /// Which job.
    pub job: EnsembleJobId,
    /// Worker identifier (opaque to the master; the master stays
    /// worker-agnostic by design).
    pub worker: u32,
    /// What happened.
    pub kind: AckKind,
    /// Echo of the dispatch attempt.
    pub attempt: u32,
}

impl AckMsg {
    /// Acknowledgment of `job`'s `attempt` from `worker`.
    pub fn new(job: EnsembleJobId, worker: u32, kind: AckKind, attempt: u32) -> Self {
        Self { job, worker, kind, attempt }
    }
}

/// Workflow announcement (master → workers): the accepted workflow's
/// identity and definition, broadcast so networked workers can mirror
/// the registry — their stand-in for the paper's shared file system.
/// The in-process bus drops these (its workers share the registry).
#[derive(Clone)]
pub struct WorkflowAnnounce {
    /// The dense id the master assigned.
    pub id: WorkflowId,
    /// Human-readable workflow name, echoed from the submission.
    pub name: String,
    /// The parsed workflow DAG.
    pub workflow: Arc<Workflow>,
}

impl std::fmt::Debug for WorkflowAnnounce {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkflowAnnounce")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("jobs", &self.workflow.job_count())
            .finish()
    }
}

/// Decode failure for a TCP frame.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The frame's leading version byte is not [`PROTOCOL_VERSION`]; the
    /// peer speaks a different protocol revision and the connection must
    /// be dropped.
    Version {
        /// The version byte the peer sent.
        got: u8,
    },
    /// The frame ended before its declared contents.
    Truncated,
    /// Unknown message-type byte (within a known version: a corrupt
    /// frame, not a revision skew).
    UnknownType(u8),
    /// A field failed to parse (bad enum code, invalid UTF-8, …).
    BadPayload(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Version { got } => {
                write!(f, "protocol version mismatch: got {got}, want {PROTOCOL_VERSION}")
            }
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::UnknownType(t) => write!(f, "unknown message type 0x{t:02x}"),
            WireError::BadPayload(what) => write!(f, "bad payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

// Message-type bytes. Client → master types live below 0x80,
// master → client types at or above it; the split is purely for
// readability in packet dumps.
const T_HELLO: u8 = 0x01;
const T_SUBMITTER_HELLO: u8 = 0x02;
const T_ACK: u8 = 0x03;
const T_LIFECYCLE: u8 = 0x04;
const T_SUBMIT: u8 = 0x05;
const T_RETURN: u8 = 0x06;
const T_WORKFLOW: u8 = 0x81;
const T_DISPATCH: u8 = 0x82;
const T_BYE: u8 = 0x83;
const T_DISPATCH_BATCH: u8 = 0x84;

/// Every message the TCP runtime carries, in both directions. DAGs
/// travel as their text format (`dewe_dag::write_workflow`), which the
/// receiving side parses back — the wire analogue of the paper's
/// "path to the related folder on the shared file system".
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WireMsg {
    /// Worker handshake: identity, incarnation, optional shard pin, and
    /// the dispatch window (backpressure credit) this worker offers.
    Hello {
        /// Worker identity.
        worker: u32,
        /// Worker incarnation.
        generation: u32,
        /// Shard pin; `None` serves every shard.
        shard: Option<u32>,
        /// Maximum dispatches this connection holds unsettled.
        window: u32,
    },
    /// Submission-client handshake (`dewectl submit`).
    SubmitterHello,
    /// Job acknowledgment (worker → master).
    Ack(AckMsg),
    /// Lifecycle announcement (worker → master).
    Lifecycle(LifecycleMsg),
    /// Workflow submission (submitter → master).
    Submit {
        /// Human-readable workflow name.
        name: String,
        /// The DAG in `dewe-dag` text format.
        dag: String,
    },
    /// A pulled-but-unstarted dispatch handed back by a stopping worker
    /// (worker → master): redeliver it elsewhere, returning the credit.
    Return(DispatchMsg),
    /// Workflow announcement (master → worker): registry mirror entry.
    Workflow {
        /// The dense workflow id.
        id: WorkflowId,
        /// Human-readable workflow name.
        name: String,
        /// The DAG in `dewe-dag` text format.
        dag: String,
    },
    /// Job dispatch (master → worker).
    Dispatch(DispatchMsg),
    /// A run of job dispatches that became eligible in the same master
    /// poll cycle, coalesced into one frame (master → worker). The
    /// worker executes them exactly as if they had arrived as that many
    /// [`WireMsg::Dispatch`] frames in order; the batch spends one
    /// window credit per contained dispatch.
    DispatchBatch(Vec<DispatchMsg>),
    /// The master is done and will close the connection; the worker may
    /// exit instead of reconnecting.
    Bye,
}

impl WireMsg {
    /// Serialize into a fresh frame payload: `[version, type, body…]`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        self.encode_into(&mut out);
        out
    }

    /// Append the frame payload to `out` — [`encode`](Self::encode)
    /// without the allocation. Connection writers call it inside
    /// `dewe_mq::BurstWriter::push`, which puts the length prefix in
    /// front, so a burst of messages encodes straight into one reused
    /// buffer.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(PROTOCOL_VERSION);
        match self {
            WireMsg::Hello { worker, generation, shard, window } => {
                out.push(T_HELLO);
                put_u32(out, *worker);
                put_u32(out, *generation);
                match shard {
                    Some(s) => {
                        out.push(1);
                        put_u32(out, *s);
                    }
                    None => out.push(0),
                }
                put_u32(out, *window);
            }
            WireMsg::SubmitterHello => out.push(T_SUBMITTER_HELLO),
            WireMsg::Ack(ack) => {
                out.push(T_ACK);
                put_u32(out, ack.job.workflow.0);
                put_u32(out, ack.job.job.0);
                put_u32(out, ack.worker);
                out.push(ack.kind.code());
                put_u32(out, ack.attempt);
            }
            WireMsg::Lifecycle(msg) => {
                out.push(T_LIFECYCLE);
                put_u32(out, msg.worker);
                put_u32(out, msg.generation);
                out.push(msg.kind.code());
            }
            WireMsg::Submit { name, dag } => {
                out.push(T_SUBMIT);
                put_str(out, name);
                put_str(out, dag);
            }
            WireMsg::Return(d) => {
                out.push(T_RETURN);
                put_dispatch(out, d);
            }
            WireMsg::Workflow { id, name, dag } => {
                out.push(T_WORKFLOW);
                put_u32(out, id.0);
                put_str(out, name);
                put_str(out, dag);
            }
            WireMsg::Dispatch(d) => {
                out.push(T_DISPATCH);
                put_dispatch(out, d);
            }
            WireMsg::DispatchBatch(batch) => {
                out.push(T_DISPATCH_BATCH);
                out.reserve(4 + batch.len() * 12);
                put_u32(out, u32::try_from(batch.len()).expect("batch exceeds u32 length"));
                for d in batch {
                    put_dispatch(out, d);
                }
            }
            WireMsg::Bye => out.push(T_BYE),
        }
    }

    /// Parse a frame payload. The version byte is checked before
    /// anything else; see [`WireError::Version`].
    pub fn decode(frame: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader { buf: frame, pos: 0 };
        let version = r.u8()?;
        if version != PROTOCOL_VERSION {
            return Err(WireError::Version { got: version });
        }
        let ty = r.u8()?;
        let msg = match ty {
            T_HELLO => {
                let worker = r.u32()?;
                let generation = r.u32()?;
                let shard = match r.u8()? {
                    0 => None,
                    1 => Some(r.u32()?),
                    _ => return Err(WireError::BadPayload("shard flag")),
                };
                let window = r.u32()?;
                WireMsg::Hello { worker, generation, shard, window }
            }
            T_SUBMITTER_HELLO => WireMsg::SubmitterHello,
            T_ACK => {
                let workflow = WorkflowId(r.u32()?);
                let job = JobId(r.u32()?);
                let worker = r.u32()?;
                let kind = AckKind::from_code(r.u8()?).ok_or(WireError::BadPayload("ack kind"))?;
                let attempt = r.u32()?;
                WireMsg::Ack(AckMsg::new(EnsembleJobId::new(workflow, job), worker, kind, attempt))
            }
            T_LIFECYCLE => {
                let worker = r.u32()?;
                let generation = r.u32()?;
                let kind = LifecycleKind::from_code(r.u8()?)
                    .ok_or(WireError::BadPayload("lifecycle kind"))?;
                WireMsg::Lifecycle(LifecycleMsg::new(worker, generation, kind))
            }
            T_SUBMIT => {
                let name = r.string()?;
                let dag = r.string()?;
                WireMsg::Submit { name, dag }
            }
            T_RETURN => WireMsg::Return(r.dispatch()?),
            T_WORKFLOW => {
                let id = WorkflowId(r.u32()?);
                let name = r.string()?;
                let dag = r.string()?;
                WireMsg::Workflow { id, name, dag }
            }
            T_DISPATCH => WireMsg::Dispatch(r.dispatch()?),
            T_DISPATCH_BATCH => {
                let count = r.u32()? as usize;
                // Cap the pre-allocation by what the frame could actually
                // hold (12 bytes per dispatch), so a corrupt count fails
                // as Truncated instead of allocating gigabytes.
                let mut batch = Vec::with_capacity(count.min(r.remaining() / 12 + 1));
                for _ in 0..count {
                    batch.push(r.dispatch()?);
                }
                WireMsg::DispatchBatch(batch)
            }
            T_BYE => WireMsg::Bye,
            other => return Err(WireError::UnknownType(other)),
        };
        Ok(msg)
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, u32::try_from(s.len()).expect("string exceeds u32 length"));
    out.extend_from_slice(s.as_bytes());
}

fn put_dispatch(out: &mut Vec<u8>, d: &DispatchMsg) {
    put_u32(out, d.job.workflow.0);
    put_u32(out, d.job.job.0);
    put_u32(out, d.attempt);
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let end = self.pos.checked_add(4).ok_or(WireError::Truncated)?;
        let bytes = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(u32::from_be_bytes(bytes.try_into().expect("4-byte slice")))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let end = self.pos.checked_add(len).ok_or(WireError::Truncated)?;
        let bytes = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadPayload("utf-8 string"))
    }

    fn dispatch(&mut self) -> Result<DispatchMsg, WireError> {
        let workflow = WorkflowId(self.u32()?);
        let job = JobId(self.u32()?);
        let attempt = self.u32()?;
        Ok(DispatchMsg::new(EnsembleJobId::new(workflow, job), attempt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dewe_dag::WorkflowBuilder;

    #[test]
    fn submission_debug_is_compact() {
        let wf = Arc::new(WorkflowBuilder::new("w").finish().unwrap());
        let m = SubmissionMsg { name: "w".into(), workflow: wf };
        let s = format!("{m:?}");
        assert!(s.contains("jobs: 0"));
    }

    #[test]
    fn dispatch_is_small_and_copyable() {
        // Dispatch messages flood the queue at ensemble scale (1.7M jobs);
        // keep them trivially copyable and small.
        assert!(std::mem::size_of::<DispatchMsg>() <= 16);
        let d = DispatchMsg::new(EnsembleJobId::new(WorkflowId(1), JobId(2)), 1);
        let d2 = d;
        assert_eq!(d, d2);
    }

    #[test]
    fn ack_kinds_are_distinct() {
        assert_ne!(AckKind::Running, AckKind::Completed);
        assert_ne!(AckKind::Completed, AckKind::Failed);
    }

    #[test]
    fn lifecycle_codes_round_trip() {
        for kind in [LifecycleKind::Register, LifecycleKind::Heartbeat, LifecycleKind::Drain] {
            assert_eq!(LifecycleKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(LifecycleKind::from_code(9), None);
    }

    #[test]
    fn wire_messages_round_trip() {
        let job = EnsembleJobId::new(WorkflowId(7), JobId(11));
        let msgs = vec![
            WireMsg::Hello { worker: 3, generation: 2, shard: Some(1), window: 64 },
            WireMsg::Hello { worker: 0, generation: 0, shard: None, window: 1 },
            WireMsg::SubmitterHello,
            WireMsg::Ack(AckMsg::new(job, 3, AckKind::Completed, 2)),
            WireMsg::Lifecycle(LifecycleMsg::new(3, 2, LifecycleKind::Heartbeat)),
            WireMsg::Submit { name: "montage".into(), dag: "# dag text".into() },
            WireMsg::Return(DispatchMsg::new(job, 4)),
            WireMsg::Workflow { id: WorkflowId(9), name: "m".into(), dag: "# dag".into() },
            WireMsg::Dispatch(DispatchMsg::new(job, 1)),
            WireMsg::DispatchBatch(vec![
                DispatchMsg::new(job, 1),
                DispatchMsg::new(EnsembleJobId::new(WorkflowId(7), JobId(12)), 3),
            ]),
            WireMsg::DispatchBatch(Vec::new()),
            WireMsg::Bye,
        ];
        for msg in msgs {
            let bytes = msg.encode();
            assert_eq!(bytes[0], PROTOCOL_VERSION, "version byte leads every frame");
            assert_eq!(WireMsg::decode(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn unknown_version_frames_are_rejected_before_parsing() {
        // The compatibility story: a frame from a future (or corrupt)
        // protocol revision must be refused by the version byte alone,
        // even when the rest of the frame is garbage the body parsers
        // would choke on.
        let mut bytes = WireMsg::Bye.encode();
        bytes[0] = PROTOCOL_VERSION + 1;
        assert_eq!(WireMsg::decode(&bytes), Err(WireError::Version { got: PROTOCOL_VERSION + 1 }));
        let garbage = [0xFFu8, 0xAA, 0xBB];
        assert_eq!(WireMsg::decode(&garbage), Err(WireError::Version { got: 0xFF }));
        // An empty frame is truncated, not a version skew.
        assert_eq!(WireMsg::decode(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn corrupt_frames_fail_loud_within_a_known_version() {
        // Unknown type byte.
        assert_eq!(WireMsg::decode(&[PROTOCOL_VERSION, 0x7F]), Err(WireError::UnknownType(0x7F)));
        // Truncated body.
        let bytes =
            WireMsg::Dispatch(DispatchMsg::new(EnsembleJobId::new(WorkflowId(1), JobId(2)), 1))
                .encode();
        assert_eq!(WireMsg::decode(&bytes[..bytes.len() - 1]), Err(WireError::Truncated));
        // Bad enum code.
        let mut ack = WireMsg::Ack(AckMsg::new(
            EnsembleJobId::new(WorkflowId(0), JobId(0)),
            0,
            AckKind::Running,
            1,
        ))
        .encode();
        let kind_at = ack.len() - 5; // kind byte sits before the trailing attempt u32
        ack[kind_at] = 9;
        assert_eq!(WireMsg::decode(&ack), Err(WireError::BadPayload("ack kind")));
    }

    #[test]
    fn dispatch_batch_with_corrupt_count_fails_without_allocating() {
        // A frame claiming u32::MAX dispatches but carrying two must be
        // rejected as Truncated — and must not pre-allocate for the lie.
        let job = EnsembleJobId::new(WorkflowId(1), JobId(2));
        let mut bytes =
            WireMsg::DispatchBatch(vec![DispatchMsg::new(job, 1), DispatchMsg::new(job, 2)])
                .encode();
        bytes[2..6].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(WireMsg::decode(&bytes), Err(WireError::Truncated));
    }

    #[test]
    fn workflow_announce_debug_is_compact() {
        let wf = Arc::new(WorkflowBuilder::new("w").finish().unwrap());
        let a = WorkflowAnnounce { id: WorkflowId(3), name: "w".into(), workflow: wf };
        let s = format!("{a:?}");
        assert!(s.contains("jobs: 0"), "{s}");
    }
}
