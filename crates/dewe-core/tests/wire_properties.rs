//! Property tests for the TCP wire format: frames written in bursts are
//! byte-identical to per-message framing, and the decoders survive any
//! byte stream — arbitrary, truncated or bit-flipped — without panicking
//! or allocating more than the frame (or the frame cap) can justify.
//!
//! Allocation bounds are measured, not assumed: a counting global
//! allocator records every allocation the test thread makes while a
//! probe is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Write};

use dewe_core::{
    AckKind, AckMsg, DispatchMsg, LifecycleKind, LifecycleMsg, WireMsg, PROTOCOL_VERSION,
};
use dewe_dag::{EnsembleJobId, JobId, WorkflowId};
use dewe_mq::{read_frame, BurstWriter};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Allocation probe
// ---------------------------------------------------------------------------

struct Probe;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    static TOTAL: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            LARGEST.with(|l| l.set(l.get().max(size)));
            TOTAL.with(|t| t.set(t.get() + size));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; `note` only
// touches const-initialized thread-locals and never allocates.
unsafe impl GlobalAlloc for Probe {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Probe = Probe;

/// Run `f` and report the largest single allocation and the total bytes
/// allocated on this thread while it ran.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
    LARGEST.with(|l| l.set(0));
    TOTAL.with(|t| t.set(0));
    ARMED.with(|a| a.set(true));
    let r = f();
    ARMED.with(|a| a.set(false));
    (r, LARGEST.with(Cell::get), TOTAL.with(Cell::get))
}

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// Characters for generated names and DAG text, multi-byte ones included.
const CHARS: [char; 8] = ['a', 'Z', '0', ' ', '\n', '#', 'é', '漢'];

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(0..CHARS.len(), 0..24)
        .prop_map(|ix| ix.into_iter().map(|i| CHARS[i]).collect())
}

fn job() -> impl Strategy<Value = EnsembleJobId> {
    (any::<u32>(), any::<u32>()).prop_map(|(w, j)| EnsembleJobId::new(WorkflowId(w), JobId(j)))
}

fn dispatch() -> impl Strategy<Value = DispatchMsg> {
    (job(), any::<u32>()).prop_map(|(job, attempt)| DispatchMsg::new(job, attempt))
}

fn ack_kind() -> impl Strategy<Value = AckKind> {
    prop_oneof![Just(AckKind::Running), Just(AckKind::Completed), Just(AckKind::Failed)]
}

fn lifecycle_kind() -> impl Strategy<Value = LifecycleKind> {
    prop_oneof![
        Just(LifecycleKind::Register),
        Just(LifecycleKind::Heartbeat),
        Just(LifecycleKind::Drain)
    ]
}

/// Every message type the runtime carries, with arbitrary field values.
fn wire_msg() -> impl Strategy<Value = WireMsg> {
    prop_oneof![
        (any::<u32>(), any::<u32>(), any::<bool>(), any::<u32>(), any::<u32>()).prop_map(
            |(worker, generation, pinned, shard, window)| WireMsg::Hello {
                worker,
                generation,
                shard: pinned.then_some(shard),
                window,
            }
        ),
        Just(WireMsg::SubmitterHello),
        (job(), any::<u32>(), ack_kind(), any::<u32>()).prop_map(|(job, worker, kind, attempt)| {
            WireMsg::Ack(AckMsg::new(job, worker, kind, attempt))
        }),
        (any::<u32>(), any::<u32>(), lifecycle_kind()).prop_map(|(worker, generation, kind)| {
            WireMsg::Lifecycle(LifecycleMsg::new(worker, generation, kind))
        }),
        (text(), text()).prop_map(|(name, dag)| WireMsg::Submit { name, dag }),
        dispatch().prop_map(WireMsg::Return),
        (any::<u32>(), text(), text()).prop_map(|(id, name, dag)| WireMsg::Workflow {
            id: WorkflowId(id),
            name,
            dag
        }),
        dispatch().prop_map(WireMsg::Dispatch),
        prop::collection::vec(dispatch(), 0..20).prop_map(WireMsg::DispatchBatch),
        Just(WireMsg::Bye),
    ]
}

/// Bit flips as (position seed, bit) pairs; positions wrap to the input.
fn flips() -> impl Strategy<Value = Vec<(usize, u8)>> {
    prop::collection::vec((any::<usize>(), 0u8..8), 0..4)
}

fn corrupt(bytes: &mut Vec<u8>, cut: usize, flips: &[(usize, u8)]) {
    bytes.truncate(cut % (bytes.len() + 1));
    if bytes.is_empty() {
        return;
    }
    let len = bytes.len();
    for &(at, bit) in flips {
        bytes[at % len] ^= 1 << bit;
    }
}

/// Per-message framing, written out by hand: the reference stream.
fn framed(msgs: &[WireMsg]) -> Vec<u8> {
    let mut out = Vec::new();
    for msg in msgs {
        let payload = msg.encode();
        out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        out.extend_from_slice(&payload);
    }
    out
}

/// A stream that accepts at most `chunk` bytes per write call.
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

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn messages_round_trip(msg in wire_msg()) {
        let payload = msg.encode();
        prop_assert_eq!(payload[0], PROTOCOL_VERSION);
        prop_assert_eq!(WireMsg::decode(&payload), Ok(msg.clone()));
        let mut appended = vec![0xAB];
        msg.encode_into(&mut appended);
        prop_assert_eq!(&appended[1..], &payload[..], "encode_into appends encode()");
    }

    #[test]
    fn burst_stream_is_per_message_framing(
        msgs in prop::collection::vec(wire_msg(), 0..24),
        burst_ends in prop::collection::vec(any::<bool>(), 24),
        chunk in 1usize..64,
    ) {
        // Bursts end at arbitrary points and the stream takes short
        // writes; the bytes on the wire must not depend on either.
        let mut sink = Trickle { out: Vec::new(), chunk };
        let mut w = BurstWriter::new(&mut sink);
        for (msg, &end) in msgs.iter().zip(&burst_ends) {
            w.push(|buf| msg.encode_into(buf));
            if end {
                w.write_burst().unwrap();
            }
        }
        w.write_burst().unwrap();
        prop_assert_eq!(w.buffered(), 0);
        drop(w);
        prop_assert_eq!(&sink.out, &framed(&msgs));

        // And the reader gives back the same messages.
        let mut r = sink.out.as_slice();
        let mut frame = Vec::new();
        let mut back = Vec::new();
        while read_frame(&mut r, 1 << 20, &mut frame).unwrap() {
            back.push(WireMsg::decode(&frame).unwrap());
        }
        prop_assert_eq!(back, msgs);
    }

    #[test]
    fn decode_of_damaged_frames_is_bounded(
        msg in wire_msg(),
        cut in any::<usize>(),
        flips in flips(),
    ) {
        let mut bytes = msg.encode();
        // Half the cases keep the whole frame, so flips alone get a turn.
        let cut = if cut.is_multiple_of(2) { bytes.len() } else { cut };
        corrupt(&mut bytes, cut, &flips);
        let (_, largest, total) = allocations(|| WireMsg::decode(&bytes));
        let bound = bytes.len() + std::mem::size_of::<DispatchMsg>();
        prop_assert!(largest <= bound, "largest allocation {largest} > {bound}");
        prop_assert!(total <= bound, "allocated {total} bytes decoding {} bytes", bytes.len());
    }

    #[test]
    fn decode_of_arbitrary_bytes_is_bounded(
        versioned in any::<bool>(),
        bytes in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        // With the version byte right, decoding reaches the type parsers.
        let mut bytes = bytes;
        if versioned && !bytes.is_empty() {
            bytes[0] = PROTOCOL_VERSION;
        }
        let (_, largest, total) = allocations(|| WireMsg::decode(&bytes));
        let bound = bytes.len() + std::mem::size_of::<DispatchMsg>();
        prop_assert!(largest <= bound, "largest allocation {largest} > {bound}");
        prop_assert!(total <= bound, "allocated {total} bytes decoding {} bytes", bytes.len());
    }

    #[test]
    fn read_frame_never_allocates_past_the_cap(
        msgs in prop::collection::vec(wire_msg(), 0..8),
        junk in prop::collection::vec(any::<u8>(), 0..16),
        cut in any::<usize>(),
        flips in flips(),
        cap in 64usize..256,
    ) {
        let mut stream = framed(&msgs);
        stream.extend_from_slice(&junk);
        corrupt(&mut stream, cut, &flips);
        let mut r = stream.as_slice();
        let mut frame = Vec::new();
        // Each call consumes at least the 4-byte prefix, so the loop ends.
        for _ in 0..=stream.len() / 4 {
            let (result, largest, _) = allocations(|| read_frame(&mut r, cap, &mut frame));
            prop_assert!(largest <= cap, "allocated {largest} bytes with a {cap}-byte cap");
            prop_assert!(frame.capacity() <= cap);
            match result {
                Ok(true) => {
                    prop_assert!(frame.len() <= cap);
                    let _ = WireMsg::decode(&frame);
                }
                Ok(false) | Err(_) => break,
            }
        }
    }
}
