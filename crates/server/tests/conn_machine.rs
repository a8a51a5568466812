//! Property battery for the event core's connection state machine
//! (PR 9's tentpole witness): arbitrary keep-alive sequences of valid
//! and invalid requests, delivered at arbitrary byte boundaries — down
//! to 1-byte drips — must produce output byte-identical to whole-buffer
//! delivery, dispatch exactly the same requests in the same order, and
//! never regress a stage. The machine is socket-free, so this drives
//! the full protocol surface with no kernel in the loop; `debug_assert`
//! stage-ordering checks inside `ConnMachine` are live in these builds
//! and double as the regression oracle.

use coursenav_server::conn::{ConnMachine, Stage, Step};
use coursenav_server::http::Response;
use proptest::prelude::*;

const MAX_BODY: usize = 1024;
const PATHS: [&str; 4] = ["/v1/healthz", "/v1/explore", "/v1/advise", "/a"];

/// One element of a keep-alive sequence, pre-wire-format.
#[derive(Debug, Clone)]
enum Item {
    /// A well-formed request; `close` sends `connection: close`.
    Valid {
        post: bool,
        path: u8,
        body_len: u8,
        close: bool,
    },
    /// A malformed request line (400, then close).
    Garbage,
    /// A body declaration over the machine's cap (413, then close).
    HugeBody,
    /// Chunked request bodies are unsupported (400, then close).
    Chunked,
    /// Arbitrary bytes, sent verbatim: hostile input the machine must
    /// handle identically however it is split.
    Raw(Vec<u8>),
}

fn arb_item() -> impl Strategy<Value = Item> {
    prop_oneof![
        6 => (any::<bool>(), 0u8..4, 0u8..65, any::<bool>()).prop_map(
            |(post, path, body_len, close)| Item::Valid {
                post,
                path,
                body_len,
                close,
            }
        ),
        1 => Just(Item::Garbage),
        1 => Just(Item::HugeBody),
        1 => Just(Item::Chunked),
        1 => prop::collection::vec(any::<u8>(), 0..64).prop_map(Item::Raw),
    ]
}

/// Serializes a sequence to the raw bytes a peer would send. Items after
/// a closing/invalid one are unreachable on a real connection; they stay
/// in the buffer here precisely to prove the machine never touches them.
fn render(items: &[Item]) -> Vec<u8> {
    let mut raw = Vec::new();
    for item in items {
        match item {
            Item::Valid {
                post,
                path,
                body_len,
                close,
            } => {
                let method = if *post { "POST" } else { "GET" };
                let path = PATHS[*path as usize % PATHS.len()];
                let body = "x".repeat(*body_len as usize);
                raw.extend_from_slice(
                    format!("{method} {path} HTTP/1.1\r\nhost: p\r\n").as_bytes(),
                );
                if *close {
                    raw.extend_from_slice(b"connection: close\r\n");
                }
                if *post {
                    raw.extend_from_slice(format!("content-length: {}\r\n", body.len()).as_bytes());
                }
                raw.extend_from_slice(b"\r\n");
                if *post {
                    raw.extend_from_slice(body.as_bytes());
                }
            }
            Item::Garbage => raw.extend_from_slice(b"NOT AN HTTP REQUEST\r\n\r\n"),
            Item::HugeBody => raw.extend_from_slice(
                format!(
                    "POST /v1/explore HTTP/1.1\r\nhost: p\r\ncontent-length: {}\r\n\r\n",
                    MAX_BODY + 1
                )
                .as_bytes(),
            ),
            Item::Chunked => raw.extend_from_slice(
                b"POST /v1/explore HTTP/1.1\r\nhost: p\r\ntransfer-encoding: chunked\r\n\r\n",
            ),
            Item::Raw(bytes) => raw.extend_from_slice(bytes),
        }
    }
    raw
}

/// What one simulated connection produced, for cross-delivery equality.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    /// Every byte the machine asked the socket to write, in order.
    out: Vec<u8>,
    /// `(path, body length)` of every dispatched request, in order.
    served: Vec<(String, usize)>,
    closed: bool,
}

/// A miniature event loop around one machine: drains output whenever it
/// appears and answers each dispatch with a response derived from the
/// request (so a missed or reordered dispatch shows up as a byte diff).
struct Driver {
    m: ConnMachine,
    outcome: Outcome,
    last_transitions: u64,
}

impl Driver {
    fn new() -> Driver {
        Driver {
            m: ConnMachine::new(MAX_BODY),
            outcome: Outcome {
                out: Vec::new(),
                served: Vec::new(),
                closed: false,
            },
            last_transitions: 0,
        }
    }

    fn drain(&mut self) {
        let pending = self.m.out_pending().to_vec();
        if !pending.is_empty() {
            self.m.consume_out(pending.len());
            self.outcome.out.extend_from_slice(&pending);
        }
    }

    fn check_monotone(&mut self) {
        let now = self.m.transitions();
        assert!(
            now >= self.last_transitions,
            "transition count went backward"
        );
        self.last_transitions = now;
    }

    fn handle(&mut self, mut step: Step) {
        loop {
            self.check_monotone();
            match step {
                Step::Wait => {
                    // Interim output (100 Continue) flushes while reads
                    // continue, exactly like the loop.
                    self.drain();
                    return;
                }
                Step::Dispatch(req) => {
                    let body = format!("{{\"path\":\"{}\",\"body\":{}}}", req.path, req.body.len());
                    let keep = req.keep_alive;
                    self.outcome.served.push((req.path, req.body.len()));
                    self.m.queue_reply(&Response::json(200, body), keep);
                    self.drain();
                    step = self.m.on_out_drained();
                }
                Step::Fail(resp) => {
                    self.m.queue_reply(&resp, false);
                    self.drain();
                    step = self.m.on_out_drained();
                }
                Step::CloseSilent => {
                    self.m.close();
                    self.outcome.closed = true;
                    return;
                }
            }
        }
    }

    fn feed(&mut self, bytes: &[u8]) {
        if self.outcome.closed {
            return;
        }
        let step = self.m.on_bytes(bytes);
        self.handle(step);
    }
}

/// Runs `raw` through a fresh machine, delivering it in chunks whose
/// sizes cycle through `chunks`. Stops early if the connection closes
/// (a real peer's later bytes would never be read).
fn run(raw: &[u8], chunks: &[usize]) -> Outcome {
    let mut driver = Driver::new();
    let mut pos = 0;
    let mut i = 0;
    while pos < raw.len() && !driver.outcome.closed {
        let want = chunks.get(i % chunks.len()).copied().unwrap_or(1).max(1);
        let n = want.min(raw.len() - pos);
        driver.feed(&raw[pos..pos + n]);
        pos += n;
        i += 1;
    }
    driver.outcome
}

proptest! {
    /// The tentpole property: any split of any request sequence produces
    /// the same bytes, the same dispatches, and the same disposition as
    /// whole-buffer delivery.
    #[test]
    fn arbitrary_splits_are_byte_identical_to_whole_buffer(
        items in prop::collection::vec(arb_item(), 1..6),
        chunks in prop::collection::vec(1usize..32, 1..24),
    ) {
        let raw = render(&items);
        let whole = run(&raw, &[raw.len()]);
        let split = run(&raw, &chunks);
        prop_assert_eq!(&split, &whole);
    }

    /// The degenerate delivery — one byte at a time — against longer
    /// keep-alive sequences.
    #[test]
    fn one_byte_drips_are_byte_identical_to_whole_buffer(
        items in prop::collection::vec(arb_item(), 1..5),
    ) {
        let raw = render(&items);
        let whole = run(&raw, &[raw.len()]);
        let dripped = run(&raw, &[1]);
        prop_assert_eq!(&dripped, &whole);
    }

    /// All-valid keep-alive sequences: every request is served (none
    /// swallowed by a close), and the machine parks back in a readable
    /// stage with no partial request left behind — the "no leaked slot"
    /// shape at the machine level.
    #[test]
    fn valid_keepalive_sequences_serve_every_request(
        reqs in prop::collection::vec(
            (any::<bool>(), 0u8..4, 0u8..65),
            1..6,
        ),
        chunks in prop::collection::vec(1usize..16, 1..16),
    ) {
        let items: Vec<Item> = reqs
            .iter()
            .map(|&(post, path, body_len)| Item::Valid {
                post,
                path,
                body_len,
                close: false,
            })
            .collect();
        let raw = render(&items);

        let mut driver = Driver::new();
        let mut pos = 0;
        let mut i = 0;
        while pos < raw.len() {
            let n = chunks[i % chunks.len()].min(raw.len() - pos);
            driver.feed(&raw[pos..pos + n]);
            pos += n;
            i += 1;
        }
        prop_assert_eq!(driver.outcome.served.len(), items.len());
        prop_assert!(!driver.outcome.closed);
        prop_assert_eq!(driver.m.stage(), Stage::Idle);
        prop_assert!(!driver.m.mid_request(), "no partial request parked");
        prop_assert!(!driver.m.wants_write(), "no bytes owed");
    }

    /// A truncated tail (the peer stops mid-request) never dispatches a
    /// phantom request, and an idle timeout at that point is a 408 —
    /// while a timeout on the clean boundary is a silent close (the PR 2
    /// pin, held under arbitrary split + truncation).
    #[test]
    fn truncated_tails_never_dispatch_and_time_out_as_408(
        post in any::<bool>(),
        path in 0u8..4,
        body_len in 1u8..65,
        cut_back in 1usize..8,
        chunks in prop::collection::vec(1usize..8, 1..8),
    ) {
        let items = [Item::Valid { post, path, body_len, close: false }];
        let raw = render(&items);
        let cut = raw.len() - cut_back.min(raw.len() - 1);

        let mut driver = Driver::new();
        let mut pos = 0;
        let mut i = 0;
        while pos < cut {
            let n = chunks[i % chunks.len()].min(cut - pos);
            driver.feed(&raw[pos..pos + n]);
            pos += n;
            i += 1;
        }
        prop_assert!(driver.outcome.served.is_empty(), "phantom dispatch");
        prop_assert!(driver.m.mid_request());
        match driver.m.on_read_timeout() {
            Step::Fail(resp) => prop_assert_eq!(resp.status, 408),
            other => return Err(TestCaseError::fail(format!("expected 408, got {other:?}"))),
        }

        // The same timeout with nothing buffered is silent (PR 2).
        let mut idle = ConnMachine::new(MAX_BODY);
        prop_assert!(matches!(idle.on_read_timeout(), Step::CloseSilent));
    }
}
