//! Frozen hostile-frame corpus replay (regression gate).
//!
//! Every `.bin` under `tests/corpus/` is a raw client byte stream
//! (`[len: u32 LE][body…]`) that once probed a distinct failure mode
//! of the framing layer or the body decoders. The bytes are committed
//! verbatim so the exact historical inputs stay in the gate forever:
//! each must keep failing with a *typed* error — never a panic, never
//! an unbounded allocation, and never a silent accept.
//!
//! The structure-aware enumeration is `wcds-analyze check`'s totality engine;
//! this test is the frozen complement (DESIGN.md §9).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::{self, Cursor};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use wcds_service::protocol::{read_frame, FrameDecoder, FrameRead, Request, Response, WireError};

/// What a corpus entry must keep doing when replayed.
enum Expect {
    /// `read_frame` itself rejects the stream with this error kind.
    FrameErr(io::ErrorKind),
    /// The frame is read whole but both decoders reject the body.
    BodyRejected,
}

/// The frozen corpus: file name → required outcome. Adding a file to
/// the directory without listing it here fails the inventory test, so
/// the corpus cannot silently rot.
const CORPUS: &[(&str, Expect)] = &[
    // stream-level hostility
    ("eof_mid_frame.bin", Expect::FrameErr(io::ErrorKind::UnexpectedEof)),
    ("oversize_len.bin", Expect::FrameErr(io::ErrorKind::InvalidData)),
    ("oversize_len_boundary.bin", Expect::FrameErr(io::ErrorKind::InvalidData)),
    // body-level hostility
    ("empty_frame.bin", Expect::BodyRejected),
    ("badversion.bin", Expect::BodyRejected),
    ("badtag.bin", Expect::BodyRejected),
    ("trunc_create_name.bin", Expect::BodyRejected),
    ("hostile_string_len.bin", Expect::BodyRejected),
    ("hostile_count_routed.bin", Expect::BodyRejected),
    ("nonutf8_name.bin", Expect::BodyRejected),
    ("trailing_bytes.bin", Expect::BodyRejected),
    ("mutation_badtag.bin", Expect::BodyRejected),
];

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

#[test]
fn every_corpus_file_is_listed_and_vice_versa() {
    let on_disk: Vec<String> = std::fs::read_dir(corpus_dir())
        .expect("corpus directory present")
        .map(|e| e.expect("corpus entry readable").file_name().into_string().unwrap())
        .collect();
    for (name, _) in CORPUS {
        assert!(on_disk.iter().any(|f| f == name), "corpus file {name} missing from disk");
    }
    for f in &on_disk {
        assert!(
            CORPUS.iter().any(|(name, _)| name == f),
            "corpus file {f} on disk but not replayed — add it to CORPUS"
        );
    }
}

/// The event-loop server frames with [`FrameDecoder`], not
/// [`read_frame`], so the frozen corpus must hold against it too — and
/// against every adversarial delivery pattern: byte-by-byte, small
/// prime-sized chunks (so length prefixes straddle reads), and one
/// coalesced burst. The incremental decoder must agree with the
/// blocking reader on every file: same frame bytes out, or the same
/// class of typed rejection, regardless of how the stream is split.
#[test]
fn incremental_framing_survives_the_corpus_under_any_chunking() {
    for &chunk in &[1usize, 2, 3, 7, usize::MAX] {
        for (name, expect) in CORPUS {
            let bytes = std::fs::read(corpus_dir().join(name))
                .unwrap_or_else(|e| panic!("{name}: unreadable: {e}"));
            let mut dec = FrameDecoder::new();
            let mut frames: Vec<Vec<u8>> = Vec::new();
            let mut err: Option<WireError> = None;
            'feed: for piece in bytes.chunks(chunk.min(bytes.len().max(1))) {
                dec.feed(piece);
                loop {
                    let step = catch_unwind(AssertUnwindSafe(|| dec.next_frame()))
                        .unwrap_or_else(|_| panic!("{name}/{chunk}: next_frame PANICKED"));
                    match step {
                        Ok(Some(frame)) => frames.push(frame),
                        Ok(None) => break,
                        Err(e) => {
                            err = Some(e);
                            break 'feed;
                        }
                    }
                }
            }
            match expect {
                // a truncated stream yields no frame and no error —
                // the decoder just reports an unfinished frame, which
                // the event loop's stall sweep turns into a drop
                Expect::FrameErr(io::ErrorKind::UnexpectedEof) => {
                    assert!(err.is_none(), "{name}/{chunk}: unexpected {err:?}");
                    assert!(frames.is_empty(), "{name}/{chunk}: yielded a partial frame");
                    assert!(dec.mid_frame(), "{name}/{chunk}: truncation went unnoticed");
                }
                // a hostile length prefix must be rejected before any
                // body byte is buffered, whatever the chunking
                Expect::FrameErr(_) => {
                    assert!(
                        matches!(err, Some(WireError::FrameTooLarge(_))),
                        "{name}/{chunk}: expected FrameTooLarge, got {err:?} / {frames:?}"
                    );
                }
                // hostile bodies still frame correctly: exactly the
                // bytes read_frame sees, handed to the same decoders
                Expect::BodyRejected => {
                    assert!(err.is_none(), "{name}/{chunk}: framing error {err:?}");
                    assert_eq!(frames.len(), 1, "{name}/{chunk}: frame count");
                    let whole = match read_frame(&mut Cursor::new(&bytes)) {
                        Ok(FrameRead::Frame(b)) => b,
                        other => panic!("{name}: read_frame disagrees: {other:?}"),
                    };
                    assert_eq!(frames.first(), Some(&whole), "{name}/{chunk}: body bytes");
                }
            }
        }
    }
}

#[test]
fn replaying_the_corpus_yields_typed_errors_never_panics() {
    for (name, expect) in CORPUS {
        let bytes = std::fs::read(corpus_dir().join(name))
            .unwrap_or_else(|e| panic!("{name}: unreadable: {e}"));
        let read = catch_unwind(AssertUnwindSafe(|| read_frame(&mut Cursor::new(&bytes))))
            .unwrap_or_else(|_| panic!("{name}: read_frame PANICKED"));
        match expect {
            Expect::FrameErr(kind) => {
                let err = read.expect_err(&format!("{name}: stream must be rejected"));
                assert_eq!(err.kind(), *kind, "{name}: wrong error kind: {err}");
            }
            Expect::BodyRejected => {
                let body = match read.unwrap_or_else(|e| panic!("{name}: frame error: {e}")) {
                    FrameRead::Frame(b) => b,
                    other => panic!("{name}: expected a whole frame, got {other:?}"),
                };
                let req = catch_unwind(AssertUnwindSafe(|| Request::decode(&body)))
                    .unwrap_or_else(|_| panic!("{name}: Request::decode PANICKED"));
                let resp = catch_unwind(AssertUnwindSafe(|| Response::decode(&body)))
                    .unwrap_or_else(|_| panic!("{name}: Response::decode PANICKED"));
                assert!(req.is_err(), "{name}: request decoder accepted hostile bytes");
                assert!(resp.is_err(), "{name}: response decoder accepted hostile bytes");
            }
        }
    }
}
