//! Fixture wire protocol — the defective tree.
//!
//! PLANTED (panic-reachability #1): `decode` is a wire entry point and
//! calls [`util::header_tag`], which unwraps on truncated frames — a
//! one-byte hostile frame panics the worker.

use std::io::Read;

pub enum Frame {
    Ping,
    Data(u8),
}

pub enum WireError {
    UnknownTag(u8),
}

pub fn decode(buf: &[u8]) -> Result<Frame, WireError> {
    let tag = util::header_tag(buf);
    body_for(tag, buf)
}

fn body_for(tag: u8, _buf: &[u8]) -> Result<Frame, WireError> {
    match tag {
        0 => Ok(Frame::Ping),
        1 => Ok(Frame::Data(tag)),
        other => Err(WireError::UnknownTag(other)),
    }
}

pub fn read_frame(r: &mut impl Read) -> Frame {
    let mut hdr = [0u8; 2];
    if r.read_exact(&mut hdr).is_err() {
        return Frame::Ping;
    }
    match decode(&hdr) {
        Ok(f) => f,
        Err(_) => Frame::Ping,
    }
}
