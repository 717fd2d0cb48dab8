//! A compact binary codec for [`Trace`]s.
//!
//! Workload generation is deterministic but not free (ground-truth
//! bookkeeping walks a byte-granular last-writer map); long experiment
//! campaigns can encode each generated trace once and reload it from disk.
//! The format is self-contained little-endian with a magic/version header —
//! no external serialisation dependency.

use std::io::{self, Read, Write};

use mascot::history::BranchKind;
use mascot::prediction::BypassClass;
use mascot_snapshot::{SnapError, SnapReader};

use crate::uop::{Trace, TraceDep, Uop, UopKind};

const MAGIC: &[u8; 4] = b"MTRC";
const VERSION: u8 = 1;
const NO_REG: u8 = 0xff;

/// Errors produced while decoding a trace.
#[derive(Debug)]
pub enum CodecError {
    /// The buffer does not start with the `MTRC` magic.
    BadMagic,
    /// The format version is not supported.
    BadVersion(u8),
    /// The buffer ended prematurely or a field was out of range.
    Corrupt(&'static str),
    /// An underlying I/O error.
    Io(io::Error),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not a MASCOT trace (bad magic)"),
            CodecError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            CodecError::Corrupt(what) => write!(f, "corrupt trace: {what}"),
            CodecError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        CodecError::Io(e)
    }
}

/// The shared little-endian cursor's failures, as trace corruption.
impl From<SnapError> for CodecError {
    fn from(e: SnapError) -> Self {
        match e {
            SnapError::TrailingBytes(_) => CodecError::Corrupt("trailing bytes"),
            SnapError::Truncated(what) | SnapError::Corrupt(what) | SnapError::TooLarge(what) => {
                CodecError::Corrupt(what)
            }
            _ => CodecError::Corrupt("malformed trace"),
        }
    }
}

/// What a short buffer reports.
const TRUNCATED: &str = "truncated";

fn put_reg(out: &mut Vec<u8>, r: Option<u8>) {
    out.push(r.unwrap_or(NO_REG));
}

fn get_reg(r: u8) -> Option<u8> {
    (r != NO_REG).then_some(r)
}

/// Encodes a trace into the binary format.
pub fn encode(trace: &Trace) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + trace.len() * 16);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    let name = trace.name.as_bytes();
    out.extend_from_slice(&(name.len().min(u16::MAX as usize) as u16).to_le_bytes());
    out.extend_from_slice(&name[..name.len().min(u16::MAX as usize)]);
    out.extend_from_slice(&(trace.len() as u64).to_le_bytes());
    for uop in &trace.uops {
        out.extend_from_slice(&uop.pc.to_le_bytes());
        put_reg(&mut out, uop.srcs[0]);
        put_reg(&mut out, uop.srcs[1]);
        put_reg(&mut out, uop.dst);
        out.push(uop.latency);
        match uop.kind {
            UopKind::Alu => out.push(0),
            UopKind::Load { addr, size, dep } => {
                out.push(1);
                out.extend_from_slice(&addr.to_le_bytes());
                out.push(size);
                match dep {
                    None => out.push(0),
                    Some(d) => {
                        out.push(1);
                        out.extend_from_slice(&d.distance.to_le_bytes());
                        out.push(d.class.code());
                        out.extend_from_slice(&d.store_pc.to_le_bytes());
                        out.extend_from_slice(&d.branches_between.to_le_bytes());
                    }
                }
            }
            UopKind::Store { addr, size } => {
                out.push(2);
                out.extend_from_slice(&addr.to_le_bytes());
                out.push(size);
            }
            UopKind::Branch {
                kind,
                taken,
                target,
            } => {
                out.push(3);
                out.push(match kind {
                    BranchKind::Conditional => 0,
                    BranchKind::Indirect => 1,
                });
                out.push(u8::from(taken));
                out.extend_from_slice(&target.to_le_bytes());
            }
        }
    }
    out
}

/// Decodes a trace from the binary format.
///
/// # Errors
///
/// Returns a [`CodecError`] on bad magic, unsupported version, truncation,
/// or out-of-range field values.
pub fn decode(bytes: &[u8]) -> Result<Trace, CodecError> {
    let mut r = SnapReader::new(bytes);
    if r.take(4, TRUNCATED)? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = r.u8(TRUNCATED)?;
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let name_len = usize::from(r.u16(TRUNCATED)?);
    let name = std::str::from_utf8(r.take(name_len, TRUNCATED)?)
        .map_err(|_| CodecError::Corrupt("name is not UTF-8"))?
        .to_string();
    let count = r.u64(TRUNCATED)?;
    // Every uop occupies at least 13 bytes (pc + regs + latency + kind tag);
    // bound the claimed count by the bytes actually remaining *before*
    // allocating, so an attacker-controlled header can never drive
    // `Vec::with_capacity` beyond the input's own size.
    const MIN_UOP_BYTES: u64 = 13;
    let remaining = r.remaining() as u64;
    if count.checked_mul(MIN_UOP_BYTES).is_none_or(|need| need > remaining) {
        return Err(CodecError::Corrupt("count exceeds payload"));
    }
    let mut uops = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let pc = r.u64(TRUNCATED)?;
        let srcs = [get_reg(r.u8(TRUNCATED)?), get_reg(r.u8(TRUNCATED)?)];
        let dst = get_reg(r.u8(TRUNCATED)?);
        let latency = r.u8(TRUNCATED)?;
        let kind = match r.u8(TRUNCATED)? {
            0 => UopKind::Alu,
            1 => {
                let addr = r.u64(TRUNCATED)?;
                let size = r.u8(TRUNCATED)?;
                let dep = match r.u8(TRUNCATED)? {
                    0 => None,
                    1 => Some(TraceDep {
                        distance: r.u32(TRUNCATED)?,
                        class: BypassClass::from_code(r.u8(TRUNCATED)?)
                            .ok_or(CodecError::Corrupt("bypass class"))?,
                        store_pc: r.u64(TRUNCATED)?,
                        branches_between: r.u32(TRUNCATED)?,
                    }),
                    _ => return Err(CodecError::Corrupt("dep flag")),
                };
                UopKind::Load { addr, size, dep }
            }
            2 => {
                let addr = r.u64(TRUNCATED)?;
                let size = r.u8(TRUNCATED)?;
                UopKind::Store { addr, size }
            }
            3 => {
                let kind = match r.u8(TRUNCATED)? {
                    0 => BranchKind::Conditional,
                    1 => BranchKind::Indirect,
                    _ => return Err(CodecError::Corrupt("branch kind")),
                };
                let taken = match r.u8(TRUNCATED)? {
                    0 => false,
                    1 => true,
                    _ => return Err(CodecError::Corrupt("taken flag")),
                };
                let target = r.u64(TRUNCATED)?;
                UopKind::Branch {
                    kind,
                    taken,
                    target,
                }
            }
            _ => return Err(CodecError::Corrupt("uop kind")),
        };
        uops.push(Uop {
            pc,
            kind,
            srcs,
            dst,
            latency,
        });
    }
    r.finish()?;
    Ok(Trace::new(name, uops))
}

/// Writes a trace to any writer (e.g. a file). A mutable reference works
/// too: `save(&trace, &mut file)`.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn save<W: Write>(trace: &Trace, mut w: W) -> io::Result<()> {
    w.write_all(&encode(trace))
}

/// Reads a trace from any reader.
///
/// # Errors
///
/// Returns a [`CodecError`] for I/O failures or malformed content.
pub fn load<R: Read>(mut r: R) -> Result<Trace, CodecError> {
    let mut buf = Vec::new();
    r.read_to_end(&mut buf)?;
    decode(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace::new(
            "sample",
            vec![
                Uop::alu(0x100, [Some(1), None], Some(2), 3),
                Uop::store(0x104, 0x9000, 8, Some(1), Some(2)),
                Uop::load(
                    0x108,
                    0x9000,
                    4,
                    Some(3),
                    4,
                    Some(TraceDep {
                        distance: 1,
                        class: BypassClass::NoOffset,
                        store_pc: 0x104,
                        branches_between: 2,
                    }),
                ),
                Uop::branch(0x10c, true, 0x200, None),
                Uop::indirect_branch(0x110, 0x300, Some(5)),
                Uop::load(0x114, 0xa000, 8, None, 6, None),
            ],
        )
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample();
        let bytes = encode(&t);
        let back = decode(&bytes).unwrap();
        assert_eq!(t.name, back.name);
        assert_eq!(t.uops, back.uops);
    }

    #[test]
    fn roundtrip_through_io() {
        let t = sample();
        let mut buf = Vec::new();
        save(&t, &mut buf).unwrap();
        let back = load(buf.as_slice()).unwrap();
        assert_eq!(t.uops, back.uops);
    }

    #[test]
    fn roundtrip_generated_workload() {
        // A realistic trace (exercises every uop kind and dep class).
        let t = crate::uop::Trace::new(
            "mix",
            sample().uops.iter().cycle().take(1000).copied().collect(),
        );
        let back = decode(&encode(&t)).unwrap();
        assert_eq!(t.uops, back.uops);
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(matches!(decode(b"NOPE"), Err(CodecError::BadMagic)));
    }

    #[test]
    fn rejects_bad_version() {
        let mut bytes = encode(&sample());
        bytes[4] = 99;
        assert!(matches!(decode(&bytes), Err(CodecError::BadVersion(99))));
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let bytes = encode(&sample());
        for cut in [5, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = encode(&sample());
        bytes.push(0);
        assert!(matches!(decode(&bytes), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn rejects_corrupt_kind() {
        let t = Trace::new("t", vec![Uop::alu(0, [None, None], None, 1)]);
        let mut bytes = encode(&t);
        let kind_pos = bytes.len() - 1; // last byte is the ALU kind tag
        bytes[kind_pos] = 42;
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn error_display_is_informative() {
        assert!(CodecError::BadMagic.to_string().contains("magic"));
        assert!(CodecError::BadVersion(7).to_string().contains('7'));
        assert!(CodecError::Corrupt("x").to_string().contains('x'));
    }
}
