//! The sealed envelope every persisted and wire format shares, and the one
//! atomic, durable file publish.
//!
//! Fleet checkpoints (`HIDWAFLT`), the search index (`HIDWASRC`) and the
//! plan-serving envelopes (`HIDWAPLQ` / `HIDWAPLR`) all frame their body the
//! same way (big-endian):
//!
//! ```text
//! magic    8 bytes   names the format
//! version  u16       the body schema revision
//! body     …         format-specific
//! seal     u64       FNV-1a 64 over every preceding byte
//! ```
//!
//! [`seal`] writes that frame and [`open`] checks it, in a fixed order:
//! too short for magic and version → `Truncated`; foreign magic →
//! `BadMagic`; other version → `UnsupportedVersion`; no room for the seal →
//! `Truncated`; seal mismatch → `SealMismatch`.  Only then does a format
//! decode its body, with the shared `take_*` readers (which report a short
//! body as `Truncated`).  Each format maps [`EnvelopeError`] into its own
//! public error type through one `From` impl.
//!
//! [`atomic_publish`] is how a blob reaches disk: a reader sees either the
//! complete previous file or the complete new one, and a returned publish
//! survives a crash.
//!
//! # Example
//!
//! ```
//! use bytes::BufMut;
//! use hidwa_core::sealed::{self, EnvelopeError};
//!
//! let blob = sealed::seal(b"EXAMPLE!", 3, |body| body.put_u32(7));
//! assert_eq!(&sealed::open(&blob, b"EXAMPLE!", 3).unwrap()[..], &[0, 0, 0, 7]);
//! assert_eq!(
//!     sealed::open(&blob, b"EXAMPLE!", 4).unwrap_err(),
//!     EnvelopeError::UnsupportedVersion(3)
//! );
//! ```

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Magic plus version: the bytes [`open`] needs before it can say which
/// format and revision it holds.
const HEADER: usize = 8 + 2;

/// Why a sealed envelope failed to open (or its body ended early).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvelopeError {
    /// The input ended before the envelope or a body field was complete.
    Truncated,
    /// The leading magic names another format.
    BadMagic,
    /// The format version is one this build does not understand.
    UnsupportedVersion(u16),
    /// The trailing FNV-1a 64 seal does not match the bytes before it.
    SealMismatch,
}

/// FNV-1a 64-bit digest: the envelope seal, also the repository's run and
/// state fingerprint.  Not cryptographic (the threat model is bit rot and
/// truncation, not forgery), but any single-bit flip anywhere in the input
/// changes it.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Frames the bytes `body` writes as a sealed envelope of `magic` at
/// `version`.
#[must_use]
pub fn seal(magic: &[u8; 8], version: u16, body: impl FnOnce(&mut BytesMut)) -> Bytes {
    let mut out = BytesMut::new();
    out.put_slice(magic);
    out.put_u16(version);
    body(&mut out);
    let checksum = fnv1a64(&out);
    out.put_u64(checksum);
    out.freeze()
}

/// Checks the envelope of `raw` against `magic` and `version` and returns a
/// cursor over its body.  Never panics.
///
/// # Errors
/// See the module docs for which check yields which [`EnvelopeError`].
pub fn open(raw: &[u8], magic: &[u8; 8], version: u16) -> Result<Bytes, EnvelopeError> {
    if raw.len() < HEADER {
        return Err(EnvelopeError::Truncated);
    }
    if &raw[..8] != magic {
        return Err(EnvelopeError::BadMagic);
    }
    let found = u16::from_be_bytes([raw[8], raw[9]]);
    if found != version {
        return Err(EnvelopeError::UnsupportedVersion(found));
    }
    if raw.len() < HEADER + 8 {
        return Err(EnvelopeError::Truncated);
    }
    let (sealed, tail) = raw.split_at(raw.len() - 8);
    let stored = u64::from_be_bytes(tail.try_into().expect("8-byte tail"));
    if fnv1a64(sealed) != stored {
        return Err(EnvelopeError::SealMismatch);
    }
    Ok(Bytes::from(sealed[HEADER..].to_vec()))
}

pub(crate) fn take_u8(input: &mut Bytes) -> Result<u8, EnvelopeError> {
    if input.remaining() < 1 {
        return Err(EnvelopeError::Truncated);
    }
    Ok(input.get_u8())
}

pub(crate) fn take_u16(input: &mut Bytes) -> Result<u16, EnvelopeError> {
    if input.remaining() < 2 {
        return Err(EnvelopeError::Truncated);
    }
    Ok(input.get_u16())
}

pub(crate) fn take_u32(input: &mut Bytes) -> Result<u32, EnvelopeError> {
    if input.remaining() < 4 {
        return Err(EnvelopeError::Truncated);
    }
    Ok(input.get_u32())
}

pub(crate) fn take_u64(input: &mut Bytes) -> Result<u64, EnvelopeError> {
    if input.remaining() < 8 {
        return Err(EnvelopeError::Truncated);
    }
    Ok(input.get_u64())
}

pub(crate) fn take_f64(input: &mut Bytes) -> Result<f64, EnvelopeError> {
    Ok(f64::from_bits(take_u64(input)?))
}

/// The in-flight name [`atomic_publish`] writes `name` under before the
/// rename: `<name>.tmp-<pid>`.  Readers must ignore it.
#[must_use]
pub fn temp_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.tmp-{}", std::process::id()))
}

/// Atomically and durably replaces `dir/name` with `bytes`: write
/// [`temp_path`], `fsync` it, `rename` it over `name`, then `fsync` `dir` so
/// the rename itself survives a crash.  `rename(2)` within one directory is
/// atomic on POSIX filesystems, so a reader never sees a partial file, and
/// a writer killed mid-way leaves only the ignored temp file.  A publish
/// that *fails* before the rename removes its temp file: a retry runs under
/// a new pid, so a leftover would never be overwritten and, on a full disk,
/// every retry would strand another one.
///
/// # Errors
/// Any [`std::io::Error`] from the writes, syncs or rename.
pub fn atomic_publish(dir: &Path, name: &str, bytes: &[u8]) -> std::io::Result<()> {
    let temp = temp_path(dir, name);
    let staged = (|| {
        let mut file = std::fs::File::create(&temp)?;
        file.write_all(bytes)?;
        // Durability before visibility: the rename must never expose a
        // name whose bytes could still be lost to a crash.
        file.sync_all()?;
        std::fs::rename(&temp, dir.join(name))
    })();
    if let Err(error) = staged {
        // Best effort: the original failure is the one worth reporting.
        let _ = std::fs::remove_file(&temp);
        return Err(error);
    }
    std::fs::File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_checks_run_in_order() {
        let blob = seal(b"TESTMAGC", 1, |body| body.put_u64(42));
        assert_eq!(
            open(&blob, b"TESTMAGC", 1).unwrap().to_vec(),
            42u64.to_be_bytes()
        );
        assert_eq!(
            open(&blob[..9], b"OTHERMAG", 1),
            Err(EnvelopeError::Truncated)
        );
        assert_eq!(open(&blob, b"OTHERMAG", 1), Err(EnvelopeError::BadMagic));
        assert_eq!(
            open(&blob, b"TESTMAGC", 2),
            Err(EnvelopeError::UnsupportedVersion(1))
        );
        assert_eq!(
            open(&blob[..17], b"TESTMAGC", 1),
            Err(EnvelopeError::Truncated)
        );
        assert_eq!(
            open(&blob[..18], b"TESTMAGC", 1),
            Err(EnvelopeError::SealMismatch)
        );
        let empty = seal(b"TESTMAGC", 1, |_| {});
        assert!(open(&empty, b"TESTMAGC", 1).unwrap().is_empty());
    }

    #[test]
    fn readers_report_a_short_body_as_truncated() {
        let mut input = Bytes::from(vec![1, 2, 3]);
        assert_eq!(take_u16(&mut input), Ok(0x0102));
        assert_eq!(take_u16(&mut input), Err(EnvelopeError::Truncated));
        assert_eq!(take_u8(&mut input), Ok(3));
        assert_eq!(take_u8(&mut input), Err(EnvelopeError::Truncated));
    }

    #[test]
    fn atomic_publish_replaces_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("hidwa-sealed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        atomic_publish(&dir, "blob", b"first").unwrap();
        atomic_publish(&dir, "blob", b"second").unwrap();
        assert_eq!(std::fs::read(dir.join("blob")).unwrap(), b"second");
        assert!(!temp_path(&dir, "blob").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_atomic_publish_removes_its_temp_file() {
        let dir = std::env::temp_dir().join(format!("hidwa-sealed-fail-{}", std::process::id()));
        // A non-empty directory under the target name makes the rename fail.
        std::fs::create_dir_all(dir.join("blob")).unwrap();
        std::fs::write(dir.join("blob").join("occupant"), b"x").unwrap();
        assert!(atomic_publish(&dir, "blob", b"bytes").is_err());
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.contains(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "stranded temp files: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
