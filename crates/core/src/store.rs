//! Persistent, versioned snapshots of [`PairParts`] — the warm-start
//! store behind [`crate::cache::ProfileCache`]'s optional snapshot
//! directory.
//!
//! A reference profile is the expensive artifact of this system: every
//! [`PairParts::collect`] is one full (untimed) execution. This
//! module gives that artifact a deterministic on-disk form so a
//! restarted (or freshly spawned) server reloads its references instead
//! of re-executing them — and, because a mis-decoded profile would
//! silently corrupt every response sharing it, the format is strict:
//! wrong magic, unknown versions, fingerprint mismatches, truncation
//! and checksum failures are all rejected with a typed [`StoreError`],
//! never a panic and never a silently wrong profile.
//!
//! # Snapshot layout (version 2)
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------
//!      0     8  magic  "CTSNAP\r\n"              (SNAPSHOT_MAGIC)
//!      8     4  format version, u32 LE           (SNAPSHOT_VERSION)
//!     12     8  pair fingerprint, u64 LE         (pair_fingerprint)
//!     20     8  CFG section length, u64 LE
//!     28     …  CFG section (canonical JSON of ct_isa::Cfg)
//!      …     8  profile section length, u64 LE
//!      …     …  profile section (canonical JSON of ReferenceProfile)
//!    end     8  FNV-1a checksum of ALL preceding bytes, u64 LE
//! ```
//!
//! Version 2 dropped the profile's `cycles` field when references became
//! untimed; readers reject version-1 snapshots, which then rebuild.
//!
//! Sections carry the vendored-serde JSON of the structures; `Value`
//! maps preserve insertion order, so encoding is byte-deterministic —
//! encoding the same parts twice yields identical bytes, which is what
//! makes the trailing checksum and golden-file pinning sound.
//!
//! # Validation order
//!
//! [`SnapshotReader::open`] checks magic, then version, then the
//! trailing checksum; [`SnapshotReader::decode`] additionally compares
//! the header fingerprint against the caller's expectation before
//! touching either section. The precedence is deliberate and pinned by
//! the corruption-matrix tests:
//!
//! * a flipped magic byte is [`StoreError::BadMagic`];
//! * a flipped version byte is [`StoreError::UnsupportedVersion`];
//! * a flip anywhere else — fingerprint field, either section, or the
//!   checksum trailer itself — is [`StoreError::ChecksumMismatch`];
//! * [`StoreError::FingerprintMismatch`] therefore means exactly one
//!   thing: an *intact* snapshot of the wrong catalog generation (the
//!   machine model, program, run config or method options changed), the
//!   invalidation rule that keeps a stale store from ever serving.
//!
//! # Example
//!
//! ```
//! use countertrust::cache::PairParts;
//! use countertrust::store::{SnapshotReader, SnapshotWriter};
//! use ct_isa::{asm::assemble, Cfg};
//! use ct_sim::{MachineModel, RunConfig};
//! use std::sync::Arc;
//!
//! let program = assemble(
//!     "demo",
//!     ".func main\n movi r1, 200\ntop:\n addi r2, r2, 1\n subi r1, r1, 1\n brnz r1, top\n halt\n.endfunc",
//! )
//! .unwrap();
//! let cfg = Arc::new(Cfg::build(&program));
//! let machine = MachineModel::ivy_bridge();
//! let parts =
//!     PairParts::collect(&machine, &program, &RunConfig::default(), cfg).unwrap();
//!
//! let bytes = SnapshotWriter::encode(0xFEED, &parts);
//! assert_eq!(bytes, SnapshotWriter::encode(0xFEED, &parts), "deterministic");
//! let back = SnapshotReader::decode(&bytes, 0xFEED).unwrap();
//! assert_eq!(back.reference.total_instructions, parts.reference.total_instructions);
//! assert!(SnapshotReader::decode(&bytes, 0xBEEF).is_err(), "stale fingerprint");
//! ```

use crate::cache::PairParts;
use crate::methods::MethodOptions;
use ct_instrument::ReferenceProfile;
use ct_isa::{Cfg, Program};
use ct_sim::{MachineModel, RunConfig};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

/// The 8-byte magic opening every snapshot. `\r\n` catches text-mode
/// newline mangling the same way PNG's magic does.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"CTSNAP\r\n";

/// The current snapshot format version. Readers reject anything else —
/// format evolution means a bump here plus an explicit migration, never
/// a guess.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Header size: magic + version + fingerprint.
const HEADER_LEN: usize = 8 + 4 + 8;

/// Trailer size: the u64 checksum.
const TRAILER_LEN: usize = 8;

/// Every way reading or writing a snapshot can fail. Corrupt or stale
/// snapshots are *expected* inputs (a crashed writer, a changed
/// catalog): each failure is typed so the cache can count and fall back
/// to a cold build, and none of them ever panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The first 8 bytes are not [`SNAPSHOT_MAGIC`] — not a snapshot.
    BadMagic,
    /// The format version is not [`SNAPSHOT_VERSION`].
    UnsupportedVersion(u32),
    /// The snapshot is intact but was written for a different pair
    /// generation (catalog name, machine, program, run config or method
    /// options changed) — the staleness-invalidation rejection.
    FingerprintMismatch {
        /// The fingerprint the caller derived from the live catalog.
        expected: u64,
        /// The fingerprint recorded in the snapshot header.
        found: u64,
    },
    /// Fewer bytes than the structure demands (header, trailer or a
    /// section running past the end).
    Truncated {
        /// Bytes the current parse step needed.
        needed: usize,
        /// Bytes actually available to it.
        available: usize,
    },
    /// The trailing FNV-1a checksum does not match the preceding bytes —
    /// a bit flip or partial overwrite anywhere in the body.
    ChecksumMismatch {
        /// The checksum stored in the trailer.
        stored: u64,
        /// The checksum recomputed over the body.
        computed: u64,
    },
    /// A section passed the checksum but its JSON did not decode into
    /// the expected structure (or trailing garbage followed the last
    /// section).
    Decode(String),
    /// Filesystem failure reading or writing the snapshot file.
    Io(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic => write!(f, "not a snapshot (bad magic)"),
            Self::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (expected {SNAPSHOT_VERSION})"
                )
            }
            Self::FingerprintMismatch { expected, found } => write!(
                f,
                "snapshot fingerprint {found:#018x} does not match the live catalog \
                 ({expected:#018x}) — stale snapshot"
            ),
            Self::Truncated { needed, available } => {
                write!(
                    f,
                    "snapshot truncated (needed {needed} bytes, have {available})"
                )
            }
            Self::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
            Self::Decode(e) => write!(f, "snapshot section did not decode: {e}"),
            Self::Io(e) => write!(f, "snapshot I/O error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// 64-bit FNV-1a — the snapshot checksum (and fingerprint) hash.
#[must_use]
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The fingerprint naming one pair *generation*: a hash of the catalog
/// name, the machine model, the program, the run configuration and the
/// method options. The reference profile is a function of the program
/// and run configuration alone, so this covers more than it needs to;
/// snapshots stay keyed by pair like the cache that reads them. Equal
/// fingerprints mean the deterministic pipeline would rebuild
/// byte-identical parts, so a snapshot carrying this fingerprint may
/// substitute for the build; any change to any input moves the
/// fingerprint and invalidates every old snapshot.
#[must_use]
pub fn pair_fingerprint(
    catalog: &str,
    machine: &MachineModel,
    program: &Program,
    run_config: &RunConfig,
    opts: &MethodOptions,
) -> u64 {
    let mut text = String::new();
    text.push_str(catalog);
    text.push('\0');
    text.push_str(&serde_json::to_string(machine).expect("machine model serializes"));
    text.push('\0');
    text.push_str(&serde_json::to_string(program).expect("program serializes"));
    text.push('\0');
    text.push_str(&serde_json::to_string(opts).expect("method options serialize"));
    text.push('\0');
    let mut bytes = text.into_bytes();
    // RunConfig carries no serde impl; its three fields are hashed
    // directly (little-endian, length-prefixed args) so any change to
    // the run shape moves the fingerprint too.
    bytes.extend_from_slice(&run_config.max_insns.to_le_bytes());
    bytes.extend_from_slice(&(run_config.args.len() as u64).to_le_bytes());
    for arg in &run_config.args {
        bytes.extend_from_slice(&arg.to_le_bytes());
    }
    bytes.extend_from_slice(&(run_config.call_stack_limit as u64).to_le_bytes());
    checksum(&bytes)
}

/// Builds snapshot bytes: header, length-prefixed sections, checksum
/// trailer. The writer is deterministic — same fingerprint and sections,
/// same bytes — which the property suite pins.
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// Starts a snapshot for one pair generation (header only).
    #[must_use]
    pub fn new(fingerprint: u64) -> Self {
        let mut buf = Vec::with_capacity(HEADER_LEN + TRAILER_LEN);
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        buf.extend_from_slice(&fingerprint.to_le_bytes());
        Self { buf }
    }

    /// Appends one length-prefixed section.
    pub fn section(&mut self, bytes: &[u8]) {
        self.buf
            .extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        self.buf.extend_from_slice(bytes);
    }

    /// Seals the snapshot with the checksum trailer.
    #[must_use]
    pub fn finish(mut self) -> Vec<u8> {
        let sum = checksum(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }

    /// Encodes a [`PairParts`] as one snapshot: CFG section, then
    /// reference-profile section.
    #[must_use]
    pub fn encode(fingerprint: u64, parts: &PairParts) -> Vec<u8> {
        let mut w = Self::new(fingerprint);
        w.section(
            serde_json::to_string(&*parts.cfg)
                .expect("CFG serializes")
                .as_bytes(),
        );
        w.section(
            serde_json::to_string(&*parts.reference)
                .expect("reference profile serializes")
                .as_bytes(),
        );
        w.finish()
    }
}

/// Validates and walks snapshot bytes. [`SnapshotReader::open`] performs
/// the structural checks (magic, version, checksum); section reads then
/// iterate the body.
pub struct SnapshotReader<'a> {
    /// The section region: everything between header and trailer.
    body: &'a [u8],
    /// Read cursor into `body`.
    pos: usize,
    fingerprint: u64,
}

impl<'a> SnapshotReader<'a> {
    /// Opens snapshot bytes, rejecting bad magic, unknown versions,
    /// truncation and checksum failure (in that order — see the module
    /// docs for why the precedence matters).
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`], [`StoreError::BadMagic`],
    /// [`StoreError::UnsupportedVersion`] or
    /// [`StoreError::ChecksumMismatch`].
    pub fn open(bytes: &'a [u8]) -> Result<Self, StoreError> {
        if bytes.len() < 8 {
            return Err(StoreError::Truncated {
                needed: 8,
                available: bytes.len(),
            });
        }
        if bytes[..8] != SNAPSHOT_MAGIC {
            return Err(StoreError::BadMagic);
        }
        if bytes.len() < 12 {
            return Err(StoreError::Truncated {
                needed: 12,
                available: bytes.len(),
            });
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != SNAPSHOT_VERSION {
            return Err(StoreError::UnsupportedVersion(version));
        }
        if bytes.len() < HEADER_LEN + TRAILER_LEN {
            return Err(StoreError::Truncated {
                needed: HEADER_LEN + TRAILER_LEN,
                available: bytes.len(),
            });
        }
        let body_end = bytes.len() - TRAILER_LEN;
        let stored = u64::from_le_bytes(bytes[body_end..].try_into().expect("8 bytes"));
        let computed = checksum(&bytes[..body_end]);
        if stored != computed {
            return Err(StoreError::ChecksumMismatch { stored, computed });
        }
        let fingerprint = u64::from_le_bytes(bytes[12..HEADER_LEN].try_into().expect("8 bytes"));
        Ok(Self {
            body: &bytes[HEADER_LEN..body_end],
            pos: 0,
            fingerprint,
        })
    }

    /// The pair fingerprint recorded in the header.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Rejects a snapshot of the wrong pair generation.
    ///
    /// # Errors
    ///
    /// [`StoreError::FingerprintMismatch`] when the header fingerprint
    /// differs from `expected`.
    pub fn expect_fingerprint(&self, expected: u64) -> Result<(), StoreError> {
        if self.fingerprint == expected {
            Ok(())
        } else {
            Err(StoreError::FingerprintMismatch {
                expected,
                found: self.fingerprint,
            })
        }
    }

    /// Reads the next length-prefixed section.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] when the length prefix or the section
    /// body runs past the checksummed region.
    pub fn section(&mut self) -> Result<&'a [u8], StoreError> {
        let remaining = self.body.len() - self.pos;
        if remaining < 8 {
            return Err(StoreError::Truncated {
                needed: 8,
                available: remaining,
            });
        }
        let len = u64::from_le_bytes(
            self.body[self.pos..self.pos + 8]
                .try_into()
                .expect("8 bytes"),
        );
        self.pos += 8;
        let remaining = self.body.len() - self.pos;
        let len = usize::try_from(len).map_err(|_| StoreError::Truncated {
            needed: usize::MAX,
            available: remaining,
        })?;
        if remaining < len {
            return Err(StoreError::Truncated {
                needed: len,
                available: remaining,
            });
        }
        let section = &self.body[self.pos..self.pos + len];
        self.pos += len;
        Ok(section)
    }

    /// Bytes left after the sections read so far (`0` after a complete
    /// decode — anything else is trailing garbage).
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.body.len() - self.pos
    }

    /// Decodes a full [`PairParts`] snapshot, validating structure,
    /// checksum and fingerprint.
    ///
    /// # Errors
    ///
    /// Everything [`SnapshotReader::open`] rejects, plus
    /// [`StoreError::FingerprintMismatch`] for stale snapshots and
    /// [`StoreError::Decode`] for sections that are not the expected
    /// JSON structures.
    pub fn decode(bytes: &[u8], expected_fingerprint: u64) -> Result<PairParts, StoreError> {
        let mut reader = SnapshotReader::open(bytes)?;
        reader.expect_fingerprint(expected_fingerprint)?;
        let cfg_text = std::str::from_utf8(reader.section()?)
            .map_err(|e| StoreError::Decode(format!("CFG section is not UTF-8: {e}")))?;
        let cfg: Cfg = serde_json::from_str(cfg_text)
            .map_err(|e| StoreError::Decode(format!("CFG section: {e}")))?;
        let profile_text = std::str::from_utf8(reader.section()?)
            .map_err(|e| StoreError::Decode(format!("profile section is not UTF-8: {e}")))?;
        let reference: ReferenceProfile = serde_json::from_str(profile_text)
            .map_err(|e| StoreError::Decode(format!("profile section: {e}")))?;
        if reader.remaining() != 0 {
            return Err(StoreError::Decode(format!(
                "{} trailing bytes after the profile section",
                reader.remaining()
            )));
        }
        Ok(PairParts {
            cfg: Arc::new(cfg),
            reference: Arc::new(reference),
        })
    }
}

/// A directory of snapshots, one file per pair generation, named by
/// fingerprint (`<fingerprint:016x>.snap`). Equal fingerprints mean
/// byte-identical deterministic builds, so the name alone is
/// collision-safe; the header fingerprint check still guards against
/// renamed or hand-edited files.
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    dir: PathBuf,
}

impl SnapshotStore {
    /// A store over `dir`. The directory is created on first save, not
    /// here — construction never touches the filesystem.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The snapshot file path for one fingerprint.
    #[must_use]
    pub fn path_for(&self, fingerprint: u64) -> PathBuf {
        self.dir.join(format!("{fingerprint:016x}.snap"))
    }

    /// Loads and validates the snapshot for `fingerprint`. A missing
    /// file is `Ok(None)` — a cold store is not an error; every other
    /// failure (I/O, corruption, staleness) is the typed rejection the
    /// cache counts before falling back to a build.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] for unreadable files, otherwise whatever
    /// [`SnapshotReader::decode`] rejects.
    pub fn load(&self, fingerprint: u64) -> Result<Option<PairParts>, StoreError> {
        let path = self.path_for(fingerprint);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreError::Io(format!("{}: {e}", path.display()))),
        };
        SnapshotReader::decode(&bytes, fingerprint).map(Some)
    }

    /// Writes the snapshot for `fingerprint` (write-behind after a cold
    /// build). The write goes to a temporary sibling first and renames
    /// into place, so a concurrent reader never observes a half-written
    /// snapshot.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory or file cannot be written.
    pub fn save(&self, fingerprint: u64, parts: &PairParts) -> Result<(), StoreError> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| StoreError::Io(format!("{}: {e}", self.dir.display())))?;
        let bytes = SnapshotWriter::encode(fingerprint, parts);
        let path = self.path_for(fingerprint);
        let tmp = self
            .dir
            .join(format!("{fingerprint:016x}.snap.tmp{}", std::process::id()));
        std::fs::write(&tmp, &bytes)
            .map_err(|e| StoreError::Io(format!("{}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, &path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            StoreError::Io(format!("{}: {e}", path.display()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_isa::asm::assemble;

    fn demo_parts() -> PairParts {
        let program = assemble(
            "demo",
            ".func main\n movi r1, 300\ntop:\n addi r2, r2, 1\n subi r1, r1, 1\n brnz r1, top\n halt\n.endfunc",
        )
        .expect("demo program assembles");
        let cfg = Arc::new(Cfg::build(&program));
        PairParts::collect(
            &MachineModel::ivy_bridge(),
            &program,
            &RunConfig::default(),
            cfg,
        )
        .expect("demo reference collects")
    }

    #[test]
    fn roundtrip_preserves_structure_and_is_deterministic() {
        let parts = demo_parts();
        let bytes = SnapshotWriter::encode(42, &parts);
        assert_eq!(bytes, SnapshotWriter::encode(42, &parts));
        let back = SnapshotReader::decode(&bytes, 42).expect("decodes");
        assert_eq!(*back.cfg, *parts.cfg);
        assert_eq!(
            serde_json::to_string(&*back.reference).unwrap(),
            serde_json::to_string(&*parts.reference).unwrap()
        );
        // Re-encoding the decoded parts is canonical too.
        assert_eq!(bytes, SnapshotWriter::encode(42, &back));
    }

    #[test]
    fn open_rejects_the_documented_precedence() {
        let parts = demo_parts();
        let bytes = SnapshotWriter::encode(7, &parts);

        let mut magic = bytes.clone();
        magic[0] ^= 0x01;
        assert_eq!(
            SnapshotReader::open(&magic).err(),
            Some(StoreError::BadMagic)
        );

        let mut version = bytes.clone();
        version[8] = 0xEE;
        assert!(matches!(
            SnapshotReader::open(&version).err(),
            Some(StoreError::UnsupportedVersion(_))
        ));

        let mut body = bytes.clone();
        body[HEADER_LEN + 9] ^= 0x10;
        assert!(matches!(
            SnapshotReader::open(&body).err(),
            Some(StoreError::ChecksumMismatch { .. })
        ));

        assert!(matches!(
            SnapshotReader::open(&bytes[..10]).err(),
            Some(StoreError::Truncated { .. })
        ));

        assert_eq!(
            SnapshotReader::decode(&bytes, 8).err(),
            Some(StoreError::FingerprintMismatch {
                expected: 8,
                found: 7
            })
        );
    }

    #[test]
    fn fingerprint_moves_with_every_input() {
        let program = assemble(
            "demo",
            ".func main\n movi r1, 10\ntop:\n subi r1, r1, 1\n brnz r1, top\n halt\n.endfunc",
        )
        .unwrap();
        let other = assemble(
            "demo2",
            ".func main\n movi r1, 11\ntop:\n subi r1, r1, 1\n brnz r1, top\n halt\n.endfunc",
        )
        .unwrap();
        let machine = MachineModel::ivy_bridge();
        let opts = MethodOptions::fast();
        let base = pair_fingerprint("default", &machine, &program, &RunConfig::default(), &opts);
        assert_eq!(
            base,
            pair_fingerprint("default", &machine, &program, &RunConfig::default(), &opts),
            "fingerprints are deterministic"
        );
        assert_ne!(
            base,
            pair_fingerprint("tenant-b", &machine, &program, &RunConfig::default(), &opts)
        );
        assert_ne!(
            base,
            pair_fingerprint(
                "default",
                &MachineModel::westmere(),
                &program,
                &RunConfig::default(),
                &opts
            )
        );
        assert_ne!(
            base,
            pair_fingerprint("default", &machine, &other, &RunConfig::default(), &opts)
        );
        let mut config = RunConfig::default();
        config.args.push(9);
        assert_ne!(
            base,
            pair_fingerprint("default", &machine, &program, &config, &opts)
        );
        assert_ne!(
            base,
            pair_fingerprint(
                "default",
                &machine,
                &program,
                &RunConfig::default(),
                &MethodOptions::default()
            )
        );
    }

    #[test]
    fn store_load_is_none_when_cold_and_some_after_save() {
        let dir = std::env::temp_dir().join(format!("ctstore_unit_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::new(&dir);
        assert!(
            store.load(1).unwrap().is_none(),
            "cold store is not an error"
        );
        let parts = demo_parts();
        store.save(1, &parts).expect("save succeeds");
        let back = store
            .load(1)
            .expect("load succeeds")
            .expect("snapshot present");
        assert_eq!(*back.cfg, *parts.cfg);
        // Corrupt the file: load must reject, not panic.
        let path = store.path_for(1);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.load(1).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
