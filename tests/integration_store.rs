//! The snapshot corruption matrix: every way a stored reference profile
//! can be damaged or go stale must be rejected with the *right* typed
//! `StoreError` — and the cache above the store must then fall back to a
//! clean cold build with byte-identical results, counting the rejection
//! in `CacheStats::snapshot_rejects`.
//!
//! The matrix (per the store's documented validation precedence):
//!
//! | damage                              | rejection              |
//! |-------------------------------------|------------------------|
//! | any truncation prefix < header+trailer | `Truncated`         |
//! | any longer truncation prefix        | `ChecksumMismatch`     |
//! | bit flip in the magic               | `BadMagic`             |
//! | bit flip in the version             | `UnsupportedVersion`   |
//! | bit flip anywhere else (fingerprint field, CFG section, profile section, trailer) | `ChecksumMismatch` |
//! | bumped version, even re-signed      | `UnsupportedVersion`   |
//! | intact snapshot, wrong expected fingerprint | `FingerprintMismatch` |

use countertrust::cache::{PairKey, PairParts, ProfileCache};
use countertrust::grid::WorkloadSpec;
use countertrust::methods::MethodOptions;
use countertrust::serve::{EvalRequest, EvalService};
use countertrust::store::{
    checksum, SnapshotReader, SnapshotStore, SnapshotWriter, StoreError, SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
};
use ct_isa::asm::assemble;
use ct_isa::{Cfg, Program};
use ct_sim::{MachineModel, RunConfig};
use std::path::PathBuf;
use std::sync::Arc;

const HEADER_LEN: usize = 8 + 4 + 8;
const TRAILER_LEN: usize = 8;
const FP: u64 = 0x5EED_CAFE;

fn kernel() -> Program {
    assemble(
        "k",
        r#"
        .func main
            movi r1, 120
        top:
            addi r2, r2, 1
            subi r1, r1, 1
            brnz r1, top
            halt
        .endfunc
    "#,
    )
    .unwrap()
}

fn collect(machine: &MachineModel, program: &Program) -> PairParts {
    let cfg = Arc::new(Cfg::build(program));
    PairParts::collect(machine, program, &RunConfig::default(), cfg).unwrap()
}

fn valid_snapshot() -> Vec<u8> {
    let program = kernel();
    SnapshotWriter::encode(FP, &collect(&MachineModel::ivy_bridge(), &program))
}

/// Recomputes and replaces the trailing checksum — how the matrix forges
/// "intact" files whose *content* (version, fingerprint) is wrong, to
/// prove those rejections don't ride on the checksum.
fn resign(bytes: &mut [u8]) {
    let body = bytes.len() - TRAILER_LEN;
    let sum = checksum(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
}

/// A scratch directory under the target-adjacent temp root, removed on
/// drop so repeated runs never see each other's files.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("ctstore_it_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn every_single_byte_truncation_prefix_is_rejected_with_the_right_error() {
    let bytes = valid_snapshot();
    assert!(
        SnapshotReader::decode(&bytes, FP).is_ok(),
        "baseline must be valid"
    );
    for cut in 0..bytes.len() {
        let err =
            SnapshotReader::decode(&bytes[..cut], FP).expect_err("every truncation must reject");
        if cut < HEADER_LEN + TRAILER_LEN {
            assert!(
                matches!(err, StoreError::Truncated { .. }),
                "prefix {cut}: expected Truncated, got {err:?}"
            );
        } else {
            // Long enough to parse a header, but the bytes now ending
            // the file are not the checksum of what precedes them.
            assert!(
                matches!(err, StoreError::ChecksumMismatch { .. }),
                "prefix {cut}: expected ChecksumMismatch, got {err:?}"
            );
        }
    }
}

#[test]
fn a_bit_flip_in_every_region_yields_its_documented_rejection() {
    let bytes = valid_snapshot();
    for pos in 0..bytes.len() {
        let mut flipped = bytes.clone();
        flipped[pos] ^= 0x01;
        let err = SnapshotReader::decode(&flipped, FP).expect_err("every bit flip must reject");
        let expected = if pos < 8 {
            "BadMagic"
        } else if pos < 12 {
            "UnsupportedVersion"
        } else {
            // Fingerprint field, either section, or the trailer itself:
            // the checksum guards them all, and it is checked before the
            // fingerprint comparison.
            "ChecksumMismatch"
        };
        let got = match err {
            StoreError::BadMagic => "BadMagic",
            StoreError::UnsupportedVersion(_) => "UnsupportedVersion",
            StoreError::ChecksumMismatch { .. } => "ChecksumMismatch",
            other => panic!("byte {pos}: unexpected rejection {other:?}"),
        };
        assert_eq!(got, expected, "byte {pos}: wrong rejection variant");
    }
}

#[test]
fn wrong_magic_bumped_version_and_stale_fingerprint_reject_even_when_resigned() {
    let bytes = valid_snapshot();

    // A different 8-byte magic, checksum made consistent: still not a
    // snapshot.
    let mut wrong_magic = bytes.clone();
    wrong_magic[..8].copy_from_slice(b"NOTSNAP\n");
    resign(&mut wrong_magic);
    assert_eq!(
        SnapshotReader::decode(&wrong_magic, FP).err(),
        Some(StoreError::BadMagic)
    );

    // A bumped format version, checksum made consistent: version skew is
    // its own rejection, not a checksum artifact.
    let mut bumped = bytes.clone();
    bumped[8..12].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
    resign(&mut bumped);
    assert_eq!(
        SnapshotReader::decode(&bumped, FP).err(),
        Some(StoreError::UnsupportedVersion(SNAPSHOT_VERSION + 1))
    );

    // An intact snapshot of a *different pair generation* (fingerprint
    // patched and re-signed — exactly what a stale file after a catalog
    // change looks like): the staleness rejection.
    let mut stale = bytes.clone();
    stale[12..20].copy_from_slice(&(FP + 1).to_le_bytes());
    resign(&mut stale);
    assert_eq!(
        SnapshotReader::decode(&stale, FP).err(),
        Some(StoreError::FingerprintMismatch {
            expected: FP,
            found: FP + 1
        })
    );

    // And the same file read back *expecting* the patched generation is
    // structurally fine again — fingerprinting is a pure header check.
    assert!(SnapshotReader::decode(&stale, FP + 1).is_ok());

    // Sanity: the magic constant itself is what valid files carry.
    assert_eq!(&bytes[..8], SNAPSHOT_MAGIC.as_slice());
}

/// The fallback contract above the store: a corrupt snapshot must not
/// fail (or change) the request — the cache counts a snapshot reject,
/// builds cold exactly as if no store were attached, and repairs the
/// file via write-behind so the *next* cache gets a snapshot hit.
#[test]
fn profile_cache_falls_back_cold_on_corrupt_snapshot_then_repairs_it() {
    let tmp = TempDir::new("fallback");
    let store = SnapshotStore::new(&tmp.0);
    let key = PairKey::new(0, 0, 0);
    let program = kernel();
    let machine = MachineModel::ivy_bridge();

    // Plant a corrupted snapshot where the cache will look.
    let mut bytes = valid_snapshot();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(store.path_for(FP), &bytes).unwrap();

    let build = || Ok(collect(&machine, &program));

    let mut cache = ProfileCache::unbounded();
    cache.attach_snapshot_store(&tmp.0);
    let (parts, hit) = cache
        .get_or_build_with_fingerprint(key, Some(FP), build)
        .unwrap();
    assert!(!hit, "corrupt snapshot must not count as a cache hit");
    let stats = cache.stats();
    assert!(stats.snapshot_store);
    assert_eq!(
        (stats.snapshot_hits, stats.snapshot_rejects, stats.builds),
        (0, 1, 1),
        "one rejection, one cold build"
    );

    // Byte-for-byte the same outcome as a storeless cache.
    let plain = ProfileCache::unbounded();
    let (plain_parts, _) = plain.get_or_build(key, build).unwrap();
    assert_eq!(*parts.cfg, *plain_parts.cfg);
    assert_eq!(
        serde_json::to_string(&*parts.reference).unwrap(),
        serde_json::to_string(&*plain_parts.reference).unwrap()
    );

    // The cold build's write-behind replaced the corrupt file: a fresh
    // cache on the same directory now loads it — zero builds executed.
    let mut warm = ProfileCache::unbounded();
    warm.attach_snapshot_store(&tmp.0);
    let (warm_parts, _) = warm
        .get_or_build_with_fingerprint(key, Some(FP), || {
            panic!("repaired snapshot must satisfy the miss without building")
        })
        .unwrap();
    assert_eq!(*warm_parts.cfg, *parts.cfg);
    let warm_stats = warm.stats();
    assert_eq!(
        (warm_stats.snapshot_hits, warm_stats.snapshot_rejects),
        (1, 0)
    );
}

/// The same fallback, observed from the serving tier: a service whose
/// snapshot directory is filled with garbage serves byte-identically to
/// a service with no store at all.
#[test]
fn service_responses_are_byte_identical_with_a_corrupt_store() {
    let tmp = TempDir::new("service");
    let program = kernel();
    let run_config = RunConfig::default();
    let machines = [MachineModel::ivy_bridge()];
    let workloads = [WorkloadSpec {
        name: "k",
        program: &program,
        run_config: &run_config,
    }];

    let requests: Vec<EvalRequest> = ["lbr", "classic", "lbr"]
        .iter()
        .enumerate()
        .map(|(i, method)| EvalRequest {
            machine: machines[0].name.clone(),
            workload: "k".to_string(),
            method: (*method).to_string(),
            runs: 1,
            seed: 40 + i as u64,
            catalog: None,
        })
        .collect();

    let plain = EvalService::new(&machines, &workloads)
        .method_options(MethodOptions::fast())
        .threads(1);
    let expected = plain.serve_jsonl(&requests);

    // First pass fills the store; corrupt every file in place; a fresh
    // service must reject them all and still serve the same bytes.
    let seeded = EvalService::new(&machines, &workloads)
        .method_options(MethodOptions::fast())
        .threads(1)
        .snapshot_dir(&tmp.0);
    assert_eq!(seeded.serve_jsonl(&requests), expected);
    let mut corrupted = 0;
    for entry in std::fs::read_dir(&tmp.0).unwrap() {
        let path = entry.unwrap().path();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        std::fs::write(&path, &bytes).unwrap();
        corrupted += 1;
    }
    assert!(
        corrupted > 0,
        "the seeding pass must have written snapshots"
    );

    let service = EvalService::new(&machines, &workloads)
        .method_options(MethodOptions::fast())
        .threads(1)
        .snapshot_dir(&tmp.0);
    assert_eq!(
        service.serve_jsonl(&requests),
        expected,
        "corrupt snapshots changed response bytes"
    );
    let stats = service.cache_stats();
    assert_eq!(stats.snapshot_rejects as usize, corrupted);
    assert_eq!(stats.snapshot_hits, 0);
    assert!(
        stats.summary().contains("| snapshots 0 hits / 1 rejects"),
        "summary must surface the snapshot counters: {}",
        stats.summary()
    );
}
