//! The loader's rejection matrix: every malformed catalog input maps to
//! a typed [`LoaderError`], never a panic, and never reaches a
//! [`Workload`]. Each test is one cell of the matrix.

use ct_isa::IsaError;
use ct_workloads::loader::{self, LoaderError, LoaderLimits};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

const OK_SOURCE: &str = "\
.const N = 1000
.data 8
.func main
    movi r1, N
top:
    subi r1, r1, 1
    brnz r1, top
    halt
.endfunc
";

fn manifest(extra: &str) -> String {
    format!(
        "{{\n  \"name\": \"demo\",\n  \"class\": \"kernel\",\n  \"source\": \"demo.ctasm\",\n  \"scaled\": {{ \"N\": {{ \"base\": 1000, \"min\": 10 }} }}{extra}\n}}\n"
    )
}

fn load(manifest_text: &str, source: &str) -> Result<ct_workloads::Workload, LoaderError> {
    loader::load_pair(
        Path::new("test.json"),
        manifest_text,
        source,
        1.0,
        &LoaderLimits::default(),
    )
}

/// A fresh scratch directory per test, cleaned up on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Self {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ct_loader_test_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn write(&self, name: &str, contents: &str) {
        std::fs::write(self.0.join(name), contents).unwrap();
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn well_formed_pair_loads() {
    let w = load(&manifest(""), OK_SOURCE).unwrap();
    assert_eq!(w.name, "demo");
    assert_eq!(
        w.program.insns[0].op,
        ct_isa::Opcode::MovI(ct_isa::Reg::new(1), 1000)
    );
}

#[test]
fn oversized_data_segment_is_rejected() {
    let m = manifest(",\n  \"limits\": { \"max_data_words\": 4 }");
    match load(&m, OK_SOURCE).unwrap_err() {
        LoaderError::DataSegmentTooLarge {
            workload,
            words,
            limit,
        } => {
            assert_eq!(workload, "demo");
            assert_eq!(words, 8);
            assert_eq!(limit, 4);
        }
        other => panic!("expected DataSegmentTooLarge, got {other}"),
    }
}

#[test]
fn enforced_data_cap_applies_even_without_declared_limits() {
    let limits = LoaderLimits {
        max_data_words: 4,
        ..LoaderLimits::default()
    };
    let e = loader::load_pair(
        Path::new("test.json"),
        &manifest(""),
        OK_SOURCE,
        1.0,
        &limits,
    )
    .unwrap_err();
    assert!(matches!(e, LoaderError::DataSegmentTooLarge { .. }));
}

#[test]
fn declared_limits_cannot_widen_enforced_caps() {
    let limits = LoaderLimits {
        max_data_words: 4,
        ..LoaderLimits::default()
    };
    // The manifest declares a generous limit; the enforced cap still wins.
    let m = manifest(",\n  \"limits\": { \"max_data_words\": 1000000 }");
    let e = loader::load_pair(Path::new("test.json"), &m, OK_SOURCE, 1.0, &limits).unwrap_err();
    assert!(matches!(
        e,
        LoaderError::DataSegmentTooLarge { limit: 4, .. }
    ));
}

#[test]
fn oversized_program_is_rejected() {
    let m = manifest(",\n  \"limits\": { \"max_program_insns\": 3 }");
    match load(&m, OK_SOURCE).unwrap_err() {
        LoaderError::ProgramTooLarge { insns, limit, .. } => {
            assert_eq!(insns, 4);
            assert_eq!(limit, 3);
        }
        other => panic!("expected ProgramTooLarge, got {other}"),
    }
}

#[test]
fn step_limit_overflow_is_rejected() {
    let m = manifest(
        ",\n  \"run_config\": { \"max_insns\": 5000 },\n  \"limits\": { \"max_step_limit\": 4999 }",
    );
    match load(&m, OK_SOURCE).unwrap_err() {
        LoaderError::StepLimitTooLarge {
            max_insns, limit, ..
        } => {
            assert_eq!(max_insns, 5000);
            assert_eq!(limit, 4999);
        }
        other => panic!("expected StepLimitTooLarge, got {other}"),
    }
}

#[test]
fn huge_init_range_is_rejected_at_assembly_not_oom() {
    // A hostile range fill must die inside the assembler as a typed
    // error, before it can allocate 2^62 init entries — the loader's
    // post-assembly data cap would be far too late.
    let bad_src = ".const N = 1000\n.init 0..0x4000000000000000, 1\n.func main\n halt\n.endfunc\n";
    match load(&manifest(""), bad_src).unwrap_err() {
        LoaderError::Assemble { error, .. } => {
            assert!(
                matches!(error, IsaError::DataTooLarge { line: 2, .. }),
                "expected DataTooLarge, got {error:?}"
            );
        }
        other => panic!("expected Assemble(DataTooLarge), got {other}"),
    }
}

#[test]
fn manifest_source_mismatch_is_typed() {
    // The manifest scales a constant the source never defines.
    let m = "{\n  \"name\": \"demo\",\n  \"class\": \"kernel\",\n  \"source\": \"demo.ctasm\",\n  \"scaled\": { \"MISSING\": { \"base\": 7 } }\n}\n";
    match load(m, OK_SOURCE).unwrap_err() {
        LoaderError::Assemble { error, .. } => {
            assert_eq!(
                error,
                IsaError::UnknownOverride {
                    name: "MISSING".into()
                }
            );
        }
        other => panic!("expected Assemble(UnknownOverride), got {other}"),
    }
}

#[test]
fn assembler_syntax_error_carries_position() {
    let bad_src = ".func main\n frobnicate r1\n halt\n.endfunc\n";
    match load(&manifest(""), bad_src).unwrap_err() {
        LoaderError::Assemble { error, .. } => {
            assert!(matches!(error, IsaError::Parse { line: 2, .. }));
        }
        other => panic!("expected Assemble(Parse), got {other}"),
    }
}

#[test]
fn malformed_manifest_json_is_typed() {
    let e = load("{ not json", OK_SOURCE).unwrap_err();
    assert!(matches!(e, LoaderError::Manifest { .. }), "got {e}");
}

#[test]
fn manifest_missing_fields_are_typed() {
    for m in [
        "{}",
        "{\"name\": \"x\"}",
        "{\"name\": \"x\", \"class\": \"nonsense\", \"source\": \"x.ctasm\"}",
        "{\"name\": \"x\", \"class\": \"kernel\"}",
        "{\"name\": \"x\", \"class\": \"kernel\", \"source\": \"s.ctasm\", \"scaled\": 3}",
        "{\"name\": \"x\", \"class\": \"kernel\", \"source\": \"s.ctasm\", \"run_config\": {\"max_insns\": \"many\"}}",
    ] {
        let e = load(m, OK_SOURCE).unwrap_err();
        assert!(matches!(e, LoaderError::Manifest { .. }), "{m}: got {e}");
    }
}

#[test]
fn duplicate_workload_names_across_manifests_are_rejected() {
    let dir = Scratch::new();
    dir.write("a.json", &manifest("").replace("demo.ctasm", "a.ctasm"));
    dir.write("a.ctasm", OK_SOURCE);
    dir.write("b.json", &manifest("").replace("demo.ctasm", "b.ctasm"));
    dir.write("b.ctasm", OK_SOURCE);
    let e = loader::load_dir(&dir.0, 1.0, &LoaderLimits::default()).unwrap_err();
    assert_eq!(
        e,
        LoaderError::DuplicateWorkload {
            name: "demo".into()
        }
    );
}

#[test]
fn missing_source_file_is_io_error() {
    let dir = Scratch::new();
    dir.write("a.json", &manifest(""));
    // demo.ctasm is never written.
    let e = loader::load_dir(&dir.0, 1.0, &LoaderLimits::default()).unwrap_err();
    assert!(matches!(e, LoaderError::Io { .. }), "got {e}");
}

#[test]
fn missing_directory_is_io_error() {
    let e =
        loader::load_dir("/nonexistent/catalog/dir", 1.0, &LoaderLimits::default()).unwrap_err();
    assert!(matches!(e, LoaderError::Io { .. }));
}

#[test]
fn load_dir_orders_by_filename_and_scales() {
    let dir = Scratch::new();
    // Written out of order; loaded in filename order.
    dir.write(
        "01_second.json",
        "{\"name\": \"second\", \"class\": \"application\", \"source\": \"01_second.ctasm\"}",
    );
    dir.write("01_second.ctasm", ".func main\n halt\n.endfunc\n");
    dir.write(
        "00_first.json",
        &manifest("")
            .replace("\"demo\"", "\"first\"")
            .replace("demo.ctasm", "00_first.ctasm"),
    );
    dir.write("00_first.ctasm", OK_SOURCE);
    let ws = loader::load_dir(&dir.0, 0.1, &LoaderLimits::default()).unwrap();
    let names: Vec<&str> = ws.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(names, ["first", "second"]);
    // base 1000 at scale 0.1 → 100.
    assert_eq!(
        ws[0].program.insns[0].op,
        ct_isa::Opcode::MovI(ct_isa::Reg::new(1), 100)
    );
    assert_eq!(ws[1].class, ct_workloads::WorkloadClass::Application);
}

/// A directory copy of the checked-in built-ins loads to exactly the
/// registry's workload list, so a catalog served from disk answers like
/// the compiled-in one.
#[test]
fn programs_dir_loads_identical_to_registry() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("programs");
    let loaded = loader::load_dir(&dir, 0.01, &LoaderLimits::default()).unwrap();
    let builtin = ct_workloads::all(0.01);
    assert_eq!(loaded.len(), builtin.len());
    for (l, b) in loaded.iter().zip(&builtin) {
        assert_eq!(l.name, b.name);
        assert_eq!(l.class, b.class);
        assert_eq!(l.program, b.program, "{}", l.name);
        assert_eq!(l.run_config.max_insns, b.run_config.max_insns);
        assert_eq!(l.run_config.args, b.run_config.args);
        assert_eq!(l.run_config.call_stack_limit, b.run_config.call_stack_limit);
    }
}
