//! Workloads as data: compiling `.ctasm` source + JSON manifest pairs
//! into ready-to-run [`Workload`]s.
//!
//! A *catalog directory* holds one JSON manifest per workload plus the
//! `.ctasm` assembler source it references:
//!
//! ```json
//! {
//!   "name": "latency_biased",
//!   "class": "kernel",
//!   "source": "00_latency_biased.ctasm",
//!   "scaled": { "N": { "base": 1900000, "min": 100 } },
//!   "run_config": { "max_insns": 2000000000 },
//!   "limits": { "max_program_insns": 65536, "max_data_words": 131072 }
//! }
//! ```
//!
//! * `name` / `class` — registry identity (`"kernel"` or `"application"`).
//! * `source` — the `.ctasm` file, relative to the manifest.
//! * `scaled` — named constants recomputed at load time: each `.const
//!   NAME` in the source is overridden with
//!   `((base * scale) as u64).max(min)`, the exact sizing rule the
//!   built-in registry has always used. A `scaled` entry naming a
//!   constant the source never defines is a typed manifest/source
//!   mismatch error, not a silent no-op.
//! * `run_config` — optional [`RunConfig`] field overrides.
//! * `limits` — optional *declared* resource bounds, intersected with
//!   the loader's enforced [`LoaderLimits`]; the assembled program must
//!   fit or loading fails with a typed error **before** anything
//!   reaches the evaluation cache.
//!
//! The built-in catalog ([`crate::all`]) and directory-loaded tenant
//! catalogs share this one construction path; built-ins are simply
//! `include_str!`-embedded pairs. Directory scans load manifests in
//! filename order, which is why the checked-in built-ins carry `NN_`
//! prefixes — a directory copy reproduces the registry order (kernels
//! then applications) byte-for-byte.

use crate::registry::{Workload, WorkloadClass};
use ct_isa::{asm, IsaError};
use ct_sim::RunConfig;
use serde::Value;
use std::collections::HashSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// Enforced resource caps for loaded workloads. Declared manifest
/// limits may tighten these but never widen them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoaderLimits {
    /// Maximum static program length in instructions.
    pub max_program_insns: usize,
    /// Maximum data segment size in words.
    pub max_data_words: usize,
    /// Maximum dynamic step limit (`RunConfig::max_insns`).
    pub max_step_limit: u64,
}

impl Default for LoaderLimits {
    fn default() -> Self {
        // Permissive: every built-in fits with orders of magnitude to
        // spare, while a hostile tenant file cannot make the serving
        // tier allocate unbounded memory or spin forever.
        Self {
            max_program_insns: 1 << 20,
            max_data_words: 1 << 22,
            max_step_limit: 1 << 40,
        }
    }
}

/// Typed loader failures. Every malformed input maps here — the loader
/// never panics on tenant-supplied bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum LoaderError {
    /// A file could not be read.
    Io { path: PathBuf, detail: String },
    /// The manifest is not valid JSON or is missing/mistyping a field.
    Manifest { path: PathBuf, detail: String },
    /// The `.ctasm` source failed to assemble (includes the
    /// manifest/source mismatch case, [`IsaError::UnknownOverride`]).
    Assemble { path: PathBuf, error: IsaError },
    /// Two manifests in one catalog declare the same workload name.
    DuplicateWorkload { name: String },
    /// The assembled program exceeds the instruction budget.
    ProgramTooLarge {
        workload: String,
        insns: usize,
        limit: usize,
    },
    /// The assembled program's data segment exceeds the word budget.
    DataSegmentTooLarge {
        workload: String,
        words: usize,
        limit: usize,
    },
    /// The manifest's `run_config.max_insns` exceeds the step budget.
    StepLimitTooLarge {
        workload: String,
        max_insns: u64,
        limit: u64,
    },
}

impl fmt::Display for LoaderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoaderError::Io { path, detail } => {
                write!(f, "{}: {detail}", path.display())
            }
            LoaderError::Manifest { path, detail } => {
                write!(f, "{}: bad manifest: {detail}", path.display())
            }
            LoaderError::Assemble { path, error } => {
                write!(f, "{}: {error}", path.display())
            }
            LoaderError::DuplicateWorkload { name } => {
                write!(f, "duplicate workload name `{name}` in catalog")
            }
            LoaderError::ProgramTooLarge {
                workload,
                insns,
                limit,
            } => write!(
                f,
                "workload `{workload}`: program has {insns} instructions, limit {limit}"
            ),
            LoaderError::DataSegmentTooLarge {
                workload,
                words,
                limit,
            } => write!(
                f,
                "workload `{workload}`: data segment is {words} words, limit {limit}"
            ),
            LoaderError::StepLimitTooLarge {
                workload,
                max_insns,
                limit,
            } => write!(
                f,
                "workload `{workload}`: step limit {max_insns} exceeds cap {limit}"
            ),
        }
    }
}

impl std::error::Error for LoaderError {}

// --- manifest parsing -------------------------------------------------------

fn bad(path: &Path, detail: impl Into<String>) -> LoaderError {
    LoaderError::Manifest {
        path: path.to_path_buf(),
        detail: detail.into(),
    }
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::UInt(u) => Some(*u),
        Value::Int(i) => u64::try_from(*i).ok(),
        _ => None,
    }
}

fn as_i64(v: &Value) -> Option<i64> {
    match v {
        Value::Int(i) => Some(*i),
        Value::UInt(u) => i64::try_from(*u).ok(),
        _ => None,
    }
}

fn req_u64(path: &Path, v: &Value, key: &str) -> Result<u64, LoaderError> {
    v.get(key)
        .and_then(as_u64)
        .ok_or_else(|| bad(path, format!("`{key}` must be a non-negative integer")))
}

/// A parsed manifest, before assembly.
struct Manifest {
    name: String,
    /// The assembled [`Program`]'s internal name; defaults to `name`.
    /// Exists because one registry workload (`xalancbmk`) names its
    /// program differently (`xalanc`), and the program name
    /// participates in structural equality and pair fingerprints.
    program_name: String,
    class: WorkloadClass,
    source: String,
    /// `(const name, base, min)` — resolved against `scale` at load.
    scaled: Vec<(String, u64, u64)>,
    run_config: RunConfig,
    declared: LoaderLimits,
}

fn parse_manifest(path: &Path, text: &str, limits: &LoaderLimits) -> Result<Manifest, LoaderError> {
    let v = serde_json::parse(text).map_err(|e| bad(path, e.to_string()))?;
    let name = match v.get("name") {
        Some(Value::Str(s)) if !s.is_empty() => s.clone(),
        _ => return Err(bad(path, "`name` must be a non-empty string")),
    };
    let class = match v.get("class") {
        Some(Value::Str(s)) if s == "kernel" => WorkloadClass::Kernel,
        Some(Value::Str(s)) if s == "application" => WorkloadClass::Application,
        _ => return Err(bad(path, "`class` must be \"kernel\" or \"application\"")),
    };
    let program_name = match v.get("program") {
        None => name.clone(),
        Some(Value::Str(s)) if !s.is_empty() => s.clone(),
        _ => return Err(bad(path, "`program` must be a non-empty string")),
    };
    let source = match v.get("source") {
        Some(Value::Str(s)) if !s.is_empty() => s.clone(),
        _ => return Err(bad(path, "`source` must name a .ctasm file")),
    };
    let mut scaled = Vec::new();
    if let Some(s) = v.get("scaled") {
        let entries = s
            .as_map()
            .ok_or_else(|| bad(path, "`scaled` must be a map of const name -> {base, min}"))?;
        for (cname, spec) in entries {
            let base = req_u64(path, spec, "base")
                .map_err(|_| bad(path, format!("scaled `{cname}`: `base` must be an integer")))?;
            let min = match spec.get("min") {
                None => 0,
                Some(m) => {
                    as_u64(m).ok_or_else(|| bad(path, format!("scaled `{cname}`: bad `min`")))?
                }
            };
            scaled.push((cname.clone(), base, min));
        }
    }
    let mut run_config = RunConfig::default();
    if let Some(rc) = v.get("run_config") {
        if rc.as_map().is_none() {
            return Err(bad(path, "`run_config` must be a map"));
        }
        if let Some(mi) = rc.get("max_insns") {
            run_config.max_insns =
                as_u64(mi).ok_or_else(|| bad(path, "`run_config.max_insns` must be an integer"))?;
        }
        if let Some(args) = rc.get("args") {
            let seq = args
                .as_seq()
                .ok_or_else(|| bad(path, "`run_config.args` must be a list of integers"))?;
            run_config.args = seq
                .iter()
                .map(|a| {
                    as_i64(a)
                        .ok_or_else(|| bad(path, "`run_config.args` must be a list of integers"))
                })
                .collect::<Result<_, _>>()?;
        }
        if let Some(cs) = rc.get("call_stack_limit") {
            let raw = as_u64(cs)
                .ok_or_else(|| bad(path, "`run_config.call_stack_limit` must be an integer"))?;
            run_config.call_stack_limit = usize::try_from(raw)
                .map_err(|_| bad(path, "`run_config.call_stack_limit` out of range"))?;
        }
    }
    // Declared limits tighten the enforced caps, never widen them.
    let mut declared = *limits;
    if let Some(l) = v.get("limits") {
        if l.as_map().is_none() {
            return Err(bad(path, "`limits` must be a map"));
        }
        if let Some(x) = l.get("max_program_insns") {
            let raw = as_u64(x).ok_or_else(|| bad(path, "`limits.max_program_insns`"))?;
            declared.max_program_insns = declared
                .max_program_insns
                .min(usize::try_from(raw).unwrap_or(usize::MAX));
        }
        if let Some(x) = l.get("max_data_words") {
            let raw = as_u64(x).ok_or_else(|| bad(path, "`limits.max_data_words`"))?;
            declared.max_data_words = declared
                .max_data_words
                .min(usize::try_from(raw).unwrap_or(usize::MAX));
        }
        if let Some(x) = l.get("max_step_limit") {
            let raw = as_u64(x).ok_or_else(|| bad(path, "`limits.max_step_limit`"))?;
            declared.max_step_limit = declared.max_step_limit.min(raw);
        }
    }
    Ok(Manifest {
        name,
        program_name,
        class,
        source,
        scaled,
        run_config,
        declared,
    })
}

// --- loading ----------------------------------------------------------------

/// The registry's sizing rule, applied to a manifest `scaled` entry.
fn scaled_value(base: u64, min: u64, scale: f64) -> i64 {
    let v = ((base as f64 * scale) as u64).max(min);
    i64::try_from(v).unwrap_or(i64::MAX)
}

/// Compiles one manifest + source pair into a [`Workload`]. `path` is
/// the manifest's path (or an `embedded:` label for built-ins), used in
/// diagnostics only.
pub fn load_pair(
    path: &Path,
    manifest_text: &str,
    source_text: &str,
    scale: f64,
    limits: &LoaderLimits,
) -> Result<Workload, LoaderError> {
    let m = parse_manifest(path, manifest_text, limits)?;
    compile(path, m, source_text, scale)
}

/// Assembles and limit-checks an already-parsed manifest against its
/// source — the single back half shared by [`load_pair`], [`load_dir`]
/// and [`load_named`], so each manifest is parsed exactly once.
fn compile(
    path: &Path,
    m: Manifest,
    source_text: &str,
    scale: f64,
) -> Result<Workload, LoaderError> {
    let overrides: Vec<(String, i64)> = m
        .scaled
        .iter()
        .map(|(name, base, min)| (name.clone(), scaled_value(*base, *min, scale)))
        .collect();
    let override_refs: Vec<(&str, i64)> = overrides.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let program =
        asm::assemble_with(&m.program_name, source_text, &override_refs).map_err(|error| {
            LoaderError::Assemble {
                path: path.with_file_name(&m.source),
                error,
            }
        })?;
    if program.insns.len() > m.declared.max_program_insns {
        return Err(LoaderError::ProgramTooLarge {
            workload: m.name,
            insns: program.insns.len(),
            limit: m.declared.max_program_insns,
        });
    }
    if program.data_words > m.declared.max_data_words {
        return Err(LoaderError::DataSegmentTooLarge {
            workload: m.name,
            words: program.data_words,
            limit: m.declared.max_data_words,
        });
    }
    if m.run_config.max_insns > m.declared.max_step_limit {
        return Err(LoaderError::StepLimitTooLarge {
            workload: m.name,
            max_insns: m.run_config.max_insns,
            limit: m.declared.max_step_limit,
        });
    }
    Ok(Workload {
        name: m.name,
        class: m.class,
        program,
        run_config: m.run_config,
    })
}

/// Loads every workload in a catalog directory: each `*.json` manifest
/// (in filename order) plus the `.ctasm` source it references. Fails on
/// the first malformed pair or duplicate workload name.
pub fn load_dir(
    dir: impl AsRef<Path>,
    scale: f64,
    limits: &LoaderLimits,
) -> Result<Vec<Workload>, LoaderError> {
    let dir = dir.as_ref();
    let entries = std::fs::read_dir(dir).map_err(|e| LoaderError::Io {
        path: dir.to_path_buf(),
        detail: e.to_string(),
    })?;
    let mut manifests: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    manifests.sort();
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(manifests.len());
    for mpath in manifests {
        let manifest_text = std::fs::read_to_string(&mpath).map_err(|e| LoaderError::Io {
            path: mpath.clone(),
            detail: e.to_string(),
        })?;
        // Resolve `source` relative to the manifest; parse first so the
        // error for a broken manifest names the manifest, not the
        // source file.
        let m = parse_manifest(&mpath, &manifest_text, limits)?;
        let spath = mpath.with_file_name(&m.source);
        let source_text = std::fs::read_to_string(&spath).map_err(|e| LoaderError::Io {
            path: spath.clone(),
            detail: e.to_string(),
        })?;
        let w = compile(&mpath, m, &source_text, scale)?;
        if !seen.insert(w.name.clone()) {
            return Err(LoaderError::DuplicateWorkload { name: w.name });
        }
        out.push(w);
    }
    Ok(out)
}

/// Loads embedded (manifest, source) text pairs — the built-in catalog
/// path. `label` appears in diagnostics in place of a filesystem path.
pub fn load_embedded(
    pairs: &[(&str, &str, &str)],
    scale: f64,
    limits: &LoaderLimits,
) -> Result<Vec<Workload>, LoaderError> {
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(pairs.len());
    for (label, manifest_text, source_text) in pairs {
        let path = Path::new("embedded:").join(label);
        let w = load_pair(&path, manifest_text, source_text, scale, limits)?;
        if !seen.insert(w.name.clone()) {
            return Err(LoaderError::DuplicateWorkload { name: w.name });
        }
        out.push(w);
    }
    Ok(out)
}

/// Compiles the embedded pair whose manifest names `name`, with every
/// `scaled` constant set to exactly `n` instead of through the sizing
/// rule. `Ok(None)` when no manifest in `pairs` names `name`.
pub(crate) fn load_named(
    pairs: &[(&str, &str, &str)],
    name: &str,
    n: u64,
) -> Result<Option<Workload>, LoaderError> {
    for (label, manifest_text, source_text) in pairs {
        let path = Path::new("embedded:").join(label);
        let mut m = parse_manifest(&path, manifest_text, &LoaderLimits::default())?;
        if m.name == name {
            // At scale 0 the sizing rule yields exactly each entry's `min`.
            for (_, _, min) in &mut m.scaled {
                *min = n;
            }
            return compile(&path, m, source_text, 0.0).map(Some);
        }
    }
    Ok(None)
}
