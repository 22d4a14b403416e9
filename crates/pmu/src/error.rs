//! PMU configuration errors.

use std::fmt;

/// Errors raised when a sampler configuration does not match the machine's
/// PMU capabilities — the simulation equivalent of perf refusing an event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PmuError {
    /// PEBS requested on a machine without PEBS.
    PebsUnsupported { machine: String },
    /// PDIR requested on a machine without `INST_RETIRED.PREC_DIST`
    /// (e.g. Westmere).
    PdirUnsupported { machine: String },
    /// IBS requested on a non-AMD machine.
    IbsUnsupported { machine: String },
    /// LBR collection requested but the machine has no LBR facility
    /// (e.g. Magny-Cours).
    LbrUnsupported { machine: String },
    /// The fixed-counter event was requested on a machine without a fixed
    /// architectural counter.
    FixedCounterUnsupported { machine: String },
    /// A sampling period of zero was configured.
    ZeroPeriod,
    /// A randomization width the period generator cannot draw from:
    /// software randomization takes `1..=62` bits, hardware LSB
    /// randomization `0..=63`.
    RandomizationBits { bits: u32, min: u32, max: u32 },
    /// A period policy whose largest reload value does not fit the
    /// counter, which holds at most `i64::MAX` events.
    PeriodTooLarge { max_reload: u64 },
}

impl fmt::Display for PmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PmuError::PebsUnsupported { machine } => {
                write!(f, "{machine}: PEBS precise sampling not supported")
            }
            PmuError::PdirUnsupported { machine } => {
                write!(f, "{machine}: INST_RETIRED.PREC_DIST (PDIR) not supported")
            }
            PmuError::IbsUnsupported { machine } => {
                write!(f, "{machine}: IBS not supported")
            }
            PmuError::LbrUnsupported { machine } => {
                write!(f, "{machine}: no LBR facility")
            }
            PmuError::FixedCounterUnsupported { machine } => {
                write!(f, "{machine}: no fixed architectural counter")
            }
            PmuError::ZeroPeriod => write!(f, "sampling period must be non-zero"),
            PmuError::RandomizationBits { bits, min, max } => {
                write!(
                    f,
                    "period randomization width {bits} is outside {min}..={max} bits"
                )
            }
            PmuError::PeriodTooLarge { max_reload } => {
                write!(
                    f,
                    "largest period reload {max_reload} exceeds the counter's 2^63 - 1"
                )
            }
        }
    }
}

impl std::error::Error for PmuError {}
