//! A two-level set-associative data-cache model with LRU replacement.
//!
//! Loads are the only variable-latency instructions in the machine model;
//! the cache determines whether a load completes in the L1/L2 hit latency
//! or stalls retirement for a memory round trip. The mcf application proxy
//! relies on this: its pointer-chasing loads miss constantly, producing the
//! long-latency shadows that make classic sampling inaccurate on it.
//!
//! The layout is built for the interpreter's per-access hot path: set
//! counts are validated powers of two so set selection is a mask (never a
//! division), each way packs its tag and LRU stamp side by side so one
//! probe walks a single contiguous stretch of memory, and the hit scan and
//! LRU victim scan are fused into one pass. [`CacheModel::reset`] restores
//! the cold state without reallocating, so a replay loop reuses the arrays
//! run over run.

use crate::error::SimError;
use crate::machine::CacheConfig;

/// One way of one set: the line tag and its LRU stamp, packed so a set
/// probe touches one contiguous run of `Way`s.
#[derive(Debug, Clone, Copy)]
struct Way {
    /// Installed line tag; `u64::MAX` marks a never-filled way.
    tag: u64,
    /// Stamp from the model's access clock; lowest stamp is the LRU
    /// victim.
    stamp: u64,
}

const INVALID: Way = Way {
    tag: u64::MAX,
    stamp: 0,
};

/// One set-associative cache level (tags only; data values live in the
/// executor's flat memory).
#[derive(Debug, Clone)]
struct Level {
    /// `ways[set * ways_per_set + way]`, set-major.
    ways: Vec<Way>,
    /// `sets - 1`; the set count is a validated power of two.
    set_mask: u64,
    ways_per_set: usize,
}

impl Level {
    /// Builds the level. Geometry must already be validated by
    /// [`CacheConfig::validate`] (exact power-of-two set count).
    fn new(words: usize, ways: usize, line_words: usize) -> Self {
        let lines = words / line_words;
        let sets = lines / ways;
        debug_assert!(sets.is_power_of_two() && sets * ways == lines);
        Self {
            ways: vec![INVALID; sets * ways],
            set_mask: sets as u64 - 1,
            ways_per_set: ways,
        }
    }

    /// Invalidates every way without reallocating.
    fn reset(&mut self) {
        self.ways.fill(INVALID);
    }

    /// Probes for `line`; on miss, installs it (evicting the LRU way).
    /// Returns whether the probe hit. One fused pass finds both the hit
    /// way and the LRU victim: a strict `<` keeps the first
    /// lowest-stamped way, matching the old `min_by_key` tie-break.
    #[inline]
    fn access(&mut self, line: u64, now: u64) -> bool {
        let base = (line & self.set_mask) as usize * self.ways_per_set;
        let set = &mut self.ways[base..base + self.ways_per_set];
        let mut victim = 0usize;
        let mut victim_stamp = u64::MAX;
        for (w, way) in set.iter_mut().enumerate() {
            if way.tag == line {
                way.stamp = now;
                return true;
            }
            if way.stamp < victim_stamp {
                victim_stamp = way.stamp;
                victim = w;
            }
        }
        set[victim] = Way {
            tag: line,
            stamp: now,
        };
        false
    }
}

/// The two-level hierarchy.
#[derive(Debug, Clone)]
pub struct CacheModel {
    l1: Level,
    l2: Level,
    cfg: CacheConfig,
    /// `log2(line_words)`: line extraction is a shift, never a division.
    line_shift: u32,
    clock: u64,
    hits_l1: u64,
    hits_l2: u64,
    misses: u64,
}

impl CacheModel {
    /// Builds the hierarchy for a machine's cache geometry, rejecting
    /// degenerate configurations (see [`CacheConfig::validate`]).
    pub fn new(cfg: CacheConfig) -> Result<Self, SimError> {
        cfg.validate()?;
        Ok(Self {
            l1: Level::new(cfg.l1_words, cfg.l1_ways, cfg.line_words),
            l2: Level::new(cfg.l2_words, cfg.l2_ways, cfg.line_words),
            cfg,
            line_shift: cfg.line_words.trailing_zeros(),
            clock: 0,
            hits_l1: 0,
            hits_l2: 0,
            misses: 0,
        })
    }

    /// Restores the cold state (all ways invalid, counters zero) without
    /// reallocating either level's way array.
    pub fn reset(&mut self) {
        self.l1.reset();
        self.l2.reset();
        self.clock = 0;
        self.hits_l1 = 0;
        self.hits_l2 = 0;
        self.misses = 0;
    }

    /// Accesses the word at `word_addr`, returning the access latency in
    /// cycles. Both loads and stores probe the hierarchy (write-allocate);
    /// the L1 and L2 probes share one clock tick and one line extraction.
    #[inline]
    pub fn access(&mut self, word_addr: u64) -> u32 {
        self.clock += 1;
        let line = word_addr >> self.line_shift;
        if self.l1.access(line, self.clock) {
            self.hits_l1 += 1;
            self.cfg.l1_latency
        } else if self.l2.access(line, self.clock) {
            self.hits_l2 += 1;
            self.cfg.l2_latency
        } else {
            self.misses += 1;
            self.cfg.mem_latency
        }
    }

    /// (L1 hits, L2 hits, memory accesses) so far.
    #[must_use]
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits_l1, self.hits_l2, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> CacheConfig {
        CacheConfig {
            l1_words: 64, // 8 lines
            l1_ways: 2,
            l2_words: 256, // 32 lines
            l2_ways: 4,
            line_words: 8,
            l1_latency: 4,
            l2_latency: 12,
            mem_latency: 150,
        }
    }

    fn model(cfg: CacheConfig) -> CacheModel {
        CacheModel::new(cfg).expect("test geometry is valid")
    }

    #[test]
    fn first_touch_misses_then_hits() {
        let mut c = model(tiny_cfg());
        assert_eq!(c.access(0), 150);
        assert_eq!(c.access(1), 4); // same line
        assert_eq!(c.access(7), 4);
        assert_eq!(c.access(8), 150); // next line
    }

    #[test]
    fn working_set_larger_than_l1_spills_to_l2() {
        let mut c = model(tiny_cfg());
        // Touch 16 lines: twice the L1 capacity, within L2.
        for line in 0..16u64 {
            c.access(line * 8);
        }
        // Re-touch: everything left L1 (capacity 8 lines) for the first
        // half; those should hit in L2 now.
        let lat = c.access(0);
        assert_eq!(lat, 12, "evicted from L1 but resident in L2");
    }

    #[test]
    fn streaming_beyond_l2_misses_to_memory() {
        let mut c = model(tiny_cfg());
        for line in 0..1000u64 {
            c.access(line * 8);
        }
        // A line far in the past is gone from both levels.
        assert_eq!(c.access(0), 150);
        let (h1, _h2, miss) = c.stats();
        assert!(miss > h1);
    }

    #[test]
    fn lru_keeps_hot_line() {
        let mut c = model(tiny_cfg());
        // 4 sets in L1 (8 lines / 2 ways). Lines 0, 4, 8 map to set 0.
        c.access(0); // install line 0
        c.access(4 * 8); // install line 4 (set 0)
        c.access(0); // touch line 0 -> line 4 is LRU
        c.access(8 * 8); // install line 8, evicts line 4
        assert_eq!(c.access(0), 4, "hot line survived");
    }

    #[test]
    fn stats_accumulate() {
        let mut c = model(tiny_cfg());
        c.access(0);
        c.access(0);
        c.access(0);
        let (h1, h2, m) = c.stats();
        assert_eq!((h1, h2, m), (2, 0, 1));
    }

    #[test]
    fn reset_restores_the_cold_state() {
        let mut c = model(tiny_cfg());
        for line in 0..1000u64 {
            c.access(line * 8);
        }
        c.reset();
        assert_eq!(c.stats(), (0, 0, 0), "counters cleared");
        // The exact cold-start behavior repeats: first touch misses to
        // memory, the line then hits in L1.
        assert_eq!(c.access(0), 150);
        assert_eq!(c.access(1), 4);
    }

    #[test]
    fn reset_replay_is_bit_identical_to_a_fresh_model() {
        let pattern: Vec<u64> = (0..500u64).map(|i| (i * 37) % 4096).collect();
        let mut reused = model(tiny_cfg());
        for &a in &pattern {
            reused.access(a);
        }
        reused.reset();
        let mut fresh = model(tiny_cfg());
        for &a in &pattern {
            assert_eq!(reused.access(a), fresh.access(a), "latency diverged at {a}");
        }
        assert_eq!(reused.stats(), fresh.stats());
    }

    #[test]
    fn degenerate_geometries_are_typed_errors() {
        // ways > lines: 64 words / 8-word lines = 8 lines, 16 ways.
        let too_many_ways = CacheConfig {
            l1_ways: 16,
            ..tiny_cfg()
        };
        assert!(matches!(
            CacheModel::new(too_many_ways),
            Err(SimError::BadCacheGeometry { level: "L1", .. })
        ));
        // words < line_words: a 4-word L2 with 8-word lines has no lines.
        let short_level = CacheConfig {
            l2_words: 4,
            ..tiny_cfg()
        };
        assert!(matches!(
            CacheModel::new(short_level),
            Err(SimError::BadCacheGeometry { level: "L2", .. })
        ));
        // Non-power-of-two line size.
        let odd_line = CacheConfig {
            line_words: 6,
            ..tiny_cfg()
        };
        assert!(CacheModel::new(odd_line).is_err());
        // Non-power-of-two set count: 24 lines / 2 ways = 12 sets.
        let odd_sets = CacheConfig {
            l1_words: 192,
            ..tiny_cfg()
        };
        assert!(CacheModel::new(odd_sets).is_err());
        // Zero ways.
        let no_ways = CacheConfig {
            l1_ways: 0,
            ..tiny_cfg()
        };
        assert!(CacheModel::new(no_ways).is_err());
    }

    #[test]
    fn paper_machine_geometries_validate() {
        for m in crate::machine::MachineModel::paper_machines() {
            assert!(
                CacheModel::new(m.cache).is_ok(),
                "{} has an unmodelable cache geometry",
                m.name
            );
        }
    }
}
