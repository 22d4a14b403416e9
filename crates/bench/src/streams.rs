//! Request-stream generation for the serving tests and `perfbench`.
//!
//! Both drive the [`countertrust::serve::EvalService`] with synthetic
//! JSON-lines request workloads whose pair-popularity distribution is
//! the experiment knob:
//!
//! * [`StreamPattern::Hot`] — most requests hammer one pair (best case
//!   for any cache);
//! * [`StreamPattern::Cold`] — round-robin over every pair, never
//!   re-touching one until all others were visited (worst case for a
//!   bounded LRU);
//! * [`StreamPattern::Zipfian`] — popularity `∝ 1/rank`, the classic
//!   web-traffic shape and the benchmark's headline distribution;
//! * [`StreamPattern::Mixed`] — a two-tenant interference workload: a
//!   hot default-catalog tenant owning [`MIXED_HOT_SHARE_PCT`]% of the
//!   stream and a cold tenant (catalog [`MIXED_COLD_CATALOG`]) owning
//!   the rest, both zipfian over the pair table — the stream behind the
//!   `mixed_tenant_zipfian` golden probe of two tenants sharing one
//!   bounded LRU cache.
//!
//! Streams are pure functions of their seed: the same
//! [`StreamConfig`] always generates the same requests, so two services
//! fed the same stream can be compared byte for byte.

use countertrust::grid::GridMethod;
use countertrust::methods::MethodOptions;
use countertrust::serve::EvalRequest;
use ct_sim::MachineModel;
use ct_workloads::Workload;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The catalog name cold-tenant requests of a [`StreamPattern::Mixed`]
/// stream carry — services benchmarking that pattern must register a
/// catalog under this name.
pub const MIXED_COLD_CATALOG: &str = "tenant-b";

/// Share of a [`StreamPattern::Mixed`] stream belonging to the hot
/// default-catalog tenant, in percent (the cold tenant gets the rest).
pub const MIXED_HOT_SHARE_PCT: u64 = 90;

/// Pair-popularity distribution of a generated request stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamPattern {
    /// ~85% of requests hit the first pair, the rest spread uniformly.
    Hot,
    /// Round-robin over all pairs (no temporal locality at all).
    Cold,
    /// Zipf-distributed pair popularity with exponent 1 (`weight(rank) =
    /// 1/(rank+1)`).
    Zipfian,
    /// Two-tenant interference mix: [`MIXED_HOT_SHARE_PCT`]% of requests
    /// from a hot default-catalog tenant, the rest from a cold tenant
    /// named [`MIXED_COLD_CATALOG`], each independently zipfian over the
    /// pair table.
    Mixed,
}

impl StreamPattern {
    /// The short name of this pattern (`hot` / `cold` / `zipfian` /
    /// `mixed`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Hot => "hot",
            Self::Cold => "cold",
            Self::Zipfian => "zipfian",
            Self::Mixed => "mixed",
        }
    }

    /// Whether streams of this pattern name a second catalog
    /// ([`MIXED_COLD_CATALOG`]) that the serving side must register.
    #[must_use]
    pub fn is_multi_tenant(self) -> bool {
        self == Self::Mixed
    }
}

/// Shape of a generated request stream.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Pair-popularity distribution.
    pub pattern: StreamPattern,
    /// Number of requests to generate.
    pub requests: usize,
    /// Stream seed: both the generator RNG and the per-request base
    /// seeds derive from it.
    pub seed: u64,
    /// Measurement runs per request.
    pub runs: usize,
}

/// An incremental request-stream generator.
///
/// Historically [`request_stream`] re-seeded its RNG on every call, so a
/// caller that wanted "the first 200 requests now, the next 200 later"
/// had to regenerate (or re-parse JSONL) from the start. The generator
/// owns the live RNG instead: [`StreamGenerator::take`] can be called
/// repeatedly and the concatenation of the chunks is exactly the stream
/// a single big `take` would have produced.
///
/// The pair/label tables are built once at construction; per-request
/// generation is just RNG draws and string clones.
pub struct StreamGenerator {
    machine_names: Vec<String>,
    workload_names: Vec<String>,
    labels: Vec<Vec<String>>,
    pairs: Vec<(usize, usize)>,
    weights: Vec<u64>,
    total_weight: u64,
    pattern: StreamPattern,
    runs: usize,
    rng: SmallRng,
    /// Index of the next request (drives the Cold round-robin).
    position: usize,
}

impl StreamGenerator {
    /// Builds a generator over the full `machines × workloads` catalog,
    /// naming only methods each machine supports (resolved through
    /// [`GridMethod::standard`], so AMD streams never ask for LBR).
    ///
    /// The stream is a pure function of `config` and the catalog order.
    #[must_use]
    pub fn new(
        machines: &[MachineModel],
        workloads: &[Workload],
        opts: &MethodOptions,
        config: &StreamConfig,
    ) -> Self {
        assert!(
            !machines.is_empty() && !workloads.is_empty(),
            "empty catalog"
        );
        // Pair table, machine-major, with each machine's supported labels.
        let labels: Vec<Vec<String>> = machines
            .iter()
            .map(|m| {
                GridMethod::standard(m, opts)
                    .into_iter()
                    .map(|g| g.label)
                    .collect()
            })
            .collect();
        let pairs: Vec<(usize, usize)> = (0..machines.len())
            .flat_map(|m| (0..workloads.len()).map(move |w| (m, w)))
            .collect();

        // Integer cumulative weights (the vendored rand has no float ranges).
        const SCALE: u64 = 1_000_000;
        let weights: Vec<u64> = match config.pattern {
            StreamPattern::Hot => {
                let rest = if pairs.len() > 1 {
                    (SCALE * 15 / 100) / (pairs.len() as u64 - 1).max(1)
                } else {
                    0
                };
                (0..pairs.len())
                    .map(|i| {
                        if i == 0 {
                            SCALE * 85 / 100
                        } else {
                            rest.max(1)
                        }
                    })
                    .collect()
            }
            StreamPattern::Cold => vec![1; pairs.len()],
            StreamPattern::Zipfian | StreamPattern::Mixed => (0..pairs.len())
                .map(|i| (SCALE / (i as u64 + 1)).max(1))
                .collect(),
        };
        let total_weight = weights.iter().sum();

        Self {
            machine_names: machines.iter().map(|m| m.name.clone()).collect(),
            workload_names: workloads.iter().map(|w| w.name.clone()).collect(),
            labels,
            pairs,
            weights,
            total_weight,
            pattern: config.pattern,
            runs: config.runs,
            rng: SmallRng::seed_from_u64(config.seed ^ 0x5EED_57EA_4D00_0AB1),
            position: 0,
        }
    }

    /// Generates the next request of the stream.
    pub fn next_request(&mut self) -> EvalRequest {
        let i = self.position;
        self.position += 1;
        let (m, w) = match self.pattern {
            // Cold is strict round-robin; the weighted draw handles the rest.
            StreamPattern::Cold => self.pairs[i % self.pairs.len()],
            _ => {
                let mut pick = self.rng.gen_range(0..self.total_weight);
                let mut chosen = self.pairs[self.pairs.len() - 1];
                for (pair, weight) in self.pairs.iter().zip(&self.weights) {
                    if pick < *weight {
                        chosen = *pair;
                        break;
                    }
                    pick -= weight;
                }
                chosen
            }
        };
        // Mixed streams split the SAME zipfian pair draw across two
        // tenants, so the cold tenant's working set mirrors the hot
        // one's shape — in its own cache namespace.
        let catalog = match self.pattern {
            StreamPattern::Mixed if self.rng.gen_range(0..100u64) >= MIXED_HOT_SHARE_PCT => {
                Some(MIXED_COLD_CATALOG.to_string())
            }
            _ => None,
        };
        let supported = &self.labels[m];
        let method = supported[self.rng.gen_range(0..supported.len())].clone();
        EvalRequest {
            machine: self.machine_names[m].clone(),
            workload: self.workload_names[w].clone(),
            method,
            runs: self.runs,
            seed: self.rng.gen_range(0u64..=u64::MAX / 2),
            catalog,
        }
    }

    /// Generates the next `n` requests. Chunked calls concatenate to the
    /// same stream as one big call.
    #[must_use]
    pub fn take(&mut self, n: usize) -> Vec<EvalRequest> {
        (0..n).map(|_| self.next_request()).collect()
    }
}

/// Generates a request stream over the full `machines × workloads`
/// catalog — the one-shot convenience over [`StreamGenerator`]; the
/// output is byte-identical to `StreamGenerator::new(...).take(n)`.
#[must_use]
pub fn request_stream(
    machines: &[MachineModel],
    workloads: &[Workload],
    opts: &MethodOptions,
    config: &StreamConfig,
) -> Vec<EvalRequest> {
    StreamGenerator::new(machines, workloads, opts, config).take(config.requests)
}

/// Serializes requests to their JSON-lines wire form — the exact frame
/// pipelined intake ([`countertrust::serve::EvalService::serve_pipelined`])
/// reads back.
#[must_use]
pub fn to_wire(requests: &[EvalRequest]) -> String {
    requests
        .iter()
        .map(|r| serde_json::to_string(r).expect("requests always serialize") + "\n")
        .collect()
}

/// Number of distinct `(catalog, machine, workload)` pairs a stream
/// touches — the catalog is part of the key because tenants never share
/// cache entries (for single-tenant streams this is exactly the old
/// `(machine, workload)` count).
#[must_use]
pub fn distinct_pairs(requests: &[EvalRequest]) -> usize {
    let mut seen: Vec<(Option<&str>, &str, &str)> = Vec::new();
    for r in requests {
        let key = (
            r.catalog.as_deref(),
            r.machine.as_str(),
            r.workload.as_str(),
        );
        if !seen.contains(&key) {
            seen.push(key);
        }
    }
    seen.len()
}

/// The `p`-th percentile (0.0..=1.0) of an **ascending-sorted** slice,
/// by the nearest-rank method. Returns `None` for an empty sample set —
/// an empty benchmark run has no latency distribution to summarize, and
/// a panic would take the whole report down with it.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.saturating_sub(1).min(sorted.len() - 1)])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> (Vec<MachineModel>, Vec<Workload>) {
        (
            MachineModel::paper_machines(),
            ct_workloads::kernel_set(0.01),
        )
    }

    fn config(pattern: StreamPattern) -> StreamConfig {
        StreamConfig {
            pattern,
            requests: 200,
            seed: 42,
            runs: 1,
        }
    }

    #[test]
    fn streams_are_seed_deterministic() {
        let (machines, workloads) = catalog();
        let opts = MethodOptions::fast();
        for pattern in [
            StreamPattern::Hot,
            StreamPattern::Cold,
            StreamPattern::Zipfian,
        ] {
            let a = request_stream(&machines, &workloads, &opts, &config(pattern));
            let b = request_stream(&machines, &workloads, &opts, &config(pattern));
            assert_eq!(a, b, "{pattern:?} stream must be reproducible");
            assert_eq!(a.len(), 200);
        }
        let mut reseeded = config(StreamPattern::Zipfian);
        reseeded.seed = 43;
        let (machines, workloads) = catalog();
        let c = request_stream(&machines, &workloads, &opts, &reseeded);
        let a = request_stream(
            &machines,
            &workloads,
            &opts,
            &config(StreamPattern::Zipfian),
        );
        assert_ne!(a, c, "seed must reach the stream");
    }

    #[test]
    fn chunked_generation_matches_one_shot() {
        let (machines, workloads) = catalog();
        let opts = MethodOptions::fast();
        for pattern in [
            StreamPattern::Hot,
            StreamPattern::Cold,
            StreamPattern::Zipfian,
            StreamPattern::Mixed,
        ] {
            let cfg = config(pattern);
            let one_shot = request_stream(&machines, &workloads, &opts, &cfg);
            let mut gen = StreamGenerator::new(&machines, &workloads, &opts, &cfg);
            let mut chunked = gen.take(50);
            chunked.extend(gen.take(100));
            chunked.extend(gen.take(50));
            assert_eq!(
                one_shot, chunked,
                "{pattern:?}: chunked take() must concatenate to the one-shot stream"
            );
        }
    }

    #[test]
    fn cold_streams_cycle_through_every_pair() {
        let (machines, workloads) = catalog();
        let stream = request_stream(
            &machines,
            &workloads,
            &MethodOptions::fast(),
            &config(StreamPattern::Cold),
        );
        let pairs = machines.len() * workloads.len();
        assert_eq!(distinct_pairs(&stream), pairs);
        // The first `pairs` requests visit each pair exactly once.
        assert_eq!(distinct_pairs(&stream[..pairs]), pairs);
    }

    #[test]
    fn hot_streams_concentrate_on_the_first_pair() {
        let (machines, workloads) = catalog();
        let stream = request_stream(
            &machines,
            &workloads,
            &MethodOptions::fast(),
            &config(StreamPattern::Hot),
        );
        let hot_hits = stream
            .iter()
            .filter(|r| r.machine == machines[0].name && r.workload == workloads[0].name)
            .count();
        assert!(
            hot_hits > stream.len() * 7 / 10,
            "hot pair got only {hot_hits}/{}",
            stream.len()
        );
    }

    #[test]
    fn zipfian_streams_favor_low_ranks_but_spread() {
        let (machines, workloads) = catalog();
        let stream = request_stream(
            &machines,
            &workloads,
            &MethodOptions::fast(),
            &config(StreamPattern::Zipfian),
        );
        let first_pair = stream
            .iter()
            .filter(|r| r.machine == machines[0].name && r.workload == workloads[0].name)
            .count();
        assert!(first_pair > stream.len() / 10, "rank 0 must dominate");
        assert!(
            distinct_pairs(&stream) > 3,
            "the tail must still be sampled"
        );
    }

    #[test]
    fn streams_only_name_supported_methods() {
        let (machines, workloads) = catalog();
        let opts = MethodOptions::fast();
        let stream = request_stream(&machines, &workloads, &opts, &config(StreamPattern::Cold));
        for r in &stream {
            let machine = machines.iter().find(|m| m.name == r.machine).unwrap();
            let supported: Vec<String> = GridMethod::standard(machine, &opts)
                .into_iter()
                .map(|g| g.label)
                .collect();
            assert!(
                supported.contains(&r.method),
                "{} does not support {}",
                r.machine,
                r.method
            );
        }
    }

    #[test]
    fn mixed_streams_split_two_tenants_near_the_configured_share() {
        let (machines, workloads) = catalog();
        let mut cfg = config(StreamPattern::Mixed);
        cfg.requests = 400;
        let stream = request_stream(&machines, &workloads, &MethodOptions::fast(), &cfg);
        let cold = stream
            .iter()
            .filter(|r| r.catalog.as_deref() == Some(MIXED_COLD_CATALOG))
            .count();
        let hot = stream.iter().filter(|r| r.catalog.is_none()).count();
        assert_eq!(
            cold + hot,
            stream.len(),
            "every request belongs to a tenant"
        );
        // 10% nominal cold share: allow generous slack, but both tenants
        // must be present and the hot one must dominate.
        assert!(cold > stream.len() / 20, "cold tenant too thin: {cold}");
        assert!(cold < stream.len() / 4, "cold tenant too fat: {cold}");
        // Reproducible like every other pattern.
        let again = request_stream(&machines, &workloads, &MethodOptions::fast(), &cfg);
        assert_eq!(stream, again);
        // The catalog namespace doubles the distinct-pair count relative
        // to the union of (machine, workload) names each tenant touches.
        let hot_only: Vec<_> = stream
            .iter()
            .filter(|r| r.catalog.is_none())
            .cloned()
            .collect();
        let cold_only: Vec<_> = stream
            .iter()
            .filter(|r| r.catalog.is_some())
            .cloned()
            .collect();
        assert_eq!(
            distinct_pairs(&stream),
            distinct_pairs(&hot_only) + distinct_pairs(&cold_only)
        );
        assert!(StreamPattern::Mixed.is_multi_tenant());
        assert!(!StreamPattern::Zipfian.is_multi_tenant());
        assert_eq!(StreamPattern::Mixed.name(), "mixed");
    }

    #[test]
    fn percentile_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 0.0), Some(1.0));
        assert_eq!(percentile(&sorted, 0.5), Some(2.0));
        assert_eq!(percentile(&sorted, 0.51), Some(3.0));
        assert_eq!(percentile(&sorted, 0.99), Some(4.0));
        assert_eq!(percentile(&sorted, 1.0), Some(4.0));
    }

    #[test]
    fn percentile_len_two_median_is_the_lower_sample() {
        // Nearest rank never interpolates: ceil(0.5 * 2) = rank 1.
        assert_eq!(percentile(&[10.0, 20.0], 0.5), Some(10.0));
        assert_eq!(percentile(&[10.0, 20.0], 0.51), Some(20.0));
        assert_eq!(percentile(&[10.0, 20.0], 1.0), Some(20.0));
    }

    #[test]
    fn percentile_of_empty_sample_is_none() {
        for p in [0.0, 0.5, 1.0] {
            assert_eq!(percentile(&[], p), None);
        }
    }

    #[test]
    fn percentile_of_single_element_is_that_element() {
        for p in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(percentile(&[7.5], p), Some(7.5));
        }
    }
}
