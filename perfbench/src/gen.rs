//! Seeded input generators. Every workload input — engine cell specs, the
//! service's hit set and its request stream — is a pure function of the
//! benchmark's `--seed`; the program under test only ever sees the
//! generated spec JSON (or the request bytes carrying it).

/// SplitMix64: a tiny, well-mixed generator whose whole state is one word,
/// so a stream can be re-derived from `(seed, salt)` at any position.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, salt: u64) -> Self {
        let mut rng = Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next();
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    /// A spec seed: 48 bits, so it stays exact in any JSON reader.
    pub fn spec_seed(&mut self) -> u64 {
        self.next() >> 16
    }

    /// Shuffles `xs` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.range(0, i as u64) as usize);
        }
    }

    /// `n` draws of a `levels`-valued axis, stratified: every level occurs
    /// equally often (to within one) in a seeded order. Every round of every
    /// seed then holds the same multiset on each axis, so what a round's
    /// misses cost varies far less between seeds than with independent
    /// draws, while which combinations occur still varies.
    pub fn strata(&mut self, n: usize, levels: usize) -> Vec<usize> {
        let mut column: Vec<usize> = (0..n).map(|i| i % levels).collect();
        self.shuffle(&mut column);
        column
    }
}

const SALT_CELL: u64 = 1;
const SALT_HIT: u64 = 2;
const SALT_ROUND: u64 = 3;

/// The dynamics and policies of `tests/fixtures/demo_spec.json` (churn,
/// heterogeneity tiers, capacity detours, a TTL cache, re-replication),
/// plus bounded retries.
const CHURN_DYNAMICS: &str = r#""dynamics": {"churn": {"session": {"Exponential": {"mean": 20.0}}, "downtime": {"Exponential": {"mean": 10.0}}, "start_step": 1, "min_live_fraction": 0.25}, "scenario": {"Heterogeneity": {"slow_fraction": 0.3, "slow_budget": 4, "fast_budget": 64}}}, "policies": {"route": {"CapacityDetour": {"max_detours": 3}}, "cache": {"Ttl": {"capacity": 256, "ttl": 2048}}, "repair": {"ReReplicate": {"neighborhood_bits": 8}}, "max_retries": 2, "retry_backoff": 2}"#;

/// The cell specs of an engine workload, or `None` for a name that is not
/// an engine workload.
pub fn engine_specs(workload: &str, seed: u64) -> Option<Vec<String>> {
    let mut rng = Rng::new(seed, SALT_CELL);
    let specs = match workload {
        "paper_static" => [4, 20]
            .iter()
            .map(|k| {
                format!(
                    r#"{{"seed": {}, "topology": {{"nodes": 1000, "bits": 16, "bucket_sizing": {{"default": {k}, "overrides": []}}}}, "workload": {{"originator_fraction": 1.0, "files": 10000, "chunk_dist": {{"Zipf": {{"catalog": 10000, "exponent": 1.0}}}}}}, "economics": {{"mechanism": "Swarm"}}, "policies": {{"route": "Greedy", "cache": "None", "repair": "None"}}}}"#,
                    rng.spec_seed()
                )
            })
            .collect(),
        "large_static" => vec![format!(
            r#"{{"seed": {}, "topology": {{"nodes": 100000, "bits": 22, "bucket_sizing": {{"default": 4, "overrides": []}}}}, "workload": {{"files": 2000}}}}"#,
            rng.spec_seed()
        )],
        // 1500 files per pass, split over four independently seeded cells so
        // that no single topology and churn draw sets the pass's cost.
        "churn_repair" => (0..4)
            .map(|_| {
                format!(
                    r#"{{"seed": {}, "topology": {{"nodes": 1000, "bits": 16, "bucket_sizing": {{"default": 4, "overrides": []}}}}, "workload": {{"files": 375, "chunk_dist": {{"Zipf": {{"catalog": 2000, "exponent": 1.0}}}}}}, {CHURN_DYNAMICS}}}"#,
                    rng.spec_seed()
                )
            })
            .collect(),
        _ => return None,
    };
    Some(specs)
}

/// Specs in the service's hit set. Kept well below [`CACHE_CAP`] so the
/// misses interleaved between two touches of a hit spec can never push it
/// out of the LRU report cache.
pub const HIT_SET: usize = 16;
/// The report-cache capacity the benchmark starts the service with.
pub const CACHE_CAP: usize = 64;
/// Exchanges per stream round, and how many of them are misses.
pub const ROUND_LEN: usize = 1200;
pub const ROUND_MISSES: usize = 40;

/// The service's hit set: small specs submitted once during set-up and
/// resubmitted byte-for-byte during the stream. Their sizes are the same
/// for every seed (80 to 200 nodes, evenly spaced), so the pre-fill that
/// `setup_s` times costs the same; only the spec seeds vary.
pub fn hit_set(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed, SALT_HIT);
    (0..HIT_SET)
        .map(|i| {
            format!(
                r#"{{"seed": {}, "topology": {{"nodes": {}, "bits": 16}}, "workload": {{"files": 4}}}}"#,
                rng.spec_seed(),
                80 + i * 120 / (HIT_SET - 1)
            )
        })
        .collect()
}

/// One exchange of the service stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Item {
    /// Resubmit hit-set spec `i`.
    Hit(usize),
    /// Submit a spec no earlier exchange carried.
    Miss(String),
}

/// Round `round` of the stream: `ROUND_LEN` exchanges, `ROUND_MISSES` of
/// them at seeded positions, the rest cycling through seeded permutations
/// of the hit set. The misses' shapes are stratified (see [`miss_specs`]).
pub fn round(seed: u64, round: u64) -> Vec<Item> {
    let mut rng = Rng::new(seed ^ round.wrapping_mul(0xD6E8_FEB8_6659_FD93), SALT_ROUND);
    let mut is_miss = vec![false; ROUND_LEN];
    let mut placed = 0;
    while placed < ROUND_MISSES {
        let at = rng.range(0, ROUND_LEN as u64 - 1) as usize;
        if !is_miss[at] {
            is_miss[at] = true;
            placed += 1;
        }
    }
    let mut misses = miss_specs(&mut rng).into_iter();
    let mut order: Vec<usize> = Vec::new();
    is_miss
        .into_iter()
        .map(|miss| {
            if miss {
                Item::Miss(misses.next().expect("one spec per miss"))
            } else {
                if order.is_empty() {
                    order = (0..HIT_SET).collect();
                    rng.shuffle(&mut order);
                }
                Item::Hit(order.pop().expect("refilled above"))
            }
        })
        .collect()
}

/// A round's `ROUND_MISSES` small specs, varying seed, dimensions and every
/// policy axis so misses exercise different engine paths. The axes that set
/// a miss's cost — nodes (64 to 256), bucket size, files (1 to 3), chunk
/// distribution, routing, cache, churn, repair and retries — are stratified
/// ([`Rng::strata`]); the rest are drawn freely. The 48-bit spec seeds make
/// a repeat within a run vanishingly unlikely;
/// `tests::misses_are_never_repeated` pins that for the rounds a run uses.
fn miss_specs(rng: &mut Rng) -> Vec<String> {
    let n = ROUND_MISSES;
    let columns: Vec<Vec<usize>> = [n, 3, 3, 2, 2, 2, 3, 3, 3]
        .iter()
        .map(|&levels| rng.strata(n, levels))
        .collect();
    (0..n)
        .map(|i| {
            let level = |axis: usize| columns[axis][i];
            miss_spec(rng, level)
        })
        .collect()
}

/// One miss spec; `level(axis)` is its stratum on each axis of
/// [`miss_specs`].
fn miss_spec(rng: &mut Rng, level: impl Fn(usize) -> usize) -> String {
    let seed = rng.spec_seed();
    let nodes = 64 + level(0) * 192 / (ROUND_MISSES - 1);
    let k = [2, 4, 8][level(1)];
    let files = 1 + level(2);
    let chunk_dist = if level(3) == 0 {
        r#""Uniform""#.to_string()
    } else {
        format!(
            r#"{{"Zipf": {{"catalog": {}, "exponent": {}}}}}"#,
            rng.range(500, 5000),
            [0.8, 1.0, 1.2][rng.range(0, 2) as usize]
        )
    };
    let route = if level(4) == 0 {
        r#""Greedy""#.to_string()
    } else {
        format!(
            r#"{{"CapacityDetour": {{"max_detours": {}}}}}"#,
            rng.range(1, 3)
        )
    };
    let cache = if level(5) == 0 {
        r#""None""#.to_string()
    } else {
        format!(
            r#"{{"Ttl": {{"capacity": {}, "ttl": {}}}}}"#,
            rng.range(64, 256),
            rng.range(256, 2048)
        )
    };
    let dynamics = match level(6) {
        0 => {
            r#""dynamics": {"churn": {"session": {"Exponential": {"mean": 20.0}}, "downtime": {"Exponential": {"mean": 10.0}}, "start_step": 1, "min_live_fraction": 0.25}}, "#
        }
        _ => "",
    };
    let repair = [
        "\"None\"",
        r#"{"Monitor": {"neighborhood_bits": 6}}"#,
        r#"{"ReReplicate": {"neighborhood_bits": 6}}"#,
    ][level(7)];
    format!(
        r#"{{"seed": {seed}, "topology": {{"nodes": {nodes}, "bits": 16, "bucket_sizing": {{"default": {k}, "overrides": []}}}}, "workload": {{"files": {files}, "chunk_dist": {chunk_dist}}}, {dynamics}"policies": {{"route": {route}, "cache": {cache}, "repair": {repair}, "max_retries": {}, "retry_backoff": 2}}}}"#,
        level(8)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn streams_repeat_for_a_fixed_seed() {
        for name in ["paper_static", "large_static", "churn_repair"] {
            assert_eq!(engine_specs(name, 7), engine_specs(name, 7));
            assert_ne!(engine_specs(name, 7), engine_specs(name, 8));
        }
        assert_eq!(hit_set(7), hit_set(7));
        assert_eq!(round(7, 3), round(7, 3));
        assert_ne!(round(7, 3), round(7, 4));
        assert_ne!(round(7, 3), round(8, 3));
    }

    #[test]
    fn rounds_hold_the_pinned_mix() {
        let items = round(11, 0);
        assert_eq!(items.len(), ROUND_LEN);
        let misses = items.iter().filter(|i| matches!(i, Item::Miss(_))).count();
        assert_eq!(misses, ROUND_MISSES);
    }

    /// Every round of every seed holds the same sizes of miss spec.
    #[test]
    fn rounds_draw_the_same_mix() {
        let shape = |seed: u64, r: u64| -> Vec<(u32, u32)> {
            let mut shapes: Vec<(u32, u32)> = round(seed, r)
                .into_iter()
                .filter_map(|item| match item {
                    Item::Miss(spec) => {
                        let config = fairswap_core::SimSpec::from_json(&spec)
                            .unwrap()
                            .to_config();
                        Some((config.nodes as u32, config.files as u32))
                    }
                    Item::Hit(_) => None,
                })
                .collect();
            shapes.sort_unstable();
            shapes
        };
        let nodes = |shapes: Vec<(u32, u32)>| shapes.into_iter().map(|s| s.0).collect::<Vec<_>>();
        let files = |shapes: Vec<(u32, u32)>| {
            let mut f: Vec<u32> = shapes.into_iter().map(|s| s.1).collect();
            f.sort_unstable();
            f
        };
        assert_eq!(nodes(shape(3, 0)), nodes(shape(8, 5)));
        assert_eq!(files(shape(3, 0)), files(shape(8, 5)));
        assert_ne!(shape(3, 0), shape(8, 5), "combinations still vary");
        assert_eq!(*nodes(shape(3, 0)).first().unwrap(), 64);
        assert_eq!(*nodes(shape(3, 0)).last().unwrap(), 256);
    }

    #[test]
    fn every_generated_spec_is_valid() {
        let mut specs: Vec<String> = ["paper_static", "large_static", "churn_repair"]
            .iter()
            .flat_map(|name| engine_specs(name, 3).unwrap())
            .collect();
        specs.extend(hit_set(3));
        specs.extend(round(3, 0).into_iter().filter_map(|item| match item {
            Item::Miss(spec) => Some(spec),
            Item::Hit(_) => None,
        }));
        for json in specs {
            let (spec, unknown) = fairswap_core::SimSpec::from_json_checked(&json)
                .unwrap_or_else(|e| panic!("{e}: {json}"));
            assert!(unknown.is_empty(), "unknown keys {unknown:?} in {json}");
            spec.validate().unwrap_or_else(|e| panic!("{e}: {json}"));
        }
    }

    #[test]
    fn misses_are_never_repeated() {
        let mut seen: HashSet<String> = hit_set(5).into_iter().collect();
        for r in 0..200 {
            for item in round(5, r) {
                if let Item::Miss(spec) = item {
                    assert!(seen.insert(spec), "miss spec repeated in round {r}");
                }
            }
        }
    }
}
