//! Pinned outputs: for every input seed, the `run.csv` digest and
//! chunk-request count of each engine cell, and of the batch reference the
//! service workload checks its results against. A pin is a fixed record,
//! not something the code under test computes, so a change in the program's
//! output shows as a mismatch on every seed.

const PINS: &str = include_str!("../pins.json");

/// Input seeds with pins. A workload's `--seed` is reduced modulo this, so
/// every run's inputs are pinned: two seeds 32 apart share their inputs.
pub const SEEDS: u64 = 32;

/// 64-bit FNV-1a of `bytes`, as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

fn object(value: &serde::Value) -> &[(String, serde::Value)] {
    value.as_object().expect("pins.json nests objects")
}

/// The pinned `(digest, chunk requests)` of each cell of `workload` under
/// input seed `seed`, if pinned.
pub fn lookup(workload: &str, seed: u64) -> Option<Vec<(String, u64)>> {
    let root: serde::Value = serde_json::from_str(PINS).expect("pins.json parses");
    let (_, seeds) = object(&root).iter().find(|(name, _)| name == workload)?;
    let key = seed.to_string();
    let (_, cells) = object(seeds).iter().find(|(s, _)| *s == key)?;
    let serde::Value::Array(cells) = cells else {
        panic!("pins.json: cells of {workload}/{seed} are not a list");
    };
    Some(
        cells
            .iter()
            .map(|cell| match cell {
                serde::Value::Array(pair) => match pair.as_slice() {
                    [serde::Value::Str(digest), serde::Value::Int(n)] => {
                        (digest.clone(), *n as u64)
                    }
                    _ => panic!("pins.json: malformed cell in {workload}/{seed}"),
                },
                _ => panic!("pins.json: malformed cell in {workload}/{seed}"),
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(b""), "cbf29ce484222325");
        assert_eq!(digest(b"a"), "af63dc4c8601ec8c");
    }

    /// Every input seed of every workload has a pin: one entry per engine
    /// cell, one for the service's batch reference.
    #[test]
    fn every_input_seed_is_pinned() {
        for (workload, _) in crate::WORKLOADS {
            let entries = crate::gen::engine_specs(workload, 0).map_or(1, |cells| cells.len());
            for seed in 0..SEEDS {
                let pin = lookup(workload, seed)
                    .unwrap_or_else(|| panic!("{workload}/{seed} is not pinned"));
                assert_eq!(pin.len(), entries, "{workload}/{seed}");
            }
        }
    }
}
