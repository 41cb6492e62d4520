//! Replicated shard placement for federated serving.
//!
//! Assigns every chunk (as a [`SubTableId`]) to `R` of `N` engine shards
//! using rendezvous (highest-random-weight) hashing: each `(chunk, shard)`
//! pair gets a deterministic score from a seeded splitmix64 draw and the
//! chunk is owned by the `R` highest-scoring shards. Rendezvous hashing
//! gives the two properties the federation router needs:
//!
//! * **Distinct replicas** — the top-`R` set of `N` distinct shards can
//!   never repeat a shard, so losing one shard never loses both copies.
//! * **Minimal movement** — growing `N → N+1` only re-homes chunks for
//!   which the *new* shard enters some chunk's top-`R` set, which is
//!   ~`R/(N+1)` of all (chunk, rank) slots. `tests/prop_placement.rs`
//!   pins this down.
//!
//! The assignment is pure: `owners` is a function of `(seed, chunk,
//! shard count)` only, so every router, test and oracle computes the
//! identical map with no coordination state to corrupt.

use orv_types::{Error, Result, SubTableId};

/// splitmix64 finalizer: the workspace-standard cheap stateless PRNG.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Pure rendezvous-hash placement: which shards own which chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    shards: usize,
    replication: usize,
    seed: u64,
}

impl Placement {
    /// A placement over `shards` engine shards with `replication` copies
    /// of every chunk. Requires `1 <= replication <= shards`.
    pub fn new(shards: usize, replication: usize, seed: u64) -> Result<Self> {
        if shards == 0 {
            return Err(Error::Config("placement needs at least one shard".into()));
        }
        if replication == 0 || replication > shards {
            return Err(Error::Config(format!(
                "replication {replication} out of range for {shards} shards"
            )));
        }
        Ok(Placement {
            shards,
            replication,
            seed,
        })
    }

    /// Number of engine shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Copies of every chunk.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// The rendezvous score of one `(chunk, shard)` pair.
    fn score(&self, id: SubTableId, shard: usize) -> u64 {
        let key = splitmix64(self.seed)
            ^ splitmix64((id.table.0 as u64) << 32 | id.chunk.0 as u64)
            ^ splitmix64(0x5348_5244 ^ shard as u64); // "SHRD" salt
        splitmix64(key)
    }

    /// The `replication` shards owning `id`, best score first. The first
    /// entry is the chunk's *primary*; the rest are its replicas. All
    /// entries are distinct by construction.
    pub fn owners(&self, id: SubTableId) -> Vec<usize> {
        let mut scored: Vec<(u64, usize)> =
            (0..self.shards).map(|s| (self.score(id, s), s)).collect();
        // Descending score; shard index breaks (astronomically unlikely)
        // ties so the order is total and deterministic.
        scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        scored
            .into_iter()
            .take(self.replication)
            .map(|(_, s)| s)
            .collect()
    }

    /// The highest-ranked owner of `id`.
    pub fn primary(&self, id: SubTableId) -> usize {
        self.owners(id)[0]
    }

    /// Whether `shard` holds a copy of `id`.
    pub fn owns(&self, shard: usize, id: SubTableId) -> bool {
        self.owners(id).contains(&shard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u32) -> Vec<SubTableId> {
        (0..n).map(|c| SubTableId::new(0u32, c)).collect()
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(Placement::new(0, 1, 7).is_err());
        assert!(Placement::new(3, 0, 7).is_err());
        assert!(Placement::new(3, 4, 7).is_err());
        assert!(Placement::new(3, 3, 7).is_ok());
    }

    #[test]
    fn owners_are_distinct_and_exactly_r() {
        let p = Placement::new(5, 2, 42).unwrap();
        for id in ids(64) {
            let o = p.owners(id);
            assert_eq!(o.len(), 2);
            assert_ne!(o[0], o[1], "replicas of {id} collided");
            assert!(o.iter().all(|&s| s < 5));
            assert_eq!(p.primary(id), o[0]);
            assert!(p.owns(o[0], id) && p.owns(o[1], id));
        }
    }

    #[test]
    fn assignment_is_deterministic_and_seed_sensitive() {
        let a = Placement::new(4, 2, 1).unwrap();
        let b = Placement::new(4, 2, 1).unwrap();
        let c = Placement::new(4, 2, 2).unwrap();
        let sample = ids(128);
        assert!(sample.iter().all(|&id| a.owners(id) == b.owners(id)));
        assert!(
            sample.iter().any(|&id| a.owners(id) != c.owners(id)),
            "different seeds produced identical placements"
        );
    }

    #[test]
    fn load_spreads_over_shards() {
        let p = Placement::new(4, 2, 9).unwrap();
        let mut load = [0usize; 4];
        for id in ids(256) {
            for s in p.owners(id) {
                load[s] += 1;
            }
        }
        // 512 copies over 4 shards: every shard should get a real share.
        for (s, &l) in load.iter().enumerate() {
            assert!(l > 64, "shard {s} underloaded: {l}/512 copies");
        }
    }
}
