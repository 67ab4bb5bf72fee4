//! Seeded input tapes for the serve workloads. The `--seed` drives only
//! these inputs; the world they are rendered from is fixed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use taglets_data::{ConceptUniverse, Task};

/// Distinct inputs `serve-unique` cycles through. Any two submissions of
/// one input are this many requests apart, far beyond the default cache
/// capacity (1024), so every request misses.
pub const UNIQUE_POOL: usize = 1 << 16;
/// Key set `serve-zipf` draws from: four times the default cache capacity.
pub const ZIPF_KEYS: usize = 4096;
/// Zipf exponent giving an LRU(1024) hit share of about 0.85 on
/// [`ZIPF_KEYS`] keys.
pub const ZIPF_EXPONENT: f64 = 1.1;
/// Length of the `serve-zipf` draw sequence before it repeats.
pub const ZIPF_DRAWS: usize = 1 << 20;

/// A traffic tape: a pool of input rows, the pool row each request sends
/// (cycled when a phase outlasts it), and the open-loop due times.
#[derive(Debug, Clone, PartialEq)]
pub struct Tape {
    dim: usize,
    rows: Vec<f32>,
    pub order: Vec<u32>,
    pub due_ns: Vec<u64>,
}

/// Which traffic mix a tape carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Every request a distinct render.
    Unique,
    /// Zipf-skewed draws from a fixed key set.
    Zipf,
}

impl Tape {
    /// Builds the tape for `mix` from `seed`: renders of the task's classes
    /// in the task's domain, and `open_loop_requests` Poisson due times at
    /// `rate_per_s`.
    pub fn generate(
        universe: &ConceptUniverse,
        task: &Task,
        mix: Mix,
        seed: u64,
        rate_per_s: f64,
        open_loop_requests: usize,
    ) -> Tape {
        let (pool, order) = match mix {
            Mix::Unique => (UNIQUE_POOL, (0..UNIQUE_POOL as u32).collect()),
            Mix::Zipf => (
                ZIPF_KEYS,
                zipf_draws(seed ^ 0x2a1f, ZIPF_KEYS, ZIPF_EXPONENT, ZIPF_DRAWS),
            ),
        };
        let concepts: Vec<_> = task
            .aligned_concepts()
            .into_iter()
            .map(|(_, c)| c)
            .collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7e9d);
        let mut rows = Vec::with_capacity(pool * universe.image_dim());
        for _ in 0..pool {
            let concept = concepts[rng.gen_range(0..concepts.len())];
            rows.extend(universe.render(concept, task.domain, 1.0, &mut rng));
        }
        Tape {
            dim: universe.image_dim(),
            rows,
            order,
            due_ns: poisson_due_ns(seed ^ 0x51c3, rate_per_s, open_loop_requests),
        }
    }

    /// The input row request `i` sends.
    pub fn input(&self, i: usize) -> &[f32] {
        let row = self.order[i % self.order.len()] as usize;
        &self.rows[row * self.dim..(row + 1) * self.dim]
    }

    /// Distinct rows in the pool.
    #[cfg(test)]
    pub fn pool_len(&self) -> usize {
        self.rows.len() / self.dim
    }
}

/// Due times of a Poisson arrival process at `rate_per_s`, in nanoseconds
/// from the start of the phase.
pub fn poisson_due_ns(seed: u64, rate_per_s: f64, count: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    (0..count)
        .map(|_| {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / rate_per_s * 1e9;
            t as u64
        })
        .collect()
}

/// `count` ranks in `0..keys` drawn with probability ∝ `1 / (rank + 1)^s`.
pub fn zipf_draws(seed: u64, keys: usize, s: f64, count: usize) -> Vec<u32> {
    let mut cdf: Vec<f64> = (0..keys).map(|r| ((r + 1) as f64).powf(-s)).collect();
    let mut acc = 0.0;
    for w in cdf.iter_mut() {
        acc += *w;
        *w = acc;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let u: f64 = rng.gen::<f64>() * acc;
            cdf.partition_point(|&c| c < u).min(keys - 1) as u32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashMap, HashSet};

    use crate::world::{find_task, World};

    fn tape(world: &World, mix: Mix, seed: u64) -> Tape {
        let task = find_task(&world.tasks, crate::serve::TASK).expect("grocery task");
        Tape::generate(&world.universe, task, mix, seed, 50_000.0, 1000)
    }

    fn bytes(t: &Tape) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend(t.rows.iter().flat_map(|v| v.to_bits().to_le_bytes()));
        out.extend(t.order.iter().flat_map(|v| v.to_le_bytes()));
        out.extend(t.due_ns.iter().flat_map(|v| v.to_le_bytes()));
        out
    }

    /// Hit share of an LRU cache of `capacity` entries replaying `order`.
    fn lru_hit_share(order: &[u32], capacity: usize) -> f64 {
        let mut last_use: HashMap<u32, usize> = HashMap::new();
        let mut by_age: BTreeMap<usize, u32> = BTreeMap::new();
        let mut hits = 0;
        for (t, &key) in order.iter().enumerate() {
            if let Some(old) = last_use.insert(key, t) {
                hits += 1;
                by_age.remove(&old);
            } else if last_use.len() > capacity {
                let (_, evicted) = by_age.pop_first().expect("cache is non-empty");
                last_use.remove(&evicted);
            }
            by_age.insert(t, key);
        }
        hits as f64 / order.len() as f64
    }

    #[test]
    fn tapes_follow_the_seed() {
        let world = World::build().expect("world");
        for mix in [Mix::Unique, Mix::Zipf] {
            let a = tape(&world, mix, 3);
            assert_eq!(bytes(&a), bytes(&tape(&world, mix, 3)), "{mix:?}");
            assert_ne!(bytes(&a), bytes(&tape(&world, mix, 4)), "{mix:?}");
        }
    }

    #[test]
    fn serve_unique_never_repeats_an_input_within_its_pool() {
        let world = World::build().expect("world");
        let t = tape(&world, Mix::Unique, 0);
        assert_eq!(t.pool_len(), UNIQUE_POOL);
        let distinct: HashSet<Vec<u32>> = (0..UNIQUE_POOL)
            .map(|i| t.input(i).iter().map(|v| v.to_bits()).collect())
            .collect();
        assert_eq!(distinct.len(), UNIQUE_POOL);
        // Replayed through the default cache, the cycled pool never hits.
        let cycled: Vec<u32> = (0..2 * UNIQUE_POOL)
            .map(|i| t.order[i % UNIQUE_POOL])
            .collect();
        assert_eq!(lru_hit_share(&cycled, 1024), 0.0);
    }

    #[test]
    fn serve_zipf_hit_share_is_about_085() {
        for seed in [0, 1, 2] {
            let draws = zipf_draws(seed, ZIPF_KEYS, ZIPF_EXPONENT, ZIPF_DRAWS);
            let share = lru_hit_share(&draws, 1024);
            assert!((0.80..=0.90).contains(&share), "seed {seed}: {share}");
        }
    }

    #[test]
    fn zipf_keys_are_distinct_renders() {
        let world = World::build().expect("world");
        let t = tape(&world, Mix::Zipf, 0);
        let distinct: HashSet<Vec<u32>> = (0..ZIPF_KEYS)
            .map(|k| {
                let row = &t.rows[k * t.dim..(k + 1) * t.dim];
                row.iter().map(|v| v.to_bits()).collect()
            })
            .collect();
        assert_eq!(distinct.len(), ZIPF_KEYS);
    }

    #[test]
    fn poisson_schedule_has_the_offered_rate() {
        let due = poisson_due_ns(9, 50_000.0, 100_000);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        let rate = due.len() as f64 / (*due.last().expect("non-empty") as f64 / 1e9);
        assert!((rate / 50_000.0 - 1.0).abs() < 0.02, "{rate}");
    }
}
