//! Property tests for the pooled dense-cell spatial index
//! ([`NnIndex`]): random insert sequences and queries must agree **exactly**
//! — on index *and* tie-break — with the O(n) linear scans the RRT-family
//! planners used before, across bounds scales and cell (step-size) configs;
//! and the three planners themselves must produce bit-identical paths with
//! the index on and off.

use mavfi_ppc::planning::{NnIndex, PlannerAlgorithm, PlannerConfig};
use mavfi_sim::env::EnvironmentKind;
use mavfi_sim::geometry::{Aabb, Vec3};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The linear `nearest` the planners used: `min_by` over distances in index
/// order, first minimum (= lowest index) winning ties.
fn linear_nearest(points: &[Vec3], query: Vec3) -> usize {
    points
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            a.distance(query).partial_cmp(&b.distance(query)).expect("finite distances")
        })
        .map(|(index, _)| index)
        .expect("non-empty")
}

/// The linear neighbourhood filter RRT* uses with the index off: inclusive
/// radius comparison, ascending index order, each hit with the bits of its
/// distance.
fn linear_within(points: &[Vec3], query: Vec3, radius: f64) -> Vec<(usize, u64)> {
    points
        .iter()
        .enumerate()
        .filter(|(_, point)| point.distance(query) <= radius)
        .map(|(index, point)| (index, point.distance(query).to_bits()))
        .collect()
}

/// A `within_radius` answer (unordered) in the linear filter's shape:
/// sorted by index, distances as bits.
fn sorted_hits(hits: &[(usize, f64)]) -> Vec<(usize, u64)> {
    let mut sorted: Vec<(usize, u64)> =
        hits.iter().map(|&(index, distance)| (index, distance.to_bits())).collect();
    sorted.sort_unstable();
    sorted
}

/// Deterministic point inside a cube of half-extent `scale`; every ~8th
/// point duplicates an earlier one so exact-distance ties actually occur.
fn random_point(rng: &mut StdRng, scale: f64, existing: &[Vec3]) -> Vec3 {
    if !existing.is_empty() && rng.gen_range(0..8) == 0 {
        return existing[rng.gen_range(0..existing.len())];
    }
    Vec3::new(
        rng.gen_range(-scale..scale),
        rng.gen_range(-scale..scale),
        rng.gen_range(-scale..scale),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random insert sequences interleaved with nearest/radius queries: the
    /// index agrees with the linear references after every insert, across
    /// bounds scales, cell sizes and tabled regions — including the
    /// pooled-reuse path (the same `NnIndex` instance is reset and refilled
    /// for a second round, with a region of another size).  Counts run past
    /// the linear `nearest` cutoff (256), so the shell walk is compared too;
    /// regions smaller than, offset from or larger than the point cloud put
    /// points (the first one included) and queries outside the table, onto
    /// the overflow chain.
    #[test]
    fn index_queries_match_linear_scans(
        point_seed in 0u64..10_000,
        cell_size in 0.4f64..6.0,
        scale in 4.0f64..60.0,
        count in 1usize..700,
        region_half in 0.0f64..1.5,
        region_shift in -0.5f64..0.5,
    ) {
        let mut rng = StdRng::seed_from_u64(point_seed);
        let mut index = NnIndex::new();
        let mut out = Vec::new();
        for round in 0..2 {
            // Round 1 tables a region twice the size of round 0's.
            let half = scale * region_half * f64::from(round + 1);
            let center = Vec3::splat(scale * region_shift);
            index.reset(cell_size, Aabb::new(center - Vec3::splat(half), center + Vec3::splat(half)));
            let mut points: Vec<Vec3> = Vec::new();
            for step in 0..count {
                let point = random_point(&mut rng, scale, &points);
                prop_assert_eq!(index.insert(point), points.len());
                points.push(point);
                // Query near the newest point (dense neighbourhoods) and at
                // an unrelated location (possibly far from every node).
                let near = point + Vec3::new(0.3, -0.6, 0.2);
                let far = random_point(&mut rng, scale * 1.5, &[]);
                for query in [near, far] {
                    prop_assert_eq!(
                        index.nearest(query),
                        linear_nearest(&points, query),
                        "nearest diverged (round {}, step {})",
                        round,
                        step
                    );
                    let radius = rng.gen_range(0.0..scale * 0.4);
                    index.within_radius(query, radius, &mut out);
                    prop_assert_eq!(
                        sorted_hits(&out),
                        linear_within(&points, query, radius),
                        "radius query diverged (round {}, step {}, r {})",
                        round,
                        step,
                        radius
                    );
                }
            }
        }
    }
}

/// The environments the planner equivalence sweep draws from (Dense is
/// covered by the deterministic test below; linear RRT* on Dense costs
/// hundreds of milliseconds per case).
const KINDS: [EnvironmentKind; 3] =
    [EnvironmentKind::Sparse, EnvironmentKind::Farm, EnvironmentKind::Factory];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The spatial index is inert: every RRT-family planner plans
    /// bit-identical paths with the index enabled and disabled, including
    /// on the second plan from the same instance (warm pooled index, stepped
    /// RNG) — independent of the RRT* cost-propagation fix, which is active
    /// on both sides.
    #[test]
    fn indexed_planners_match_linear_planners(
        kind_index in 0usize..KINDS.len(),
        env_seed in 0u64..50,
        planner_seed in 0u64..1000,
    ) {
        let env = KINDS[kind_index].build(env_seed);
        let config = PlannerConfig::for_bounds(env.bounds()).with_seed(planner_seed);
        for algorithm in PlannerAlgorithm::ALL {
            let mut indexed = algorithm.instantiate(config);
            let mut linear = algorithm.instantiate(config);
            linear.set_spatial_index_enabled(false);
            for (start, goal) in [(env.start(), env.goal()), (env.goal(), env.start())] {
                prop_assert_eq!(
                    indexed.plan(&env, start, goal),
                    linear.plan(&env, start, goal),
                    "{:?} diverged on {}/{}",
                    algorithm,
                    env.name(),
                    planner_seed
                );
            }
        }
    }
}
