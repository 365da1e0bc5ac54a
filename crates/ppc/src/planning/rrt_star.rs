//! RRT* planner: RRT with optimal parent selection and rewiring.

use std::cmp::Ordering;

use mavfi_sim::geometry::Vec3;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::kernel::KernelId;
use crate::planning::nn_index::NnIndex;
use crate::planning::rrt::{index_region, sample_point, steer, trace_path_into, ParentLinked};
use crate::planning::space::{MotionPlanner, ObstacleModel, PlannedPath, PlannerConfig};

/// Sentinel for "no node" in the pooled child-link arrays.
const NONE: u32 = u32::MAX;

/// Parent-candidate key of the steering node when it lies outside the
/// rewiring radius: above every node index, so among equal costs it is
/// tried last.
const UNLISTED: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct StarNode {
    position: Vec3,
    parent: Option<usize>,
    cost: f64,
}

impl ParentLinked for StarNode {
    fn position(&self) -> Vec3 {
        self.position
    }

    fn parent(&self) -> Option<usize> {
        self.parent
    }
}

/// Pooled first-child/next-sibling adjacency mirroring the parent links of
/// the tree, so a rewire can reach a node's *descendants* without scanning
/// the whole node array.
///
/// Karaman & Frazzoli's rewiring step lowers a neighbour's cost-to-come;
/// the asymptotic-optimality argument needs that reduction to reach every
/// node routed *through* the neighbour, because later best-parent choices
/// and the final goal selection compare those costs.  The sibling list is
/// doubly linked so moving a node to a new parent (the rewire itself) is
/// O(1).
#[derive(Debug, Default)]
struct ChildLinks {
    first_child: Vec<u32>,
    next_sibling: Vec<u32>,
    prev_sibling: Vec<u32>,
}

impl ChildLinks {
    fn clear(&mut self) {
        self.first_child.clear();
        self.next_sibling.clear();
        self.prev_sibling.clear();
    }

    /// Registers the next node (index = current length), not yet linked
    /// under any parent.
    fn push_node(&mut self) {
        self.first_child.push(NONE);
        self.next_sibling.push(NONE);
        self.prev_sibling.push(NONE);
    }

    /// Links `child` at the head of `parent`'s child list.
    fn link(&mut self, child: usize, parent: usize) {
        let head = self.first_child[parent];
        self.next_sibling[child] = head;
        self.prev_sibling[child] = NONE;
        if head != NONE {
            self.prev_sibling[head as usize] = child as u32;
        }
        self.first_child[parent] = child as u32;
    }

    /// Unlinks `child` from `parent`'s child list.
    fn unlink(&mut self, child: usize, parent: usize) {
        let prev = self.prev_sibling[child];
        let next = self.next_sibling[child];
        if prev == NONE {
            self.first_child[parent] = next;
        } else {
            self.next_sibling[prev as usize] = next;
        }
        if next != NONE {
            self.prev_sibling[next as usize] = prev;
        }
    }
}

/// Re-derives the cost of every descendant of `root` from its parent's
/// (already updated) cost, breadth-first in a pooled worklist.
///
/// Costs are recomputed as `parent.cost + edge length` — the exact
/// expression node creation and rewiring use — rather than by adding a
/// delta, so the `cost = Σ edge lengths along the parent chain` invariant
/// holds bit-exactly and float error cannot accumulate across successive
/// rewires.  Traversal order (breadth-first, siblings in child-list order)
/// is deterministic: it depends only on the tree's edit history, never on
/// hashing or memory layout — and the costs it writes are order-independent
/// anyway (each descendant's cost is a pure function of its parent chain).
fn propagate_subtree_costs(
    nodes: &mut [StarNode],
    children: &ChildLinks,
    root: usize,
    worklist: &mut Vec<u32>,
) {
    worklist.clear();
    worklist.push(root as u32);
    let mut cursor = 0;
    while cursor < worklist.len() {
        let parent = worklist[cursor] as usize;
        cursor += 1;
        let mut child = children.first_child[parent];
        while child != NONE {
            let index = child as usize;
            nodes[index].cost =
                nodes[parent].cost + nodes[parent].position.distance(nodes[index].position);
            worklist.push(child);
            child = children.next_sibling[index];
        }
    }
}

/// Picks the goal connection with the lowest total cost (node cost-to-come
/// plus the final hop to the goal), evaluated on **final** node costs.
///
/// Candidacy is geometric (within goal tolerance, collision-free hop) and
/// so fixed at node creation; the *cost* of a candidate keeps dropping as
/// later rewires shorten its parent chain, which is why the total must be
/// recomputed here rather than captured when the candidate was created.
/// Ties resolve to the lowest node index (candidates are recorded in
/// creation order and the comparison is strict).
fn select_best_goal(nodes: &[StarNode], candidates: &[usize], goal: Vec3) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for &candidate in candidates {
        let total = nodes[candidate].cost + nodes[candidate].position.distance(goal);
        if best.map_or(true, |(_, cost)| total < cost) {
            best = Some((candidate, total));
        }
    }
    best
}

/// Parent candidates keyed `(prospective cost, node index)`, the unlisted
/// steering node keyed [`UNLISTED`], with the position of the cheapest key
/// tracked as they arrive.
///
/// Keys order costs by `total_cmp` and break ties by node index, so every
/// key is unique and taking them cheapest first visits them in exactly the
/// order a sort would.
#[derive(Debug, Default)]
struct ParentCandidates {
    keys: Vec<(f64, u32)>,
    cheapest: usize,
}

fn key_order(a: &(f64, u32), b: &(f64, u32)) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

impl ParentCandidates {
    fn clear(&mut self) {
        self.keys.clear();
        self.cheapest = 0;
    }

    fn push(&mut self, key: (f64, u32)) {
        if self.keys.get(self.cheapest).map_or(true, |best| key_order(&key, best).is_lt()) {
            self.cheapest = self.keys.len();
        }
        self.keys.push(key);
    }

    /// Removes and returns the cheapest candidate by one O(candidates)
    /// scan; `None` once no candidate is left.
    fn take_cheapest(&mut self) -> Option<(f64, u32)> {
        let (cheapest, _) =
            self.keys.iter().enumerate().min_by(|(_, a), (_, b)| key_order(a, b))?;
        Some(self.keys.swap_remove(cheapest))
    }

    /// Removes candidates cheapest first until `free(node key)` holds and
    /// returns that one, or `None` when every candidate is blocked.  Call
    /// once per fill.  The tracked cheapest key comes first without a scan;
    /// only when its march is blocked is each further candidate found by
    /// [`ParentCandidates::take_cheapest`] — cheaper than sorting all ~50
    /// up front, since the cheapest almost always wins.
    fn first_free(&mut self, mut free: impl FnMut(u32) -> bool) -> Option<(f64, u32)> {
        let mut next =
            (self.cheapest < self.keys.len()).then(|| self.keys.swap_remove(self.cheapest));
        while let Some(key) = next {
            if free(key.1) {
                return Some(key);
            }
            next = self.take_cheapest();
        }
        None
    }
}

/// RRT*: the default motion planner of the paper's PPC pipeline.
///
/// Compared to plain RRT it selects the lowest-cost parent within a
/// neighbourhood and rewires neighbours through new nodes, producing shorter
/// and smoother paths at a higher planning cost (the paper charges 83 ms per
/// trajectory generation on the i9).
///
/// # Examples
///
/// ```
/// use mavfi_ppc::planning::{MotionPlanner, PlannerConfig, RrtStar};
/// use mavfi_sim::env::EnvironmentKind;
///
/// let env = EnvironmentKind::Sparse.build(2);
/// let mut planner = RrtStar::new(PlannerConfig::for_bounds(env.bounds()).with_seed(3));
/// assert!(planner.plan(&env, env.start(), env.goal()).is_some());
/// ```
#[derive(Debug)]
pub struct RrtStar {
    config: PlannerConfig,
    rng: StdRng,
    // Everything below is pooled across `plan` calls per the scratch-buffer
    // convention (docs/PERFORMANCE.md): cleared, never shrunk.
    nodes: Vec<StarNode>,
    // The rewiring neighbourhood: `(node index, distance to the new node)`.
    neighbours: Vec<(usize, f64)>,
    // Spatial index over tree nodes for `nearest` and the rewiring-radius
    // query (bit-identical to the linear scans; `use_index` is the
    // verification knob).
    index: NnIndex,
    use_index: bool,
    // Child adjacency + worklist for propagating rewired cost reductions.
    children: ChildLinks,
    worklist: Vec<u32>,
    // Nodes with a verified collision-free hop to the goal.
    goal_candidates: Vec<usize>,
    // Parent candidates, taken cheapest first so the best-parent scan can
    // stop at the first collision-free one.
    parent_candidates: ParentCandidates,
    // `neighbours[i]`'s cost before the rewire pass, read once while the
    // parent candidates are built.
    pre_costs: Vec<f64>,
    // Neighbours that can still be rewired, in ascending node order.
    rewire_survivors: Vec<(usize, f64)>,
}

impl RrtStar {
    /// Creates an RRT* planner.
    pub fn new(config: PlannerConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        Self {
            config,
            rng,
            nodes: Vec::new(),
            neighbours: Vec::new(),
            index: NnIndex::new(),
            use_index: true,
            children: ChildLinks::default(),
            worklist: Vec::new(),
            goal_candidates: Vec::new(),
            parent_candidates: ParentCandidates::default(),
            pre_costs: Vec::new(),
            rewire_survivors: Vec::new(),
        }
    }

    /// The planner configuration.
    pub fn config(&self) -> PlannerConfig {
        self.config
    }
}

impl MotionPlanner for RrtStar {
    fn kernel(&self) -> KernelId {
        KernelId::RrtStar
    }

    fn set_spatial_index_enabled(&mut self, enabled: bool) {
        self.use_index = enabled;
    }

    fn plan(&mut self, model: &dyn ObstacleModel, start: Vec3, goal: Vec3) -> Option<PlannedPath> {
        let mut out = PlannedPath::default();
        self.plan_into(model, start, goal, &mut out).then_some(out)
    }

    fn plan_into(
        &mut self,
        model: &dyn ObstacleModel,
        start: Vec3,
        goal: Vec3,
        out: &mut PlannedPath,
    ) -> bool {
        out.waypoints.clear();
        // A non-finite start cannot root a tree; no model calls a segment
        // from it free, so no straight path leaves it either.
        if !start.is_finite() || !model.point_free(goal, self.config.margin) {
            return false;
        }
        if model.segment_free(start, goal, self.config.margin) {
            out.waypoints.push(start);
            out.waypoints.push(goal);
            return true;
        }

        self.nodes.clear();
        self.nodes.push(StarNode { position: start, parent: None, cost: 0.0 });
        self.children.clear();
        self.children.push_node();
        self.goal_candidates.clear();
        if self.use_index {
            self.index.reset(self.config.step_size, index_region(self.config.bounds, start, goal));
            self.index.insert(start);
        }
        let nodes = &mut self.nodes;
        let neighbours = &mut self.neighbours;

        for _ in 0..self.config.max_iterations {
            let sample = sample_point(&mut self.rng, &self.config, goal);
            let nearest_index = if self.use_index {
                self.index.nearest(sample)
            } else {
                nodes
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| {
                        a.position
                            .distance(sample)
                            .partial_cmp(&b.position.distance(sample))
                            .expect("finite distances")
                    })
                    .map(|(index, _)| index)
                    .expect("tree non-empty")
            };
            let new_position = steer(nodes[nearest_index].position, sample, self.config.step_size);
            if !model.point_free(new_position, self.config.margin) {
                continue;
            }

            // The rewiring neighbourhood with each hit's distance to the new
            // position, in no particular order: nothing below depends on it.
            if self.use_index {
                self.index.within_radius(new_position, self.config.rewire_radius, neighbours);
            } else {
                neighbours.clear();
                neighbours.extend(nodes.iter().enumerate().filter_map(|(index, node)| {
                    let distance = node.position.distance(new_position);
                    (distance <= self.config.rewire_radius).then_some((index, distance))
                }));
            }

            // Choose the best parent within the rewiring radius; the
            // steering node is a candidate too, keyed last, but only when it
            // lies *outside* the radius (when inside it is already in
            // `neighbours`, and re-marching `segment_free` for it would
            // double the most expensive query of the loop for no behavioural
            // difference — the strict `<` keeps the first evaluation's
            // result).  `first_free` tries candidates cheapest first by
            // `(prospective cost, node index)` and stops at the first with a
            // collision-free segment: the minimum key over the free
            // candidates, exactly what a full scan keeping the strict-`<`
            // minimum returns, but the expensive march runs only until the
            // winner is found.  Each neighbour's cost is read once, here;
            // the rewire pass prefilters on these values.
            self.pre_costs.clear();
            let candidates = &mut self.parent_candidates;
            candidates.clear();
            let mut nearest_unlisted = true;
            for &(neighbour, distance) in neighbours.iter() {
                debug_assert!(neighbour < UNLISTED as usize, "node indices fit below the key");
                let cost = nodes[neighbour].cost;
                self.pre_costs.push(cost);
                nearest_unlisted &= neighbour != nearest_index;
                candidates.push((cost + distance, neighbour as u32));
            }
            if nearest_unlisted {
                let parent = &nodes[nearest_index];
                candidates.push((parent.cost + parent.position.distance(new_position), UNLISTED));
            }
            let node_of = |key: u32| if key == UNLISTED { nearest_index } else { key as usize };
            let Some((best_cost, parent_key)) = candidates.first_free(|key| {
                model.segment_free(nodes[node_of(key)].position, new_position, self.config.margin)
            }) else {
                continue;
            };
            let parent_index = node_of(parent_key);
            nodes.push(StarNode {
                position: new_position,
                parent: Some(parent_index),
                cost: best_cost,
            });
            let new_index = nodes.len() - 1;
            self.children.push_node();
            self.children.link(new_index, parent_index);
            if self.use_index {
                self.index.insert(new_position);
            }

            // Rewire neighbours through the new node when cheaper, and
            // propagate each reduction to the rewired node's descendants:
            // their costs are sums over parent chains that now include the
            // cheaper edge, and stale descendant costs would corrupt every
            // later best-parent choice, rewire decision and the final goal
            // selection.
            // Order is observable (a rewire's propagation can lower a later
            // neighbour's cost mid-loop), so the test below runs in
            // ascending node order on fresh costs, exactly like a scan over
            // every neighbour.  Only neighbours that pass it on the
            // pre-loop costs are ordered and tested, which skips nothing
            // that scan would rewire: during the loop costs only fall — a
            // rewire lowers one cost, and propagation re-derives each
            // descendant as `parent.cost + edge` from a lower parent cost,
            // which float rounding cannot raise — so a neighbour failing
            // `through_new + 1e-9 < cost` before the loop fails it at its
            // turn too.  The survivors meet the same state, in the same
            // relative order, as they would in the full scan.
            let survivors = &mut self.rewire_survivors;
            survivors.clear();
            survivors.extend(neighbours.iter().zip(&self.pre_costs).filter_map(
                |(&(neighbour, distance), &pre_cost)| {
                    (best_cost + distance + 1e-9 < pre_cost).then_some((neighbour, distance))
                },
            ));
            survivors.sort_unstable_by_key(|&(neighbour, _)| neighbour);
            for &(neighbour, distance) in survivors.iter() {
                let through_new = best_cost + distance;
                if through_new + 1e-9 < nodes[neighbour].cost
                    && model.segment_free(
                        new_position,
                        nodes[neighbour].position,
                        self.config.margin,
                    )
                {
                    let old_parent =
                        nodes[neighbour].parent.expect("only the root has cost 0 and no parent");
                    self.children.unlink(neighbour, old_parent);
                    self.children.link(neighbour, new_index);
                    nodes[neighbour].parent = Some(new_index);
                    nodes[neighbour].cost = through_new;
                    propagate_subtree_costs(nodes, &self.children, neighbour, &mut self.worklist);
                }
            }

            // Record goal candidacy (geometric, so decided once per node);
            // totals are compared after the iteration budget, on final costs.
            if new_position.distance(goal) <= self.config.goal_tolerance
                && model.segment_free(new_position, goal, self.config.margin)
            {
                self.goal_candidates.push(new_index);
            }
        }

        match select_best_goal(nodes, &self.goal_candidates, goal) {
            Some((index, _)) => {
                trace_path_into(nodes, index, &mut out.waypoints);
                out.waypoints.push(goal);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use super::*;
    use crate::perception::occupancy::OccupancyGrid;
    use crate::planning::rrt::Rrt;
    use mavfi_sim::env::{Environment, EnvironmentKind};

    /// A non-finite start is no path, not a straight line through a wall.
    #[test]
    fn a_non_finite_start_plans_nothing() {
        let mut grid = OccupancyGrid::new(0.5);
        grid.insert_point(Vec3::new(5.0, 0.0, 0.0));
        let bounds = mavfi_sim::geometry::Aabb::new(Vec3::splat(-10.0), Vec3::splat(20.0));
        let mut planner = RrtStar::new(PlannerConfig::for_bounds(bounds));
        let goal = Vec3::new(10.0, 0.0, 0.0);
        for start in [Vec3::new(f64::NAN, 0.0, 0.0), Vec3::new(0.0, 0.0, f64::INFINITY)] {
            assert_eq!(planner.plan(&grid, start, goal), None, "{start:?}");
        }
        assert!(planner.plan(&grid, Vec3::ZERO, goal).is_some(), "a finite start still plans");
    }

    #[test]
    fn plans_collision_free_paths() {
        let env = EnvironmentKind::Sparse.build(13);
        let mut planner = RrtStar::new(PlannerConfig::for_bounds(env.bounds()).with_seed(6));
        let path = planner.plan(&env, env.start(), env.goal()).expect("solvable");
        assert!(path.is_collision_free(&env, planner.config().margin * 0.9));
        assert_eq!(path.waypoints[0], env.start());
        assert_eq!(*path.waypoints.last().unwrap(), env.goal());
    }

    #[test]
    fn deterministic_per_seed() {
        let env = EnvironmentKind::Sparse.build(4);
        let config = PlannerConfig::for_bounds(env.bounds()).with_seed(12);
        let a = RrtStar::new(config).plan(&env, env.start(), env.goal());
        let b = RrtStar::new(config).plan(&env, env.start(), env.goal());
        assert_eq!(a, b);
    }

    /// The selection `ParentCandidates` replaced: sort every candidate by
    /// `(cost, key)` and take the first one whose segment is free.
    fn sorted_selection(candidates: &[(f64, u32)], blocked: &[u32]) -> Option<(f64, u32)> {
        let mut sorted = candidates.to_vec();
        sorted.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        sorted.into_iter().find(|(_, key)| !blocked.contains(key))
    }

    fn on_demand_selection(candidates: &[(f64, u32)], blocked: &[u32]) -> Option<(f64, u32)> {
        let mut pool = ParentCandidates::default();
        for &candidate in candidates {
            pool.push(candidate);
        }
        pool.first_free(|key| !blocked.contains(&key))
    }

    /// On-demand parent selection picks exactly the candidate the sorted
    /// scan picked: with tied costs (node index breaks them, the unlisted
    /// steering node last), with the cheapest few candidates blocked, and
    /// with every candidate blocked.
    #[test]
    fn on_demand_parent_selection_matches_the_sorted_scan() {
        for length in [0_u32, 1, 2, 7, 51] {
            // Node indices in scrambled order (radius hits come unordered),
            // costs from a small set so most lists hold several ties, and
            // the unlisted steering node tied with the first listed node.
            let mut candidates: Vec<(f64, u32)> = (0..length)
                .map(|i| {
                    let cost = [4.5, 2.0, 7.25, 2.0, 3.0][(i as usize * 7 + 3) % 5];
                    (cost + f64::from(i % 3) * 0.5, (i * 37 + 11) % 101)
                })
                .collect();
            if let Some(&(cost, _)) = candidates.first() {
                candidates.insert(length as usize / 2, (cost, UNLISTED));
            }
            let mut order = candidates.clone();
            order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            // Block the k cheapest, for every k (k = all blocks all).
            for blocked_count in 0..=order.len() {
                let blocked: Vec<u32> =
                    order[..blocked_count].iter().map(|&(_, key)| key).collect();
                let expected = sorted_selection(&candidates, &blocked);
                assert_eq!(on_demand_selection(&candidates, &blocked), expected);
                assert_eq!(expected.is_none(), blocked_count == order.len());
            }
            // Block by key instead, hitting ties from both sides.
            let blocked: Vec<u32> =
                candidates.iter().map(|&(_, key)| key).filter(|key| key % 4 != 3).collect();
            assert_eq!(
                on_demand_selection(&candidates, &blocked),
                sorted_selection(&candidates, &blocked)
            );
            // Draining the pool yields the whole sorted order.
            let mut pool = ParentCandidates::default();
            for &candidate in &candidates {
                pool.push(candidate);
            }
            let drained: Vec<(f64, u32)> = std::iter::from_fn(|| pool.take_cheapest()).collect();
            assert_eq!(drained, order);
        }
    }

    /// An obstacle model that logs every query — kind, argument bits and
    /// answer — on its way to the wrapped model.
    struct Recording<'a> {
        model: &'a dyn ObstacleModel,
        log: RefCell<Vec<[u64; 9]>>,
    }

    impl<'a> Recording<'a> {
        fn new(model: &'a dyn ObstacleModel) -> Self {
            Self { model, log: RefCell::new(Vec::new()) }
        }

        fn take(&self) -> Vec<[u64; 9]> {
            std::mem::take(&mut self.log.borrow_mut())
        }
    }

    impl ObstacleModel for Recording<'_> {
        fn point_free(&self, point: Vec3, margin: f64) -> bool {
            let free = self.model.point_free(point, margin);
            let [x, y, z] = [point.x, point.y, point.z].map(f64::to_bits);
            self.log.borrow_mut().push([0, x, y, z, 0, 0, 0, margin.to_bits(), u64::from(free)]);
            free
        }

        fn segment_free(&self, a: Vec3, b: Vec3, margin: f64) -> bool {
            let free = self.model.segment_free(a, b, margin);
            let [ax, ay, az, bx, by, bz] = [a.x, a.y, a.z, b.x, b.y, b.z].map(f64::to_bits);
            self.log.borrow_mut().push([
                1,
                ax,
                ay,
                az,
                bx,
                by,
                bz,
                margin.to_bits(),
                u64::from(free),
            ]);
            free
        }
    }

    /// A transcription of the RRT* loop before radius hits came unordered:
    /// a linear neighbourhood in ascending node order, parents tried in a
    /// full sort by `(cost, sequence position)` with the unlisted steering
    /// node appended last, and a rewire scan over every neighbour in
    /// ascending order on fresh costs.
    struct ReferenceRrtStar {
        config: PlannerConfig,
        rng: StdRng,
        nodes: Vec<StarNode>,
    }

    impl ReferenceRrtStar {
        fn new(config: PlannerConfig) -> Self {
            Self { config, rng: StdRng::seed_from_u64(config.seed), nodes: Vec::new() }
        }

        fn plan(
            &mut self,
            model: &dyn ObstacleModel,
            start: Vec3,
            goal: Vec3,
        ) -> Option<PlannedPath> {
            let config = self.config;
            if !model.point_free(goal, config.margin) {
                return None;
            }
            if model.segment_free(start, goal, config.margin) {
                return Some(PlannedPath::new(vec![start, goal]));
            }
            let nodes = &mut self.nodes;
            nodes.clear();
            nodes.push(StarNode { position: start, parent: None, cost: 0.0 });
            let mut children = ChildLinks::default();
            children.push_node();
            let mut worklist = Vec::new();
            let mut goal_candidates = Vec::new();
            for _ in 0..config.max_iterations {
                let sample = sample_point(&mut self.rng, &config, goal);
                let nearest = (0..nodes.len())
                    .min_by(|&a, &b| {
                        let (a, b) = (nodes[a].position, nodes[b].position);
                        a.distance(sample).partial_cmp(&b.distance(sample)).expect("finite")
                    })
                    .expect("tree non-empty");
                let new_position = steer(nodes[nearest].position, sample, config.step_size);
                if !model.point_free(new_position, config.margin) {
                    continue;
                }
                let neighbours: Vec<usize> = (0..nodes.len())
                    .filter(|&i| nodes[i].position.distance(new_position) <= config.rewire_radius)
                    .collect();
                let unlisted = (!neighbours.contains(&nearest)).then_some(nearest);
                let mut candidates: Vec<(f64, usize, usize)> = neighbours
                    .iter()
                    .copied()
                    .chain(unlisted)
                    .enumerate()
                    .map(|(sequence, node)| {
                        let parent = &nodes[node];
                        (parent.cost + parent.position.distance(new_position), sequence, node)
                    })
                    .collect();
                candidates.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                let Some(&(best_cost, _, parent)) = candidates.iter().find(|&&(_, _, node)| {
                    model.segment_free(nodes[node].position, new_position, config.margin)
                }) else {
                    continue;
                };
                nodes.push(StarNode {
                    position: new_position,
                    parent: Some(parent),
                    cost: best_cost,
                });
                let new_index = nodes.len() - 1;
                children.push_node();
                children.link(new_index, parent);
                for &neighbour in &neighbours {
                    let through_new = best_cost + nodes[neighbour].position.distance(new_position);
                    if through_new + 1e-9 < nodes[neighbour].cost
                        && model.segment_free(
                            new_position,
                            nodes[neighbour].position,
                            config.margin,
                        )
                    {
                        let old_parent = nodes[neighbour].parent.expect("not the root");
                        children.unlink(neighbour, old_parent);
                        children.link(neighbour, new_index);
                        nodes[neighbour].parent = Some(new_index);
                        nodes[neighbour].cost = through_new;
                        propagate_subtree_costs(nodes, &children, neighbour, &mut worklist);
                    }
                }
                if new_position.distance(goal) <= config.goal_tolerance
                    && model.segment_free(new_position, goal, config.margin)
                {
                    goal_candidates.push(new_index);
                }
            }
            let (best, _) = select_best_goal(nodes, &goal_candidates, goal)?;
            let mut waypoints = Vec::new();
            trace_path_into(nodes, best, &mut waypoints);
            waypoints.push(goal);
            Some(PlannedPath::new(waypoints))
        }
    }

    /// Every node's position, parent and cost, bit for bit.
    fn tree_bits(nodes: &[StarNode]) -> Vec<([u64; 3], Option<usize>, u64)> {
        nodes
            .iter()
            .map(|node| {
                let p = node.position;
                ([p.x, p.y, p.z].map(f64::to_bits), node.parent, node.cost.to_bits())
            })
            .collect()
    }

    /// Asserts two query logs are equal, naming the first differing query
    /// rather than printing both logs.
    fn assert_same_queries(actual: &[[u64; 9]], expected: &[[u64; 9]], what: &str) {
        if let Some(at) = actual.iter().zip(expected).position(|(a, b)| a != b) {
            panic!("{what}: query {at} differs: {:?} vs {:?}", actual[at], expected[at]);
        }
        assert_eq!(actual.len(), expected.len(), "{what}: query counts differ");
    }

    /// An occupancy grid holding a 0.5 m voxel lattice over every obstacle.
    fn voxelized(env: &Environment) -> OccupancyGrid {
        let mut grid = OccupancyGrid::new(0.5);
        for obstacle in env.obstacles() {
            let (min, max) = (obstacle.aabb.min, obstacle.aabb.max);
            let steps = |lo: f64, hi: f64| {
                (0..=((hi - lo) / 0.5).ceil() as usize).map(move |i| (lo + i as f64 * 0.5).min(hi))
            };
            for x in steps(min.x, max.x) {
                for y in steps(min.y, max.y) {
                    for z in steps(min.z, max.z) {
                        grid.insert_point(Vec3::new(x, y, z));
                    }
                }
            }
        }
        grid
    }

    /// RRT* with the index on and off issues exactly the reference loop's
    /// `point_free`/`segment_free` queries, in the same order with the same
    /// argument bits, and builds bit-identical trees and paths — on ground
    /// truth and on an occupancy grid, over several plans per planner so
    /// warm buffers, the stepped RNG and regions of other sizes are
    /// covered.
    #[test]
    fn plans_match_the_reference_loop_query_for_query() {
        let sparse = EnvironmentKind::Sparse.build(13);
        let dense = EnvironmentKind::Dense.build(8);
        let farm = EnvironmentKind::Farm.build(2);
        let grid = voxelized(&sparse);
        let instances: [(&str, &Environment, &dyn ObstacleModel); 4] = [
            ("Sparse 13", &sparse, &sparse),
            ("Dense 8", &dense, &dense),
            ("Farm 2", &farm, &farm),
            ("Sparse 13 voxelized", &sparse, &grid),
        ];
        let (mut trees_built, mut trees_from_outside) = (0, 0);
        for ((name, env, model), rewire_radius) in instances.into_iter().flat_map(|instance| {
            // The default radius (twice the step) always holds the steering
            // node; a radius under one step often does not, so the unlisted
            // steering node is a candidate too.
            [(instance, None), (instance, Some(2.0))]
        }) {
            let mut config = PlannerConfig::for_bounds(env.bounds()).with_seed(6);
            config.rewire_radius = rewire_radius.unwrap_or(config.rewire_radius);
            let mut indexed = RrtStar::new(config);
            let mut linear = RrtStar::new(config);
            linear.set_spatial_index_enabled(false);
            let mut reference = ReferenceRrtStar::new(config);
            // A start outside the sampling bounds: the index's region must
            // grow to contain it, since the tree is rooted there.
            let outside = Vec3::new(config.bounds.min.x - 1.0, env.start().y, env.start().z);
            for (start, goal) in
                [(env.start(), env.goal()), (env.goal(), env.start()), (outside, env.goal())]
            {
                let recording = Recording::new(model);
                let expected = reference.plan(&recording, start, goal);
                let expected_queries = recording.take();
                let expected_tree = tree_bits(&reference.nodes);
                for (planner, label) in [(&mut indexed, "indexed"), (&mut linear, "linear")] {
                    let path = planner.plan(&recording, start, goal);
                    let what = format!("{name} r={} {label} from {start:?}", config.rewire_radius);
                    assert_same_queries(&recording.take(), &expected_queries, &what);
                    assert_eq!(tree_bits(&planner.nodes), expected_tree, "{what}: trees differ");
                    assert_eq!(path, expected, "{what}: paths differ");
                }
                trees_built += usize::from(expected_tree.len() > 50);
                if start == outside && expected_tree.len() > 1 {
                    assert_eq!(indexed.nodes[0].position, outside, "the tree is rooted outside");
                    trees_from_outside += 1;
                }
            }
        }
        assert!(trees_built >= 12, "most plans must search a real tree, got {trees_built}");
        assert!(trees_from_outside >= 4, "trees must grow from the outside start");
    }

    /// Regression for the stale-cost rewiring bug: a hand-built tree where
    /// the old code (update the rewired neighbour only) provably selects a
    /// non-optimal goal connection.
    ///
    /// Layout (z = 0 everywhere): the root's path to `via` detours through
    /// `detour`, and `leaf` (the goal candidate) hangs off `via`:
    ///
    /// ```text
    /// root (0,0) ── detour (0,10) ── via (6,8) ── leaf (12,8)   [goal hop]
    ///          └── cheap (6,4)   ← new node that rewires `via`
    /// ```
    #[test]
    fn rewiring_propagates_cost_reductions_to_descendants() {
        let root = Vec3::ZERO;
        let detour = Vec3::new(0.0, 10.0, 0.0);
        let via = Vec3::new(6.0, 8.0, 0.0);
        let leaf = Vec3::new(12.0, 8.0, 0.0);
        let cheap = Vec3::new(6.0, 4.0, 0.0);

        let mut nodes = vec![
            StarNode { position: root, parent: None, cost: 0.0 },
            StarNode { position: detour, parent: Some(0), cost: root.distance(detour) },
            StarNode {
                position: via,
                parent: Some(1),
                cost: root.distance(detour) + detour.distance(via),
            },
        ];
        nodes.push(StarNode {
            position: leaf,
            parent: Some(2),
            cost: nodes[2].cost + via.distance(leaf),
        });
        let mut children = ChildLinks::default();
        for _ in 0..nodes.len() {
            children.push_node();
        }
        children.link(1, 0);
        children.link(2, 1);
        children.link(3, 2);
        let stale_leaf_cost = nodes[3].cost;

        // The new node, wired straight to the root, rewires `via` exactly
        // as the planner's rewire step does.
        nodes.push(StarNode { position: cheap, parent: Some(0), cost: root.distance(cheap) });
        children.push_node();
        children.link(4, 0);
        let through_new = nodes[4].cost + cheap.distance(via);
        assert!(through_new + 1e-9 < nodes[2].cost, "the rewire must be profitable");
        children.unlink(2, 1);
        children.link(2, 4);
        nodes[2].parent = Some(4);
        nodes[2].cost = through_new;
        let mut worklist = Vec::new();
        propagate_subtree_costs(&mut nodes, &children, 2, &mut worklist);

        // The descendant's cost must reflect the rewired chain exactly.
        let expected_leaf_cost = nodes[2].cost + via.distance(leaf);
        assert_eq!(nodes[3].cost, expected_leaf_cost, "leaf cost must be re-derived");
        assert!(
            nodes[3].cost < stale_leaf_cost,
            "the reduction must reach the descendant (old code left {stale_leaf_cost})"
        );

        // And the goal selection must see the reduction: with the stale
        // leaf cost the old code would report a provably non-optimal total.
        let goal = Vec3::new(13.0, 8.0, 0.0);
        let (best, total) =
            select_best_goal(&nodes, &[3], goal).expect("candidate recorded at creation");
        assert_eq!(best, 3);
        assert_eq!(total, expected_leaf_cost + leaf.distance(goal));
        assert!(total < stale_leaf_cost + leaf.distance(goal));
    }

    /// The cost invariant the old rewiring code violated on real plans:
    /// after planning, every node's stored cost must equal its parent's
    /// cost plus the connecting edge length, bit-exactly.  (Any rewire
    /// above a node with descendants broke this before the fix.)
    #[test]
    fn final_tree_costs_satisfy_the_parent_edge_invariant() {
        for (kind, env_seed, planner_seed) in [
            (EnvironmentKind::Sparse, 13_u64, 6_u64),
            (EnvironmentKind::Sparse, 21, 1),
            (EnvironmentKind::Dense, 8, 9),
        ] {
            let env = kind.build(env_seed);
            let mut planner =
                RrtStar::new(PlannerConfig::for_bounds(env.bounds()).with_seed(planner_seed));
            planner.plan(&env, env.start(), env.goal());
            assert!(planner.nodes.len() > 50, "the search must have built a real tree");
            for (index, node) in planner.nodes.iter().enumerate() {
                let Some(parent) = node.parent else {
                    assert_eq!(node.cost, 0.0, "root cost");
                    continue;
                };
                let parent_node = &planner.nodes[parent];
                assert_eq!(
                    node.cost,
                    parent_node.cost + parent_node.position.distance(node.position),
                    "stale cost at node {index} of {}/{env_seed}",
                    env.name()
                );
            }
        }
    }

    /// `select_best_goal` evaluates totals on final costs: a candidate whose
    /// cost dropped after its goal connection was discovered must win over a
    /// candidate that looked better at discovery time (the old `best_goal`
    /// captured totals at creation and never revisited them).
    #[test]
    fn goal_selection_recomputes_totals_from_final_costs() {
        let goal = Vec3::new(20.0, 0.0, 0.0);
        let near = Vec3::new(19.0, 0.0, 0.0);
        let far = Vec3::new(19.0, 1.0, 0.0);
        let nodes = vec![
            StarNode { position: Vec3::ZERO, parent: None, cost: 0.0 },
            // Discovered first with an (initially) terrible cost that a
            // later rewire reduced to 19.0 — the state after propagation.
            StarNode { position: near, parent: Some(0), cost: 19.0 },
            // Discovered second; never rewired.
            StarNode { position: far, parent: Some(0), cost: 19.5 },
        ];
        let (best, total) = select_best_goal(&nodes, &[1, 2], goal).expect("two candidates");
        assert_eq!(best, 1, "the rewired candidate must win on its final cost");
        assert_eq!(total, 19.0 + near.distance(goal));
    }

    #[test]
    fn rrt_star_paths_are_not_longer_than_rrt_on_average() {
        // Averaged over a few seeds, RRT* should produce shorter paths than
        // plain RRT thanks to rewiring.  Use the same iteration budget.
        let env = EnvironmentKind::Sparse.build(20);
        let mut star_total = 0.0;
        let mut rrt_total = 0.0;
        let mut solved = 0;
        for seed in 0..4_u64 {
            let config = PlannerConfig::for_bounds(env.bounds()).with_seed(seed);
            let star = RrtStar::new(config).plan(&env, env.start(), env.goal());
            let plain = Rrt::new(config).plan(&env, env.start(), env.goal());
            if let (Some(star), Some(plain)) = (star, plain) {
                star_total += star.length();
                rrt_total += plain.length();
                solved += 1;
            }
        }
        assert!(solved >= 2, "expected most seeds to solve the sparse world");
        assert!(
            star_total <= rrt_total * 1.05,
            "RRT* ({star_total:.1} m) should not be materially longer than RRT ({rrt_total:.1} m)"
        );
    }
}
