//! Pooled dense-cell spatial index over RRT-family tree nodes.
//!
//! The three sampling-based planners ask two questions per iteration:
//! *which tree node is nearest to this sample?* (every planner) and *which
//! nodes lie within the rewiring radius of this new node?* (RRT*).  Both
//! used to be O(n) scans over the whole tree, which made RRT* quadratic in
//! its iteration budget — a major share (with collision checking) of the
//! ~856 ms it spent per replan on a mission-observed Dense grid (the
//! indexed-vs-linear numbers are in `docs/PLANNERS.md`).
//!
//! [`NnIndex`] replaces the scans with a uniform grid over node positions:
//! a node lives in the cell `floor(position / cell_size)` per axis (the
//! occupancy grid's [`VoxelKey`] convention), and the cell edge is the
//! planner's `step_size` (new nodes land at most one step from an existing
//! node, so the nearest node is almost always within the first shell
//! searched).  The cells of a caller-given *region* — the planner's
//! sampling bounds grown to contain its start and goal, padded by one cell
//! on each side — form a flat table of bucket heads; a node whose cell lies
//! outside that table goes onto a single overflow chain that every query
//! scans, so results never depend on the region.  Its contract is
//! **bit-identical results** to the linear scans it replaces:
//!
//! * [`NnIndex::nearest`] returns the node index that minimises the exact
//!   same `Vec3::distance` the linear scan computes, breaking exact
//!   distance ties towards the **lowest node index** — precisely the
//!   "first minimum wins" semantics of `Iterator::min_by` over an
//!   index-ordered scan.  Cells are searched spiralling outward in
//!   Chebyshev shells and the search only stops once no unsearched shell
//!   can contain a strictly closer *or equal-distance lower-index* node.
//! * [`NnIndex::within_radius`] returns exactly the indices whose positions
//!   satisfy `position.distance(query) <= radius` (same inclusive
//!   comparison), each with the exact distance bits that test computed.
//!   The hits are **unordered**: the set is the linear filter's, the
//!   order is whatever the cell walk meets, so callers must not depend on
//!   it.
//!
//! Storage is pooled per the workspace scratch convention
//! (`docs/PERFORMANCE.md`): the planner owns one `NnIndex` for the lifetime
//! of the planner, [`NnIndex::reset`] clears it while keeping every
//! allocation, and inserts are incremental (no rebuilds, no rebalancing),
//! so a warm planner's replans touch the allocator only when a tree or a
//! region grows past all previous high-water marks.  Buckets are intrusive
//! singly-linked lists (`head` per cell, `next` per node) rather than
//! per-cell `Vec`s, and `reset` empties only the cells the previous tree
//! used — O(previous nodes), not O(region) — so the table is all-empty
//! between trees and a new region merely resizes it.

use std::ops::RangeInclusive;

use mavfi_sim::geometry::{Aabb, Vec3};

use crate::perception::occupancy::VoxelKey;

/// Sentinel for "no node" in the intrusive bucket lists.
const NONE: u32 = u32::MAX;

/// Trees of at most this many nodes are scanned linearly inside
/// [`NnIndex::nearest`]: a linear scan is a branch-predictable ~1 ns/node
/// sweep, while a shell walk pays per cell visited.  The value is measured:
/// RRT* plans on Dense 3, Sparse 4 and Dense 8 (ground-truth obstacles, two
/// plans each, 30 rounds with the cutoffs interleaved, 2-vCPU VM) took, as
/// the median per-round ratio to a cutoff of 256, 1.23 at 2048 (the value
/// chosen when each walked cell cost a hash probe), 0.98 at 512, 0.99 at
/// 128 and 0.98 at 0 (always walk).  The optimum is flat below ~512 because
/// the walk only visits cells inside the occupied box; 256 sits in the
/// middle of it.  Planners that connect quickly, like RRT-Connect on open
/// grids, stay in the linear regime.  The result is bit-identical either
/// way — this is a latency knob, not a behaviour knob.
const LINEAR_NEAREST_CUTOFF: usize = 256;

/// Most cells the table may have; a larger region gets no table at all, so
/// every node goes onto the overflow chain (still exact, just linear).
/// Planner regions are a few thousand cells.
const MAX_TABLE_CELLS: f64 = (1u64 << 20) as f64;

/// Largest magnitude of a table corner's cell coordinate.  Keeping the
/// table (and so every occupied table cell) this close to the origin lets
/// the shell walk subtract cell coordinates without overflow.
const MAX_TABLE_KEY: f64 = (1u64 << 40) as f64;

/// Largest magnitude of a query cell coordinate the shell walk accepts;
/// farther queries take the linear scan.
const MAX_WALK_KEY: u64 = 1 << 41;

/// Widest search box, in cells per axis, that [`NnIndex::within_radius`]
/// walks with per-axis gap tables; wider boxes take the general loop.  A
/// rewiring radius of two cells (RRT*'s 5 m over 2.5 m cells) spans at
/// most five.
const GAP_CELLS: usize = 8;

/// A pooled, incrementally built uniform-grid index over points, returning
/// nearest-neighbour and radius queries bit-identical to linear scans.
///
/// Node indices are assigned by insertion order (`0, 1, 2, …`), matching
/// the planners' tree `Vec` indices.
///
/// # Examples
///
/// ```
/// use mavfi_ppc::planning::NnIndex;
/// use mavfi_sim::geometry::{Aabb, Vec3};
///
/// let mut index = NnIndex::new();
/// index.reset(2.5, Aabb::new(Vec3::splat(-5.0), Vec3::splat(5.0)));
/// index.insert(Vec3::ZERO);
/// // Outside the region: kept on the overflow chain, found all the same.
/// index.insert(Vec3::new(10.0, 0.0, 0.0));
/// assert_eq!(index.nearest(Vec3::new(8.0, 0.0, 0.0)), 1);
/// let mut out = Vec::new();
/// index.within_radius(Vec3::ZERO, 1.0, &mut out);
/// assert_eq!(out, [(0, 0.0)]);
/// ```
#[derive(Debug)]
pub struct NnIndex {
    /// Cell edge length (m); planners use their `step_size`.
    cell_size: f64,
    /// Cell of table slot 0: the region's lowest cell minus the pad.
    origin: VoxelKey,
    /// Table extent in cells along x, y and z (zero when the region could
    /// not be tabled).
    dims: [i64; 3],
    /// Dense cell table, z fastest: index of the most recently inserted
    /// node in each cell, or [`NONE`].
    heads: Vec<u32>,
    /// Most recently inserted node whose cell lies outside the table.
    overflow: u32,
    /// Intrusive chains: `next[i]` is the node inserted into `i`'s cell (or
    /// the overflow chain) just before `i`, or [`NONE`].
    next: Vec<u32>,
    /// Node positions in insertion order (the planners' node indices).
    positions: Vec<Vec3>,
    /// Bounding box of occupied table cells, for clamping shell walks.
    min_cell: VoxelKey,
    max_cell: VoxelKey,
}

impl Default for NnIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl NnIndex {
    /// Creates an empty index with a 1 m cell and no table (call
    /// [`NnIndex::reset`] with the real cell size and region before
    /// inserting).
    pub fn new() -> Self {
        Self {
            cell_size: 1.0,
            origin: VoxelKey { x: 0, y: 0, z: 0 },
            dims: [0; 3],
            heads: Vec::new(),
            overflow: NONE,
            next: Vec::new(),
            positions: Vec::new(),
            min_cell: VoxelKey { x: i64::MAX, y: i64::MAX, z: i64::MAX },
            max_cell: VoxelKey { x: i64::MIN, y: i64::MIN, z: i64::MIN },
        }
    }

    /// Clears the index for a new tree, keeping every allocation, and sets
    /// the cell edge length and the region the cell table covers.
    ///
    /// The region only decides where nodes are stored: a node outside it
    /// (or a region too large or not finite to table) is kept on the
    /// overflow chain, which every query scans, so query results never
    /// depend on it.  Clearing costs O(nodes of the previous tree).
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not positive and finite.
    pub fn reset(&mut self, cell_size: f64, region: Aabb) {
        assert!(cell_size > 0.0 && cell_size.is_finite(), "cell size must be positive");
        // Empty the previous tree's cells, under the layout they were
        // inserted with; every slot is then `NONE`.
        for node in 0..self.positions.len() {
            if let Some(slot) = self.slot(self.key_for(self.positions[node])) {
                self.heads[slot] = NONE;
            }
        }
        self.cell_size = cell_size;
        // Region cells padded by one on each side, in f64 so that a huge or
        // non-finite region is rejected before any integer conversion.
        let (min, max) = (region.min, region.max);
        let lo = [min.x, min.y, min.z].map(|v| (v / cell_size).floor() - 1.0);
        let hi = [max.x, max.y, max.z].map(|v| (v / cell_size).floor() + 1.0);
        let extent = [0, 1, 2].map(|axis| hi[axis] - lo[axis] + 1.0);
        let tabled = lo.iter().chain(&hi).all(|cell| cell.abs() <= MAX_TABLE_KEY)
            && extent.iter().all(|&cells| cells >= 1.0)
            && extent.iter().product::<f64>() <= MAX_TABLE_CELLS;
        if tabled {
            self.origin = VoxelKey { x: lo[0] as i64, y: lo[1] as i64, z: lo[2] as i64 };
            self.dims = extent.map(|cells| cells as i64);
        } else {
            self.dims = [0; 3];
        }
        let [dx, dy, dz] = self.dims;
        self.heads.resize((dx * dy * dz) as usize, NONE);
        self.overflow = NONE;
        self.next.clear();
        self.positions.clear();
        self.min_cell = VoxelKey { x: i64::MAX, y: i64::MAX, z: i64::MAX };
        self.max_cell = VoxelKey { x: i64::MIN, y: i64::MIN, z: i64::MIN };
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Returns `true` when nothing has been inserted since the last reset.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The current cell edge length (m).
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    fn key_for(&self, point: Vec3) -> VoxelKey {
        VoxelKey {
            x: (point.x / self.cell_size).floor() as i64,
            y: (point.y / self.cell_size).floor() as i64,
            z: (point.z / self.cell_size).floor() as i64,
        }
    }

    /// Table slot of `key`, or `None` when the cell lies outside the table.
    fn slot(&self, key: VoxelKey) -> Option<usize> {
        let [dx, dy, dz] = self.dims;
        let inside = |cell: i64, origin: i64, extent: i64| cell >= origin && cell < origin + extent;
        (inside(key.x, self.origin.x, dx)
            && inside(key.y, self.origin.y, dy)
            && inside(key.z, self.origin.z, dz))
        .then(|| self.table_slot(key.x, key.y, key.z))
    }

    /// Table slot of a cell known to lie inside the table.
    fn table_slot(&self, x: i64, y: i64, z: i64) -> usize {
        let [_, dy, dz] = self.dims;
        (((x - self.origin.x) * dy + (y - self.origin.y)) * dz + (z - self.origin.z)) as usize
    }

    /// Inserts a point and returns its index (insertion order, matching the
    /// caller's tree indices).
    pub fn insert(&mut self, position: Vec3) -> usize {
        debug_assert!(position.is_finite(), "tree nodes are always finite");
        let index = self.positions.len();
        assert!(index < NONE as usize, "index capacity exceeded");
        let key = self.key_for(position);
        let head = match self.slot(key) {
            Some(slot) => {
                self.min_cell.x = self.min_cell.x.min(key.x);
                self.min_cell.y = self.min_cell.y.min(key.y);
                self.min_cell.z = self.min_cell.z.min(key.z);
                self.max_cell.x = self.max_cell.x.max(key.x);
                self.max_cell.y = self.max_cell.y.max(key.y);
                self.max_cell.z = self.max_cell.z.max(key.z);
                &mut self.heads[slot]
            }
            None => &mut self.overflow,
        };
        self.next.push(std::mem::replace(head, index as u32));
        self.positions.push(position);
        index
    }

    /// Considers every node on the chain starting at `head` as a nearest
    /// candidate.
    fn scan_chain(&self, head: u32, query: Vec3, best_distance: &mut f64, best: &mut usize) {
        let mut node = head;
        while node != NONE {
            let candidate = node as usize;
            let distance = self.positions[candidate].distance(query);
            // Lowest-index tie-break: exactly `min_by`'s first-minimum-wins
            // over an index-ordered scan, independent of chain order.
            if distance < *best_distance || (distance == *best_distance && candidate < *best) {
                *best_distance = distance;
                *best = candidate;
            }
            node = self.next[candidate];
        }
    }

    /// Visits every occupied-box cell whose Chebyshev distance (in cells)
    /// from `center` is exactly `ring`.
    fn scan_ring(
        &self,
        center: VoxelKey,
        ring: i64,
        query: Vec3,
        best_distance: &mut f64,
        best: &mut usize,
    ) {
        let (lo, hi) = (self.min_cell, self.max_cell);
        // Offsets `from..=to` around `center` on one axis, clipped to the
        // occupied box (cells outside it hold no node).
        let span = |center: i64, from: i64, to: i64, lo: i64, hi: i64| {
            (center + from).max(lo)..=(center + to).min(hi)
        };
        let mut scan = |x: i64, y: i64, z: i64| {
            self.scan_chain(self.heads[self.table_slot(x, y, z)], query, best_distance, best);
        };
        if ring == 0 {
            if (lo.x..=hi.x).contains(&center.x)
                && (lo.y..=hi.y).contains(&center.y)
                && (lo.z..=hi.z).contains(&center.z)
            {
                scan(center.x, center.y, center.z);
            }
            return;
        }
        // Two full z faces, then the x and y side bands between them; every
        // shell cell is visited at most once, in a fixed deterministic order
        // (the order is irrelevant to the result — `scan_chain` compares
        // `(distance, index)` explicitly).
        let inner = ring - 1;
        for z in [center.z - ring, center.z + ring] {
            if !(lo.z..=hi.z).contains(&z) {
                continue;
            }
            for x in span(center.x, -ring, ring, lo.x, hi.x) {
                for y in span(center.y, -ring, ring, lo.y, hi.y) {
                    scan(x, y, z);
                }
            }
        }
        for x in [center.x - ring, center.x + ring] {
            if !(lo.x..=hi.x).contains(&x) {
                continue;
            }
            for y in span(center.y, -ring, ring, lo.y, hi.y) {
                for z in span(center.z, -inner, inner, lo.z, hi.z) {
                    scan(x, y, z);
                }
            }
        }
        for y in [center.y - ring, center.y + ring] {
            if !(lo.y..=hi.y).contains(&y) {
                continue;
            }
            for x in span(center.x, -inner, inner, lo.x, hi.x) {
                for z in span(center.z, -inner, inner, lo.z, hi.z) {
                    scan(x, y, z);
                }
            }
        }
    }

    /// Index of the indexed point nearest to `query`; exact distance ties
    /// resolve to the lowest index (bit-identical to a linear
    /// `min_by`-over-distance scan in index order).
    ///
    /// # Panics
    ///
    /// Panics if the index is empty.
    pub fn nearest(&self, query: Vec3) -> usize {
        assert!(!self.positions.is_empty(), "nearest query on an empty index");
        if self.positions.len() > LINEAR_NEAREST_CUTOFF {
            let center = self.key_for(query);
            if [center.x, center.y, center.z].iter().all(|c| c.unsigned_abs() <= MAX_WALK_KEY) {
                return self.walk_nearest(query, center);
            }
        }
        let mut best_distance = f64::INFINITY;
        let mut best = usize::MAX;
        for (candidate, position) in self.positions.iter().enumerate() {
            let distance = position.distance(query);
            if distance < best_distance {
                best_distance = distance;
                best = candidate;
            }
        }
        best
    }

    /// [`NnIndex::nearest`] by the overflow chain plus a shell walk over
    /// the table outward from `center`, the query's cell.
    fn walk_nearest(&self, query: Vec3, center: VoxelKey) -> usize {
        let mut best_distance = f64::INFINITY;
        let mut best = usize::MAX;
        self.scan_chain(self.overflow, query, &mut best_distance, &mut best);
        if self.min_cell.x > self.max_cell.x {
            // Every node is on the overflow chain.
            return best;
        }

        // Furthest shell that can still contain an occupied cell.
        let max_ring = [
            (center.x - self.min_cell.x).max(self.max_cell.x - center.x),
            (center.y - self.min_cell.y).max(self.max_cell.y - center.y),
            (center.z - self.min_cell.z).max(self.max_cell.z - center.z),
        ]
        .into_iter()
        .max()
        .expect("three axes")
        .max(0);

        // Nearest shell that contains any occupied cell: rings below the
        // query cell's Chebyshev distance to the occupied bounding box are
        // entirely out of bounds, so the walk can start there (samples land
        // far outside the tree early in a plan).
        let start_ring = [
            (self.min_cell.x - center.x).max(center.x - self.max_cell.x),
            (self.min_cell.y - center.y).max(center.y - self.max_cell.y),
            (self.min_cell.z - center.z).max(center.z - self.max_cell.z),
        ]
        .into_iter()
        .max()
        .expect("three axes")
        .max(0);

        for ring in start_ring..=max_ring {
            // A point in a cell `ring` shells away is at least
            // `(ring - 1) * cell_size` from the query (which lies inside the
            // center cell).  Stop only when that lower bound *strictly*
            // exceeds the best distance: an equal-distance node in a farther
            // shell could still win the lowest-index tie-break.
            if best != usize::MAX && ((ring - 1) as f64) * self.cell_size > best_distance {
                break;
            }
            self.scan_ring(center, ring, query, &mut best_distance, &mut best);
        }
        debug_assert!(best != usize::MAX, "occupied shells exhausted without a candidate");
        best
    }

    /// Collects into `out` every point with `position.distance(query) <=
    /// radius` (inclusive, the linear filter's exact comparison), each
    /// paired with that distance — the exact bits of
    /// `positions[i].distance(query)`.  The hits come in no particular
    /// order; an index-ordered linear filter yields the same set ascending.
    /// `out` is cleared first (clear-then-fill).
    pub fn within_radius(&self, query: Vec3, radius: f64, out: &mut Vec<(usize, f64)>) {
        out.clear();
        // Cells whose axis-aligned box lies strictly beyond `radius` from
        // the query cannot hold a point passing the inclusive distance test,
        // so skipping them is result-preserving.  The bound gets a relative
        // slack so float rounding in the bound itself can never out-prune
        // the exact comparison (corner cells of the search box are most of
        // its volume at this cell-to-radius ratio).  The same bound screens
        // single points by squared distance: `distance` is `dot().sqrt()`
        // and the square root is correctly rounded, so a distance within
        // `radius` comes from a square within `prune_sq`; only points that
        // fail the exact test are skipped, and survivors take the root of
        // the very `dot` that `distance` computes.
        let prune_sq = (radius * radius) * (1.0 + 1e-9);
        let mut collect = |head: u32| {
            let mut node = head;
            while node != NONE {
                let candidate = node as usize;
                let offset = self.positions[candidate] - query;
                let distance_sq = offset.dot(offset);
                if distance_sq <= prune_sq {
                    let distance = distance_sq.sqrt();
                    if distance <= radius {
                        out.push((candidate, distance));
                    }
                }
                node = self.next[candidate];
            }
        };
        collect(self.overflow);
        let lo = self.key_for(query - Vec3::splat(radius));
        let hi = self.key_for(query + Vec3::splat(radius));
        // Clipped to the occupied box, so every visited cell is a table
        // slot (the ranges are empty when no node is in the table).
        let x_range = lo.x.max(self.min_cell.x)..=hi.x.min(self.max_cell.x);
        let y_range = lo.y.max(self.min_cell.y)..=hi.y.min(self.max_cell.y);
        let z_range = lo.z.max(self.min_cell.z)..=hi.z.min(self.max_cell.z);
        if x_range.is_empty() || y_range.is_empty() || z_range.is_empty() {
            return;
        }
        let axis_gap_sq = |cell: i64, coordinate: f64| -> f64 {
            let low = cell as f64 * self.cell_size;
            let gap = (low - coordinate).max(coordinate - (low + self.cell_size)).max(0.0);
            gap * gap
        };
        // The ranges lie inside the occupied box, so their spans cannot
        // overflow.
        let fits = |range: &RangeInclusive<i64>| range.end() - range.start() < GAP_CELLS as i64;
        if !(fits(&x_range) && fits(&y_range) && fits(&z_range)) {
            for x in x_range {
                let x_gap_sq = axis_gap_sq(x, query.x);
                for y in y_range.clone() {
                    let xy_gap_sq = x_gap_sq + axis_gap_sq(y, query.y);
                    if xy_gap_sq > prune_sq {
                        continue;
                    }
                    for z in z_range.clone() {
                        if xy_gap_sq + axis_gap_sq(z, query.z) <= prune_sq {
                            collect(self.heads[self.table_slot(x, y, z)]);
                        }
                    }
                }
            }
            return;
        }
        // The common case: per-axis gap tables, and each (x, y) row's z run
        // walked as contiguous slots (z is the table's fastest axis).
        let gaps = |range: &RangeInclusive<i64>, coordinate: f64| {
            let mut gaps = [0.0; GAP_CELLS];
            for (gap, cell) in gaps.iter_mut().zip(range.clone()) {
                *gap = axis_gap_sq(cell, coordinate);
            }
            gaps
        };
        let (x_gaps, y_gaps) = (gaps(&x_range, query.x), gaps(&y_range, query.y));
        let z_cells = (z_range.end() - z_range.start() + 1) as usize;
        let z_gaps = gaps(&z_range, query.z);
        let z_gaps = &z_gaps[..z_cells];
        for (x, x_gap_sq) in x_range.zip(x_gaps) {
            for (y, y_gap_sq) in y_range.clone().zip(y_gaps) {
                let xy_gap_sq = x_gap_sq + y_gap_sq;
                if xy_gap_sq > prune_sq {
                    continue;
                }
                let base = self.table_slot(x, y, *z_range.start());
                for (&head, &z_gap_sq) in self.heads[base..base + z_cells].iter().zip(z_gaps) {
                    if xy_gap_sq + z_gap_sq <= prune_sq {
                        collect(head);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The linear references the index must agree with bit-for-bit.
    fn linear_nearest(points: &[Vec3], query: Vec3) -> usize {
        points
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.distance(query).partial_cmp(&b.distance(query)).expect("finite")
            })
            .map(|(index, _)| index)
            .expect("non-empty")
    }

    fn linear_within(points: &[Vec3], query: Vec3, radius: f64) -> Vec<usize> {
        points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance(query) <= radius)
            .map(|(index, _)| index)
            .collect()
    }

    /// Asserts that `hits` — a `within_radius` answer, in any order — holds
    /// exactly the linear filter's indices, each with the exact bits of
    /// `points[i].distance(query)`.
    fn assert_hits(hits: &[(usize, f64)], points: &[Vec3], query: Vec3, radius: f64) {
        let mut sorted = hits.to_vec();
        sorted.sort_unstable_by_key(|&(index, _)| index);
        let indices: Vec<usize> = sorted.iter().map(|&(index, _)| index).collect();
        assert_eq!(indices, linear_within(points, query, radius), "{query:?} r={radius}");
        for (index, distance) in sorted {
            assert_eq!(
                distance.to_bits(),
                points[index].distance(query).to_bits(),
                "distance of {index} from {query:?}"
            );
        }
    }

    /// A deterministic, clumpy point set of `count` base points (clumps
    /// force multi-node buckets), with a duplicate of an earlier point after
    /// every 10th: exact-tie territory.
    fn clumpy_points(count: i64) -> Vec<Vec3> {
        let mut points = Vec::new();
        for i in 0..count {
            let f = i as f64;
            points.push(Vec3::new(
                (f * 0.73).sin() * 20.0,
                (f * 1.31).cos() * 15.0,
                (f * 0.17).sin() * 6.0 + 3.0,
            ));
            if i % 10 == 0 {
                points.push(points[i as usize / 2]);
            }
        }
        points
    }

    fn test_points() -> Vec<Vec3> {
        clumpy_points(120)
    }

    /// A region covering every point of [`clumpy_points`].
    fn covering_region() -> Aabb {
        Aabb::new(Vec3::new(-20.0, -15.0, -3.0), Vec3::new(20.0, 15.0, 9.0))
    }

    fn query(i: i64) -> Vec3 {
        let f = i as f64;
        Vec3::new((f * 0.91).cos() * 25.0, (f * 0.47).sin() * 18.0, (f * 0.29).cos() * 8.0)
    }

    fn filled(cell_size: f64, region: Aabb, points: &[Vec3]) -> NnIndex {
        let mut index = NnIndex::new();
        index.reset(cell_size, region);
        for &point in points {
            index.insert(point);
        }
        index
    }

    /// Asserts both queries agree with the linear references at `queries`.
    fn assert_agrees(index: &NnIndex, points: &[Vec3], queries: impl Iterator<Item = Vec3>) {
        let mut out = Vec::new();
        for query in queries {
            assert_eq!(index.nearest(query), linear_nearest(points, query), "nearest {query:?}");
            for radius in [0.0, 1.0, 5.0, 12.0] {
                index.within_radius(query, radius, &mut out);
                assert_hits(&out, points, query, radius);
            }
        }
    }

    #[test]
    fn nearest_matches_linear_scan_with_ties() {
        let points = test_points();
        let index = filled(2.5, covering_region(), &points);
        for i in 0..200_i64 {
            assert_eq!(index.nearest(query(i)), linear_nearest(&points, query(i)), "query {i}");
        }
        // Query exactly on a duplicated position: the tie must go to the
        // lower index.
        let duplicated = points[0];
        assert_eq!(index.nearest(duplicated), linear_nearest(&points, duplicated));
    }

    #[test]
    fn within_radius_matches_linear_filter_content_and_distances() {
        let points = test_points();
        let index = filled(2.5, covering_region(), &points);
        let mut out = Vec::new();
        for i in 0..60_i64 {
            let f = i as f64;
            let query =
                Vec3::new((f * 0.37).sin() * 22.0, (f * 0.83).cos() * 14.0, (f * 0.53).sin() * 7.0);
            for radius in [0.0, 1.0, 5.0, 12.0] {
                index.within_radius(query, radius, &mut out);
                assert_hits(&out, &points, query, radius);
            }
        }
    }

    #[test]
    fn incremental_inserts_keep_agreeing() {
        let points = test_points();
        let mut index = NnIndex::new();
        index.reset(1.5, covering_region());
        let mut inserted = Vec::new();
        let mut out = Vec::new();
        for &point in &points {
            index.insert(point);
            inserted.push(point);
            let query = point + Vec3::new(0.4, -0.7, 0.2);
            assert_eq!(index.nearest(query), linear_nearest(&inserted, query));
            index.within_radius(query, 4.0, &mut out);
            assert_hits(&out, &inserted, query, 4.0);
        }
    }

    /// Past the linear cutoff `nearest` walks cell shells; with duplicates
    /// and queries on duplicated points the walk must keep the
    /// lowest-index tie-break.
    #[test]
    fn shell_walk_past_the_cutoff_matches_linear_scan() {
        let points = clumpy_points(600);
        assert!(points.len() > LINEAR_NEAREST_CUTOFF);
        for cell_size in [0.7, 2.5, 6.0] {
            let index = filled(cell_size, covering_region(), &points);
            assert_agrees(&index, &points, (0..150).map(query));
            assert_agrees(&index, &points, points.iter().step_by(37).copied());
        }
    }

    /// Nodes outside the region live on the overflow chain: with regions
    /// that cover part of the points, none of them, or all but the first
    /// node, and with queries far outside, results equal the linear scans.
    #[test]
    fn overflow_chain_keeps_results_region_independent() {
        let points = clumpy_points(600);
        let far_queries = [Vec3::new(90.0, -70.0, 40.0), Vec3::new(-1e6, 0.0, 3.0)];
        let regions = [
            // The half-space x < 0 only.
            Aabb::new(Vec3::new(-20.0, -15.0, -3.0), Vec3::new(0.0, 15.0, 9.0)),
            // Away from every point: all on the overflow chain.
            Aabb::new(Vec3::splat(100.0), Vec3::splat(110.0)),
            // Covers the points but not the first one.
            Aabb::new(points[0] + Vec3::splat(0.5), Vec3::new(20.0, 15.0, 9.0)),
            // Too many cells to table, and not finite.
            Aabb::new(Vec3::splat(-1e9), Vec3::splat(1e9)),
            Aabb { min: Vec3::splat(f64::NEG_INFINITY), max: Vec3::splat(f64::NAN) },
        ];
        for region in regions {
            for count in [points.len() / 10, points.len()] {
                let index = filled(2.5, region, &points[..count]);
                let queries = (0..80).map(query).chain(far_queries);
                assert_agrees(&index, &points[..count], queries);
            }
        }
    }

    #[test]
    fn reset_reuses_storage_and_changes_cell_size() {
        let mut index = NnIndex::new();
        index.reset(2.0, covering_region());
        index.insert(Vec3::ZERO);
        index.insert(Vec3::new(9.0, 0.0, 0.0));
        assert_eq!(index.len(), 2);
        index.reset(0.5, covering_region());
        assert!(index.is_empty());
        assert_eq!(index.cell_size(), 0.5);
        assert_eq!(index.insert(Vec3::new(1.0, 1.0, 1.0)), 0);
        assert_eq!(index.nearest(Vec3::ZERO), 0);
    }

    /// One instance reset through regions of different sizes and cell
    /// sizes: no stale bucket of an earlier tree may leak into a later one.
    #[test]
    fn reset_across_regions_of_different_sizes() {
        let points = clumpy_points(400);
        let mut index = NnIndex::new();
        let small = Aabb::new(Vec3::splat(-4.0), Vec3::splat(4.0));
        for (cell_size, region, count) in [
            (2.5, covering_region(), 400),
            (1.0, small, 300),
            (2.5, covering_region().inflated(30.0), 120),
            (0.5, covering_region(), 400),
            (2.5, small, 50),
        ] {
            let count = count.min(points.len());
            // Shift each round's points so a stale head would point at a
            // node that is not where the new tree puts it.
            let shifted: Vec<Vec3> =
                points[..count].iter().map(|&p| p + Vec3::splat(cell_size * 0.3)).collect();
            index.reset(cell_size, region);
            for (expected, &point) in shifted.iter().enumerate() {
                assert_eq!(index.insert(point), expected);
            }
            assert_agrees(&index, &shifted, (0..60).map(query));
        }
    }

    #[test]
    #[should_panic(expected = "empty index")]
    fn nearest_on_empty_index_panics() {
        let index = NnIndex::new();
        let _ = index.nearest(Vec3::ZERO);
    }

    #[test]
    fn within_radius_on_empty_index_is_empty() {
        let index = NnIndex::new();
        let mut out = vec![(7, 1.0)];
        index.within_radius(Vec3::ZERO, 10.0, &mut out);
        assert!(out.is_empty());
    }
}
