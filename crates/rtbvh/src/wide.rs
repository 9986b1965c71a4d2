//! Flat SoA 4-wide BVH nodes, the BVH2 → BVH4 collapse, and the 4-lane
//! AABB intersection kernel.
//!
//! The wide BVH is stored as a flat arena of fixed-size [`Bvh4Node`]
//! records (`#[repr(C)]`, structure-of-arrays within the node): the four
//! child slabs live in `[min_x[4], min_y[4], …]` component arrays so a
//! node visit tests all four lanes against one ray with a single pass
//! over contiguous memory ([`aabb4_intersect`]), children are referenced
//! by raw index with [`INVALID_LANE`] marking empty lanes, and leaves
//! pack their `first`/`count` primitive range inline. There is no
//! per-node heap data, so walking the tree never chases `Vec` pointers.

use rtmath::{Aabb, Ray, Vec3};

use crate::build2::{Bvh2, Node2};
use crate::NodeId;

/// Maximum branching factor of the wide BVH (the paper uses a 4-wide
/// Embree BVH).
pub const WIDE_WIDTH: usize = 4;

/// Sentinel child index marking an empty lane of a [`Bvh4Node`]. Empty
/// lanes also carry inverted (empty) slabs so the 4-lane kernel can test
/// them without branching, but [`aabb4_intersect`] masks them regardless.
pub const INVALID_LANE: u32 = u32::MAX;

/// One flat 4-wide BVH node in structure-of-arrays layout.
///
/// An **interior** node (`count == 0`) stores up to [`WIDE_WIDTH`] child
/// boxes component-wise (`min_x[lane]` … `max_z[lane]`) and the child
/// node indices in `child`, with [`INVALID_LANE`] and empty slabs
/// (`min = +inf`, `max = -inf`) filling unused lanes. A **leaf**
/// (`count > 0`) stores its own bounds in lane 0 and the half-open
/// primitive range `first..first + count` into the BVH's primitive
/// permutation; all its child lanes are invalid.
///
/// The node's own bounds are not stored separately: [`Bvh4Node::bounds`]
/// is the union of the lane boxes, which is bit-exact because `f32`
/// min/max are associative and the lane boxes partition the same
/// primitive set the parent covers.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bvh4Node {
    /// Per-lane slab minima, x component.
    pub min_x: [f32; WIDE_WIDTH],
    /// Per-lane slab minima, y component.
    pub min_y: [f32; WIDE_WIDTH],
    /// Per-lane slab minima, z component.
    pub min_z: [f32; WIDE_WIDTH],
    /// Per-lane slab maxima, x component.
    pub max_x: [f32; WIDE_WIDTH],
    /// Per-lane slab maxima, y component.
    pub max_y: [f32; WIDE_WIDTH],
    /// Per-lane slab maxima, z component.
    pub max_z: [f32; WIDE_WIDTH],
    /// Child node indices; [`INVALID_LANE`] marks an empty lane.
    pub child: [u32; WIDE_WIDTH],
    /// First index into the primitive permutation (leaves only).
    pub first: u32,
    /// Primitive count; `count > 0` is the leaf discriminant.
    pub count: u32,
}

impl Bvh4Node {
    /// An all-empty interior node: every lane invalid with inverted slabs.
    const BLANK: Bvh4Node = Bvh4Node {
        min_x: [f32::INFINITY; WIDE_WIDTH],
        min_y: [f32::INFINITY; WIDE_WIDTH],
        min_z: [f32::INFINITY; WIDE_WIDTH],
        max_x: [f32::NEG_INFINITY; WIDE_WIDTH],
        max_y: [f32::NEG_INFINITY; WIDE_WIDTH],
        max_z: [f32::NEG_INFINITY; WIDE_WIDTH],
        child: [INVALID_LANE; WIDE_WIDTH],
        first: 0,
        count: 0,
    };

    /// Builds an interior node from `(bounds, child)` lane pairs.
    ///
    /// # Panics
    ///
    /// Panics if more than [`WIDE_WIDTH`] lanes are given.
    pub fn inner(lanes: &[(Aabb, NodeId)]) -> Bvh4Node {
        assert!(lanes.len() <= WIDE_WIDTH, "at most {WIDE_WIDTH} lanes");
        let mut n = Bvh4Node::BLANK;
        for (lane, (b, c)) in lanes.iter().enumerate() {
            n.set_lane_bounds(lane, *b);
            n.child[lane] = c.0;
        }
        n
    }

    /// Builds a leaf node over `first..first + count` with `bounds`
    /// stored in lane 0.
    pub fn leaf(bounds: Aabb, first: u32, count: u32) -> Bvh4Node {
        let mut n = Bvh4Node::BLANK;
        n.set_lane_bounds(0, bounds);
        n.first = first;
        n.count = count;
        n
    }

    /// `true` for leaf nodes.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.count > 0
    }

    /// The node's bounds: the union of all lane boxes (empty lanes hold
    /// the union identity). For leaves this is exactly the lane-0 box.
    #[inline]
    pub fn bounds(&self) -> Aabb {
        let mut b = self.lane_bounds(0);
        for lane in 1..WIDE_WIDTH {
            b = b.union(&self.lane_bounds(lane));
        }
        b
    }

    /// Bounds of one lane (empty lanes return the empty box).
    #[inline]
    pub fn lane_bounds(&self, lane: usize) -> Aabb {
        Aabb {
            min: Vec3::new(self.min_x[lane], self.min_y[lane], self.min_z[lane]),
            max: Vec3::new(self.max_x[lane], self.max_y[lane], self.max_z[lane]),
        }
    }

    /// Overwrites the slab of one lane (refit).
    #[inline]
    pub fn set_lane_bounds(&mut self, lane: usize, b: Aabb) {
        self.min_x[lane] = b.min.x;
        self.min_y[lane] = b.min.y;
        self.min_z[lane] = b.min.z;
        self.max_x[lane] = b.max.x;
        self.max_y[lane] = b.max.y;
        self.max_z[lane] = b.max.z;
    }

    /// The child in one lane, or `None` for empty lanes (and leaves).
    #[inline]
    pub fn lane_child(&self, lane: usize) -> Option<NodeId> {
        (self.child[lane] != INVALID_LANE).then(|| NodeId(self.child[lane]))
    }

    /// Number of occupied child lanes (0 for leaves).
    #[inline]
    pub fn child_count(&self) -> usize {
        self.child.iter().filter(|&&c| c != INVALID_LANE).count()
    }

    /// Iterates the occupied child lanes in lane order (empty for leaves).
    #[inline]
    pub fn children(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.child.iter().filter(|&&c| c != INVALID_LANE).map(|&c| NodeId(c))
    }

    /// Byte size of this node's memory record under `layout`. The flat
    /// node is the single source of truth for the modelled record sizes:
    /// interiors are fixed-size, leaves grow with their triangle count
    /// and round up to the leaf alignment.
    pub fn byte_size(&self, layout: &crate::NodeLayout) -> u32 {
        if self.is_leaf() {
            let raw = layout.leaf_header_bytes + layout.leaf_tri_bytes * self.count;
            raw.div_ceil(layout.leaf_align_bytes) * layout.leaf_align_bytes
        } else {
            layout.inner_bytes
        }
    }
}

/// Intersects one ray against all four lanes of an interior node.
///
/// Per-lane this is bit-for-bit the scalar [`Aabb::intersect`] slab test
/// (same zero-direction handling, same `max`/`min` fold, entry clamped to
/// `t_min`), evaluated across the node's SoA component arrays in one
/// pass; empty lanes report `None`. Both the simulator's node-visit path
/// (`gpusim`'s `RayTraversal::visit`) and the conformance oracle
/// ([`Bvh::traverse`](crate::Bvh::traverse)) call this kernel, so the
/// bit-equal (prim, t) contract between them holds by construction.
#[inline]
pub fn aabb4_intersect(
    node: &Bvh4Node,
    ray: &Ray,
    t_min: f32,
    t_max: f32,
) -> [Option<f32>; WIDE_WIDTH] {
    let mut enter = [t_min; WIDE_WIDTH];
    let mut exit = [t_max; WIDE_WIDTH];
    let mut alive = [false; WIDE_WIDTH];
    for (a, &child) in alive.iter_mut().zip(&node.child) {
        *a = child != INVALID_LANE;
    }
    let mins = [&node.min_x, &node.min_y, &node.min_z];
    let maxs = [&node.max_x, &node.max_y, &node.max_z];
    for axis in 0..3 {
        let o = ray.origin[axis];
        if ray.dir[axis] == 0.0 {
            // Parallel ray: inside the closed slab or a miss (see the
            // scalar kernel for why `0 * inf` must not be reached).
            for lane in 0..WIDE_WIDTH {
                alive[lane] &= !(o < mins[axis][lane] || o > maxs[axis][lane]);
            }
        } else {
            let inv = ray.inv_dir[axis];
            for lane in 0..WIDE_WIDTH {
                let a = (mins[axis][lane] - o) * inv;
                let b = (maxs[axis][lane] - o) * inv;
                let (t0, t1) = if a <= b { (a, b) } else { (b, a) };
                enter[lane] = enter[lane].max(t0);
                exit[lane] = exit[lane].min(t1);
            }
        }
    }
    // The scalar kernel rejects per axis (`enter > exit` => miss); here
    // the check is deferred so the lane loops above are pure unconditional
    // sub/mul/min/max. This is bit-identical: `enter`/`exit` never go NaN
    // (`max`/`min` ignore a NaN operand and both start from real bounds),
    // `enter` only grows and `exit` only shrinks, so the per-axis predicate
    // fired somewhere iff it holds at the end.
    std::array::from_fn(|lane| (alive[lane] && enter[lane] <= exit[lane]).then(|| enter[lane]))
}

/// Collapses a binary BVH into a flat 4-wide BVH.
///
/// Standard greedy collapse: starting from a node's two children, the child
/// subtree with the largest surface area is repeatedly replaced by its own
/// two children until the node has [`WIDE_WIDTH`] children (or only leaves
/// remain). Returns the node arena and the root id; leaves keep referencing
/// the BVH2's primitive permutation. Children are emitted before their
/// parent, so the root is the last arena entry.
pub fn collapse(bvh2: &Bvh2) -> (Vec<Bvh4Node>, NodeId) {
    let mut nodes = Vec::with_capacity(bvh2.nodes.len());
    let root = collapse_node(bvh2, bvh2.root, &mut nodes);
    (nodes, root)
}

fn collapse_node(bvh2: &Bvh2, idx: u32, out: &mut Vec<Bvh4Node>) -> NodeId {
    match &bvh2.nodes[idx as usize] {
        Node2::Leaf { bounds, first, count } => {
            out.push(Bvh4Node::leaf(*bounds, *first, *count));
            NodeId((out.len() - 1) as u32)
        }
        Node2::Inner { left, right, .. } => {
            // Gather up to WIDE_WIDTH grandchildren, expanding the largest
            // inner child each step.
            let mut slots: Vec<u32> = vec![*left, *right];
            while slots.len() < WIDE_WIDTH {
                let expandable = slots
                    .iter()
                    .enumerate()
                    .filter(|(_, &s)| matches!(bvh2.nodes[s as usize], Node2::Inner { .. }))
                    .max_by(|(_, &a), (_, &b)| {
                        bvh2.nodes[a as usize]
                            .bounds()
                            .surface_area()
                            .total_cmp(&bvh2.nodes[b as usize].bounds().surface_area())
                    })
                    .map(|(i, _)| i);
                let Some(i) = expandable else { break };
                if let Node2::Inner { left, right, .. } = bvh2.nodes[slots[i] as usize] {
                    slots[i] = left;
                    slots.push(right);
                }
            }

            let mut node = Bvh4Node::BLANK;
            for (lane, s) in slots.iter().enumerate() {
                node.set_lane_bounds(lane, bvh2.nodes[*s as usize].bounds());
                node.child[lane] = collapse_node(bvh2, *s, out).0;
            }
            out.push(node);
            NodeId((out.len() - 1) as u32)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build2;
    use crate::BvhConfig;
    use rtmath::{Vec3, XorShiftRng};
    use rtscene::{MaterialId, Triangle};

    fn grid_triangles(n: usize) -> Vec<Triangle> {
        let mut tris = Vec::new();
        for i in 0..n {
            for j in 0..n {
                let o = Vec3::new(i as f32 * 2.0, 0.0, j as f32 * 2.0);
                tris.push(Triangle::new(
                    o,
                    o + Vec3::new(1.0, 0.0, 0.0),
                    o + Vec3::new(0.0, 0.0, 1.0),
                    MaterialId::new(0),
                ));
            }
        }
        tris
    }

    fn build_wide(n: usize) -> (Vec<Bvh4Node>, NodeId) {
        let tris = grid_triangles(n);
        let b2 = build2::build(&tris, &BvhConfig::default());
        collapse(&b2)
    }

    #[test]
    fn inner_nodes_have_2_to_4_children() {
        let (nodes, _) = build_wide(12);
        let mut saw_four = false;
        for n in &nodes {
            if !n.is_leaf() {
                assert!((2..=WIDE_WIDTH).contains(&n.child_count()));
                saw_four |= n.child_count() == WIDE_WIDTH;
            }
        }
        assert!(saw_four, "a 144-triangle tree should produce 4-wide nodes");
    }

    #[test]
    fn collapse_preserves_primitive_count() {
        let (nodes, _) = build_wide(11);
        let total: u32 = nodes.iter().filter(|n| n.is_leaf()).map(|n| n.count).sum();
        assert_eq!(total, 121);
    }

    #[test]
    fn lane_bounds_match_child_nodes() {
        let (nodes, _) = build_wide(8);
        for n in &nodes {
            for lane in 0..WIDE_WIDTH {
                if let Some(c) = n.lane_child(lane) {
                    assert_eq!(n.lane_bounds(lane), nodes[c.index()].bounds());
                }
            }
        }
    }

    #[test]
    fn parent_bounds_contain_children() {
        let (nodes, root) = build_wide(8);
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            let n = &nodes[id.index()];
            for c in n.children() {
                assert!(n.bounds().contains_box(&nodes[c.index()].bounds()));
                stack.push(c);
            }
        }
    }

    #[test]
    fn empty_lanes_are_inverted_and_invalid() {
        let (nodes, _) = build_wide(12);
        for n in &nodes {
            for lane in 0..WIDE_WIDTH {
                if n.lane_child(lane).is_none() {
                    assert!(n.is_leaf() && lane == 0 || n.lane_bounds(lane).is_empty());
                }
            }
        }
    }

    #[test]
    fn byte_sizes() {
        let wide = crate::NodeLayout::wide();
        let inner = Bvh4Node::inner(&[]);
        assert_eq!(inner.byte_size(&wide), 128);
        let leaf1 = Bvh4Node::leaf(Aabb::EMPTY, 0, 1);
        assert_eq!(leaf1.byte_size(&wide), 64); // 16 + 48 = 64
        let leaf4 = Bvh4Node::leaf(Aabb::EMPTY, 0, 4);
        assert_eq!(leaf4.byte_size(&wide), 256); // 16 + 192 = 208 -> 256
                                                 // Compressed records are smaller across the board.
        let comp = crate::NodeLayout::compressed();
        assert_eq!(inner.byte_size(&comp), 80);
        assert!(leaf4.byte_size(&comp) < leaf4.byte_size(&wide));
    }

    #[test]
    fn single_leaf_tree_collapses_to_single_leaf() {
        let (nodes, root) = build_wide(1);
        assert_eq!(nodes.len(), 1);
        assert!(nodes[root.index()].is_leaf());
    }

    #[test]
    fn node_is_a_flat_pod_record() {
        // 6 component arrays + 4 child links + first/count, no padding.
        assert_eq!(std::mem::size_of::<Bvh4Node>(), 6 * 16 + 16 + 8);
    }

    #[test]
    fn kernel_matches_scalar_slab_test_per_lane() {
        // Random lane boxes vs random rays: every lane must agree with
        // Aabb::intersect bit-for-bit, including the t value.
        let mut rng = XorShiftRng::new(0xA4B4);
        for case in 0..500 {
            let mut lanes = Vec::new();
            for lane in 0..(case % WIDE_WIDTH) + 1 {
                let c = Vec3::new(
                    rng.range_f32(-10.0, 10.0),
                    rng.range_f32(-10.0, 10.0),
                    rng.range_f32(-10.0, 10.0),
                );
                let e = Vec3::new(
                    rng.range_f32(0.0, 4.0),
                    rng.range_f32(0.0, 4.0),
                    rng.range_f32(0.0, 4.0),
                );
                lanes.push((Aabb::new(c - e, c + e), NodeId(lane as u32)));
            }
            let node = Bvh4Node::inner(&lanes);
            let origin = Vec3::new(
                rng.range_f32(-15.0, 15.0),
                rng.range_f32(-15.0, 15.0),
                rng.range_f32(-15.0, 15.0),
            );
            // Mix in axis-aligned rays to exercise the d == 0 path.
            let dir = match case % 5 {
                0 => Vec3::new(1.0, 0.0, 0.0),
                1 => Vec3::new(0.0, -1.0, 0.0),
                _ => rng.unit_vector(),
            };
            let ray = Ray::new(origin, dir);
            let (t_min, t_max) = if case % 7 == 0 { (0.5, 9.0) } else { (1e-3, f32::MAX) };
            let got = aabb4_intersect(&node, &ray, t_min, t_max);
            for (lane, slot) in got.iter().enumerate() {
                let want = node
                    .lane_child(lane)
                    .and_then(|_| node.lane_bounds(lane).intersect(&ray, t_min, t_max));
                assert_eq!(
                    slot.map(f32::to_bits),
                    want.map(f32::to_bits),
                    "case {case} lane {lane}"
                );
            }
        }
    }

    #[test]
    fn kernel_masks_empty_lanes() {
        // A ray through the origin against a node whose single real lane
        // surrounds it: lanes 1-3 are empty and must report None even
        // though an all-lane slab test on inverted boxes can "hit".
        let node = Bvh4Node::inner(&[(Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0)), NodeId(7))]);
        let ray = Ray::new(Vec3::new(0.0, 0.0, -5.0), Vec3::new(0.0, 0.0, 1.0));
        let got = aabb4_intersect(&node, &ray, 0.0, f32::MAX);
        assert_eq!(got[0], Some(4.0));
        assert_eq!(&got[1..], &[None, None, None]);
    }
}
