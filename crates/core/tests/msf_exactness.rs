//! Adversarial exactness suite for Algorithm 1's planner kernel.
//!
//! [`rooted_msf_points`] (kd-tree Borůvka over the terminals plus the
//! contracted super-root) must return exactly the forest of the dense
//! oracle [`rooted_msf_general`] — same weight, same root assignment, same
//! edges — on inputs built to break nearest-neighbour shortcuts: collinear
//! runs, duplicate points (zero-length edges), tight clusters with far
//! outliers, lattice deployments where many weights tie, and arbitrary
//! scheduling-super-root rows. Both sides break weight ties by the same
//! strict edge order, so even tied inputs have one right answer.
//!
//! The same families, plus a clustered deployment, check the kernel's
//! seed: on a random subset of a superset, the tree started from the
//! restriction of the superset's tree must be the unseeded tree on the
//! subset, edge for edge in Prim order.

use perpetuum_core::qmsf::{rooted_msf_general, rooted_msf_points, ForestEdge, RootedForest};
use perpetuum_geom::{deploy, Field, Point2};
use perpetuum_graph::mst::Edge;
use perpetuum_graph::{super_root_mst, DistMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-root edge lists, each edge normalized and the list sorted.
fn edge_sets(f: &RootedForest) -> Vec<Vec<(usize, usize, usize)>> {
    f.trees
        .iter()
        .map(|tree| {
            let mut edges: Vec<(usize, usize, usize)> = tree
                .iter()
                .map(|e| match *e {
                    ForestEdge::TermTerm(a, b) => (0, a.min(b), a.max(b)),
                    ForestEdge::RootTerm(r, t) => (1, r, t),
                })
                .collect();
            edges.sort_unstable();
            edges
        })
        .collect()
}

/// Rows of distances from each root point to every terminal.
fn point_rows(terminals: &[Point2], roots: &[Point2]) -> Vec<Vec<f64>> {
    roots.iter().map(|r| terminals.iter().map(|t| r.dist(*t)).collect()).collect()
}

/// The kernel equals the oracle, and a second run repeats the first.
fn assert_exact(pts: &[Point2], root_dist: &[Vec<f64>], what: &str) {
    let oracle = rooted_msf_general(&DistMatrix::from_points(pts), root_dist);
    let kernel = rooted_msf_points(pts, root_dist);
    assert!(
        (oracle.weight - kernel.weight).abs() <= 1e-9 * oracle.weight.max(1.0),
        "{what}: oracle {} vs kernel {}",
        oracle.weight,
        kernel.weight
    );
    assert_eq!(oracle.assignment, kernel.assignment, "{what}: assignment");
    assert_eq!(edge_sets(&oracle), edge_sets(&kernel), "{what}: forest edges");
    let again = rooted_msf_points(pts, root_dist);
    assert_eq!(kernel.trees, again.trees, "{what}: rerun edge lists");
    assert_eq!(kernel.weight.to_bits(), again.weight.to_bits(), "{what}: rerun weight");
}

fn random_point(rng: &mut StdRng, side: f64) -> Point2 {
    Point2::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side))
}

/// Terminals and root points of one input of a family.
type Input = (Vec<Point2>, Vec<Point2>);

/// A collinear run: half evenly spaced (tied gaps), half at random offsets.
fn collinear(seed: u64) -> Input {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = rng.gen_range(2..250);
    let pts: Vec<Point2> = (0..m)
        .map(|i| {
            let s = if i % 2 == 0 { i as f64 * 7.0 } else { rng.gen_range(0.0..7.0 * m as f64) };
            Point2::new(s, 3.0 * s + 1.0)
        })
        .collect();
    let roots = vec![Point2::new(0.0, 1.0), Point2::new(3.5 * m as f64, 10.5 * m as f64 + 1.0)];
    (pts, roots)
}

/// Points repeated up to four times; one root sits on a terminal, so one
/// super-root edge costs zero.
fn duplicates(seed: u64) -> Input {
    let mut rng = StdRng::seed_from_u64(seed + 100);
    let distinct: Vec<Point2> =
        (0..rng.gen_range(1..80)).map(|_| random_point(&mut rng, 500.0)).collect();
    let mut pts = Vec::new();
    for p in &distinct {
        for _ in 0..rng.gen_range(1..5) {
            pts.push(*p);
        }
    }
    let roots = vec![distinct[0], random_point(&mut rng, 500.0), random_point(&mut rng, 500.0)];
    (pts, roots)
}

/// Sub-metre clusters plus outliers 50–100 km away.
fn clusters_with_outliers(seed: u64) -> Input {
    let mut rng = StdRng::seed_from_u64(seed + 200);
    let mut pts = Vec::new();
    for _ in 0..rng.gen_range(2..7) {
        let c = random_point(&mut rng, 1000.0);
        for _ in 0..rng.gen_range(5..60) {
            pts.push(Point2::new(c.x + rng.gen_range(-0.5..0.5), c.y + rng.gen_range(-0.5..0.5)));
        }
    }
    for _ in 0..rng.gen_range(1..5) {
        pts.push(Point2::new(rng.gen_range(-1e5..1e5), rng.gen_range(5e4..1e5)));
    }
    let roots = vec![Point2::new(500.0, 500.0), random_point(&mut rng, 1000.0)];
    (pts, roots)
}

/// An `nx × ny` lattice with roots on its symmetry axes: root edges tie
/// too.
fn lattice(nx: usize, ny: usize) -> Input {
    let field = Field::paper_default();
    let roots = vec![field.center(), Point2::new(0.0, 0.0), Point2::new(1000.0, 0.0)];
    (deploy::grid_deployment(field, nx, ny), roots)
}

/// Section VII.A's clustered deployment (5 hot spots, 30 m spread).
fn clustered(seed: u64) -> Input {
    let field = Field::paper_default();
    let mut rng = StdRng::seed_from_u64(seed + 500);
    let n = rng.gen_range(50..400);
    let pts = deploy::clustered_deployment(field, 5, n, 30.0, &mut rng);
    let roots =
        vec![field.center(), random_point(&mut rng, 1000.0), random_point(&mut rng, 1000.0)];
    (pts, roots)
}

const LATTICES: [(usize, usize); 6] = [(1, 1), (1, 9), (8, 8), (15, 12), (20, 20), (7, 31)];

#[test]
fn collinear_points() {
    for seed in 0..7u64 {
        let (pts, roots) = collinear(seed);
        let m = pts.len();
        assert_exact(&pts, &point_rows(&pts, &roots), &format!("collinear seed {seed} m={m}"));
    }
}

#[test]
fn duplicate_points() {
    for seed in 0..7u64 {
        let (pts, roots) = duplicates(seed);
        let m = pts.len();
        assert_exact(&pts, &point_rows(&pts, &roots), &format!("duplicates seed {seed} m={m}"));
    }
}

#[test]
fn tight_clusters_with_far_outliers() {
    for seed in 0..7u64 {
        let (pts, roots) = clusters_with_outliers(seed);
        let m = pts.len();
        assert_exact(&pts, &point_rows(&pts, &roots), &format!("clusters seed {seed} m={m}"));
    }
}

#[test]
fn lattice_deployment_with_tied_weights() {
    for (nx, ny) in LATTICES {
        let (pts, roots) = lattice(nx, ny);
        assert_exact(&pts, &point_rows(&pts, &roots), &format!("grid {nx}x{ny}"));
    }
}

#[test]
fn clustered_deployment() {
    for seed in 0..4u64 {
        let (pts, roots) = clustered(seed);
        let m = pts.len();
        assert_exact(&pts, &point_rows(&pts, &roots), &format!("clustered seed {seed} m={m}"));
    }
}

/// Each terminal's nearest-root cost (first minimum in root order) — the
/// contraction under which a superset's tree restricts to its subsets.
fn nearest_root_costs(pts: &[Point2], roots: &[Point2]) -> Vec<f64> {
    pts.iter().map(|p| roots.iter().map(|r| r.dist(*p)).fold(f64::INFINITY, f64::min)).collect()
}

/// Total weight of a super-root tree over `pts` (super-root last), summed
/// in edge order.
fn tree_weight(pts: &[Point2], cost: &[f64], tree: &[Edge]) -> f64 {
    let m = pts.len();
    tree.iter()
        .map(|&(a, b)| if a.max(b) == m { cost[a.min(b)] } else { pts[a].dist(pts[b]) })
        .sum()
}

/// On random subsets of `pts`, the kernel seeded with the restriction of
/// the superset's tree returns the unseeded tree on the subset: the same
/// edges in the same Prim order, with equal weight bits.
fn assert_seed_exact(pts: &[Point2], roots: &[Point2], rng: &mut StdRng, what: &str) {
    let m = pts.len();
    let cost = nearest_root_costs(pts, roots);
    let full = super_root_mst(pts, &cost, &[]);
    for keep in [0.95, 0.7, 0.4, 0.1] {
        let subset: Vec<usize> = (0..m).filter(|_| rng.gen_bool(keep)).collect();
        let mut index = vec![usize::MAX; m + 1];
        for (i, &t) in subset.iter().enumerate() {
            index[t] = i;
        }
        index[m] = subset.len();
        let seed: Vec<Edge> = full
            .iter()
            .filter(|&&(a, b)| index[a] != usize::MAX && index[b] != usize::MAX)
            .map(|&(a, b)| (index[a], index[b]))
            .collect();
        let sub_pts: Vec<Point2> = subset.iter().map(|&t| pts[t]).collect();
        let sub_cost: Vec<f64> = subset.iter().map(|&t| cost[t]).collect();
        let seeded = super_root_mst(&sub_pts, &sub_cost, &seed);
        let fresh = super_root_mst(&sub_pts, &sub_cost, &[]);
        let what = format!("{what} keep {keep} ({} of {m}, {} seeded)", subset.len(), seed.len());
        assert_eq!(seeded, fresh, "{what}: edges in Prim order");
        assert_eq!(
            tree_weight(&sub_pts, &sub_cost, &seeded).to_bits(),
            tree_weight(&sub_pts, &sub_cost, &fresh).to_bits(),
            "{what}: weight bits"
        );
    }
}

#[test]
fn seeded_kernel_equals_unseeded_on_subsets() {
    let mut rng = StdRng::seed_from_u64(77);
    for seed in 0..7u64 {
        let (pts, roots) = collinear(seed);
        assert_seed_exact(&pts, &roots, &mut rng, &format!("collinear seed {seed}"));
        let (pts, roots) = duplicates(seed);
        assert_seed_exact(&pts, &roots, &mut rng, &format!("duplicates seed {seed}"));
        let (pts, roots) = clusters_with_outliers(seed);
        assert_seed_exact(&pts, &roots, &mut rng, &format!("clusters seed {seed}"));
    }
    for (nx, ny) in LATTICES {
        let (pts, roots) = lattice(nx, ny);
        assert_seed_exact(&pts, &roots, &mut rng, &format!("grid {nx}x{ny}"));
    }
    for seed in 0..4u64 {
        let (pts, roots) = clustered(seed);
        assert_seed_exact(&pts, &roots, &mut rng, &format!("clustered seed {seed}"));
    }
}

#[test]
fn arbitrary_scheduling_super_root_rows() {
    // Section VI.B's repair feeds rows that are not distances to any one
    // point: nearest distance to a scheduling's node set, and here also
    // unstructured non-metric values and exact duplicate rows.
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(seed + 300);
        let m = rng.gen_range(1..220);
        let pts: Vec<Point2> = (0..m).map(|_| random_point(&mut rng, 1000.0)).collect();
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for _ in 0..rng.gen_range(1..5) {
            let anchors: Vec<Point2> =
                (0..rng.gen_range(1..8)).map(|_| random_point(&mut rng, 1000.0)).collect();
            rows.push(
                pts.iter()
                    .map(|p| anchors.iter().map(|a| p.dist(*a)).fold(f64::INFINITY, f64::min))
                    .collect(),
            );
        }
        rows.push((0..m).map(|_| rng.gen_range(0.0..2000.0)).collect());
        rows.push(rows[0].clone());
        assert_exact(&pts, &rows, &format!("scheduling rows seed {seed} m={m}"));
    }
}
