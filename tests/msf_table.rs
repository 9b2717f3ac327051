//! Algorithm 1's kernel with a neighbour table equals the kernel without.
//!
//! [`super_root_mst_with`] may take nearest-foreign answers from a
//! [`NeighbourTable`]: the first foreign member in a point's
//! `(distance, id)`-sorted list is exact, and a list without one bounds the
//! answer from below by its last distance. Either way the tree must be the
//! tree-only kernel's, edge for edge in Prim order. The families below are
//! the ones that break nearest-neighbour shortcuts — collinear runs,
//! duplicate points, tight clusters with far outliers, tied lattices,
//! clustered deployments, scheduling-row super-root costs and the
//! committed `scenarios/clustered_msf_gap.json` — each drawn as random
//! member subsets of a larger site set, so the lists hold non-members, with
//! lists from one entry up to every other site, unseeded and seeded with
//! the restriction of the all-site tree as the incremental planner runs it.

use perpetuum::exp::CustomExperiment;
use perpetuum::geom::{deploy, Field, Point2};
use perpetuum::graph::mst::Edge;
use perpetuum::graph::{super_root_mst, super_root_mst_with, MstWork, NeighbourTable, Neighbours};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Table widths: truncated lists of every length up to every other site.
fn widths(sites: usize) -> [usize; 6] {
    [1, 2, 4, 16, sites.saturating_sub(1), sites + 3]
}

/// The restriction of the tree `full` (over all sites, super-root last) to
/// the ascending `members`, in their index space.
fn restrict(full: &[Edge], sites: usize, members: &[usize]) -> Vec<Edge> {
    let mut index = vec![usize::MAX; sites + 1];
    for (i, &s) in members.iter().enumerate() {
        index[s] = i;
    }
    index[sites] = members.len();
    full.iter()
        .filter(|&&(a, b)| index[a] != usize::MAX && index[b] != usize::MAX)
        .map(|&(a, b)| (index[a], index[b]))
        .collect()
}

/// Runs the table-backed kernel over `members` of `sites` for every table
/// width and compares it with the tree-only kernel, unseeded and — when
/// `cost` is a per-site contraction every subset keeps — seeded with the
/// restriction of the all-site tree.
fn assert_table_exact(sites: &[Point2], members: &[usize], cost: &[f64], seeded: bool, what: &str) {
    let points: Vec<Point2> = members.iter().map(|&s| sites[s]).collect();
    let sub_cost: Vec<f64> = members.iter().map(|&s| cost[s]).collect();
    let expected = super_root_mst(&points, &sub_cost, &[]);
    let seed = if seeded {
        restrict(&super_root_mst(sites, cost, &[]), sites.len(), members)
    } else {
        Vec::new()
    };
    for k in widths(sites.len()) {
        let table = NeighbourTable::new(sites, k);
        let near = Neighbours { table: &table, sites, ids: members };
        let what = format!("{what}, {} of {} sites, k = {k}", members.len(), sites.len());
        let mut work = MstWork::default();
        let got = super_root_mst_with(&points, &sub_cost, &[], Some(near), &mut work);
        assert_eq!(got, expected, "{what}: edges in Prim order");
        if k + 1 >= sites.len() {
            // Complete lists answer every point: no query, no kd-tree.
            assert_eq!((work.tree_queries, work.trees_built), (0, 0), "{what}: {work:?}");
        }
        if seeded {
            let got = super_root_mst_with(&points, &sub_cost, &seed, Some(near), &mut work);
            assert_eq!(got, expected, "{what}, seeded: edges in Prim order");
        }
    }
}

/// The table-backed kernel on `m ∈ {0, 1, 2}` members and on random
/// subsets of `sites` under nearest-root costs.
fn assert_family(sites: &[Point2], roots: &[Point2], rng: &mut StdRng, what: &str) {
    let cost: Vec<f64> = sites
        .iter()
        .map(|p| roots.iter().map(|r| r.dist(*p)).fold(f64::INFINITY, f64::min))
        .collect();
    let n = sites.len();
    let mut subsets: Vec<Vec<usize>> =
        vec![Vec::new(), vec![n / 2], vec![0, n - 1], (0..n).collect()];
    for keep in [0.7, 0.4, 0.1] {
        subsets.push((0..n).filter(|_| rng.gen_bool(keep)).collect());
    }
    for members in subsets.iter().filter(|s| s.windows(2).all(|w| w[0] < w[1])) {
        assert_table_exact(sites, members, &cost, true, what);
    }
}

fn random_point(rng: &mut StdRng, side: f64) -> Point2 {
    Point2::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side))
}

/// Sites and root points of one input of a family.
type Input = (Vec<Point2>, Vec<Point2>);

/// A collinear run: half evenly spaced (tied gaps), half at random offsets.
fn collinear(seed: u64) -> Input {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = rng.gen_range(3..250);
    let pts: Vec<Point2> = (0..m)
        .map(|i| {
            let s = if i % 2 == 0 { i as f64 * 7.0 } else { rng.gen_range(0.0..7.0 * m as f64) };
            Point2::new(s, 3.0 * s + 1.0)
        })
        .collect();
    let roots = vec![Point2::new(0.0, 1.0), Point2::new(3.5 * m as f64, 10.5 * m as f64 + 1.0)];
    (pts, roots)
}

/// Points repeated up to four times; one root sits on a site.
fn duplicates(seed: u64) -> Input {
    let mut rng = StdRng::seed_from_u64(seed + 100);
    let distinct: Vec<Point2> =
        (0..rng.gen_range(2..80)).map(|_| random_point(&mut rng, 500.0)).collect();
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

#[test]
fn collinear_duplicate_and_outlier_families() {
    let mut rng = StdRng::seed_from_u64(32);
    for seed in 0..5u64 {
        let (pts, roots) = collinear(seed);
        assert_family(&pts, &roots, &mut rng, &format!("collinear seed {seed}"));
        let (pts, roots) = duplicates(seed);
        assert_family(&pts, &roots, &mut rng, &format!("duplicates seed {seed}"));
        let (pts, roots) = clusters_with_outliers(seed);
        assert_family(&pts, &roots, &mut rng, &format!("clusters seed {seed}"));
    }
}

#[test]
fn lattice_and_clustered_deployments() {
    let mut rng = StdRng::seed_from_u64(33);
    for (nx, ny) in [(1, 2), (1, 9), (8, 8), (15, 12), (7, 31)] {
        let (pts, roots) = lattice(nx, ny);
        assert_family(&pts, &roots, &mut rng, &format!("grid {nx}x{ny}"));
    }
    for seed in 0..3u64 {
        let (pts, roots) = clustered(seed);
        assert_family(&pts, &roots, &mut rng, &format!("clustered seed {seed}"));
    }
}

#[test]
fn scheduling_row_costs() {
    // Section VI.B's repair contracts each terminal with its nearest
    // distance to a scheduling's node set, or here unstructured values:
    // costs that differ per call, so no seed.
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed + 300);
        let n = rng.gen_range(3..220);
        let sites: Vec<Point2> = (0..n).map(|_| random_point(&mut rng, 1000.0)).collect();
        let anchors: Vec<Point2> =
            (0..rng.gen_range(1..8)).map(|_| random_point(&mut rng, 1000.0)).collect();
        let nearest: Vec<f64> = sites
            .iter()
            .map(|p| anchors.iter().map(|a| p.dist(*a)).fold(f64::INFINITY, f64::min))
            .collect();
        let random: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..2000.0)).collect();
        for keep in [1.0, 0.5, 0.15] {
            let members: Vec<usize> = (0..n).filter(|_| rng.gen_bool(keep)).collect();
            let what = format!("scheduling rows seed {seed}");
            assert_table_exact(&sites, &members, &nearest, false, &format!("{what} (nearest)"));
            assert_table_exact(&sites, &members, &random, false, &format!("{what} (random)"));
        }
    }
}

#[test]
fn clustered_msf_gap_scenario() {
    // The deployment on which a 16-nearest-neighbour candidate graph
    // missed edges of the minimum forest (tests/msf_regression.rs).
    let text = include_str!("../scenarios/clustered_msf_gap.json");
    let exp = CustomExperiment::from_json(text).expect("committed scenario parses");
    let network = exp.scenario.build_topology(42, 0).network;
    let depots: Vec<Point2> = (0..network.q()).map(|l| network.depot_pos(l)).collect();
    let mut rng = StdRng::seed_from_u64(34);
    assert_family(network.sensor_positions(), &depots, &mut rng, "clustered_msf_gap");
}
