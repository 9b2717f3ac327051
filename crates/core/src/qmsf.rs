//! **Algorithm 1** — the `q`-rooted Minimum Spanning Forest.
//!
//! Given a complete weighted graph over terminals (to-be-charged sensors)
//! and `q` roots (depots), find `q` disjoint trees spanning all terminals,
//! each containing a distinct root, of minimum total weight. The paper's
//! exact algorithm: contract all roots into a single super-root (taking the
//! cheapest root edge per terminal), compute an MST, then un-contract.
//!
//! Lemma 1 of the paper proves this exact. Every planner path runs one
//! kernel for the contracted MST: the kd-tree Borůvka
//! [`perpetuum_graph::super_root_mst_with`], exact at any size in
//! `O(m log² m)` without a dense matrix. [`rooted_msf_general`] keeps the
//! paper's dense `O(m²)` construction as the oracle the tests compare
//! against; the tests in this crate also check both against brute force.
//!
//! Two things can make a call cheaper without changing its forest. A
//! `SupersetTree` — the exact tree of a superset with nearest-root
//! costs — seeds a subset's call with its surviving edges and hands it
//! the superset's contraction, so the nearest root of a terminal is
//! computed once per superset. A `Kernel` carries the neighbour table an
//! [`crate::incremental::IncrementalPlanner`] keeps over the network's
//! sensors (geometry only, `4·k` bytes per sensor, built at its first
//! incremental replan and never invalidated) and sums the kernel's work
//! counters; one-shot callers pass an empty one.
//!
//! [`rooted_msf_general`] and [`rooted_msf_points`] accept arbitrary
//! terminal–root distances, which Section VI.B needs: its repair step
//! uses *super-roots representing whole schedulings*, whose distance to a
//! sensor is the nearest distance to any node already in the scheduling.

use perpetuum_geom::Point2;
use perpetuum_graph::mst::prim;
use perpetuum_graph::mst::Edge;
use perpetuum_graph::{
    super_root_mst_with, DistMatrix, DistSource, Metric, MstWork, NeighbourTable, Neighbours,
};

/// A forest of root-attached trees produced by [`rooted_msf_general`].
#[derive(Debug, Clone)]
pub struct RootedForest {
    /// `trees[r]` — edges of the tree attached to root `r`, each edge given
    /// in *terminal/root index space*: see [`ForestEdge`].
    pub trees: Vec<Vec<ForestEdge>>,
    /// `assignment[t]` — index of the root whose tree contains terminal `t`.
    pub assignment: Vec<usize>,
    /// Total forest weight.
    pub weight: f64,
}

/// An edge of a rooted forest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForestEdge {
    /// An edge between two terminals (indices into the terminal list).
    TermTerm(usize, usize),
    /// An edge from a root to a terminal: `(root index, terminal index)`.
    RootTerm(usize, usize),
}

impl RootedForest {
    /// Terminals assigned to root `r`, in ascending terminal index.
    ///
    /// Allocates a fresh `Vec` per call; when iterating over *all* roots
    /// (scheduler loops, per-root routing), use
    /// [`RootedForest::terminals_by_root`] instead — one pass, one
    /// allocation set, instead of `q` scans over the full assignment.
    #[cfg(test)]
    pub(crate) fn terminals_of(&self, r: usize) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter_map(|(t, &root)| (root == r).then_some(t))
            .collect()
    }

    /// Root `r`'s tree as host node-id edges, in tree order: terminal `t`
    /// is node `terminals[t]` and the root is node `root`.
    pub fn host_edges(&self, r: usize, terminals: &[usize], root: usize) -> Vec<(usize, usize)> {
        self.trees[r]
            .iter()
            .map(|e| match *e {
                ForestEdge::TermTerm(a, b) => (terminals[a], terminals[b]),
                ForestEdge::RootTerm(_, t) => (root, terminals[t]),
            })
            .collect()
    }

    /// All per-root terminal groups in one `O(m + q)` pass:
    /// `groups[r]` lists the terminals of root `r` in ascending order.
    pub fn terminals_by_root(&self) -> Vec<Vec<usize>> {
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.trees.len()];
        for (t, &r) in self.assignment.iter().enumerate() {
            groups[r].push(t);
        }
        groups
    }
}

/// Exact `q`-rooted MSF over explicit distances.
///
/// * `term_dist` — any [`Metric`] over the `m` terminals (a dense induced
///   matrix, a [`DistSource`], …),
/// * `root_dist[r][t]` — distance from root `r` to terminal `t`
///   (`root_dist.len()` is the number of roots, `q ≥ 1`).
///
/// Returns the optimal forest — the unique minimum under the strict edge
/// order `(w, min id, max id)`, so it equals [`rooted_msf_points`] on the
/// same input even where weights tie. Terminals with no peers still get
/// attached to their cheapest root. An empty terminal set yields `q` empty
/// trees. Internally contracts into an `(m+1)²` matrix: the exact oracle
/// for tests, not a planner path.
pub fn rooted_msf_general<M: Metric>(term_dist: &M, root_dist: &[Vec<f64>]) -> RootedForest {
    let m = term_dist.len();
    let q = root_dist.len();
    check_root_rows(m, root_dist);
    if m == 0 {
        return RootedForest { trees: vec![Vec::new(); q], assignment: Vec::new(), weight: 0.0 };
    }

    // Contract: node t < m is terminal t, node m is the super-root whose
    // edge to terminal t costs min_r root_dist[r][t] via root[t].
    let contraction = cheapest_roots(m, root_dist);
    let contracted = DistMatrix::from_fn(m + 1, |i, j| {
        // from_fn only asks for i < j, so j == m exactly when the super-root
        // is involved.
        if j == m {
            contraction.cost[i]
        } else {
            term_dist.get(i, j)
        }
    });
    let mst = prim(&contracted);
    uncontract(m, q, &mst, &contraction, |a, b| term_dist.get(a, b))
}

/// Panics unless there is a root and every root row covers the `m`
/// terminals.
fn check_root_rows(m: usize, root_dist: &[Vec<f64>]) {
    assert!(!root_dist.is_empty(), "at least one root required");
    assert!(root_dist.iter().all(|r| r.len() == m), "root distance rows must cover every terminal");
}

/// The contraction of Algorithm 1: every root merged into one super-root,
/// which terminal `t` reaches through root `root[t]` at cost `cost[t]`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Contraction {
    root: Vec<usize>,
    cost: Vec<f64>,
}

/// Each terminal's cheapest root: `cost[t] = min_r root_dist[r][t]`,
/// reached through the first minimum in root order. The one place the
/// contraction is computed; [`SupersetTree`] hands it on to subsets.
fn cheapest_roots(m: usize, root_dist: &[Vec<f64>]) -> Contraction {
    let mut root = vec![0usize; m];
    let mut cost = vec![f64::INFINITY; m];
    for (r, row) in root_dist.iter().enumerate() {
        for (t, &d) in row.iter().enumerate() {
            if d < cost[t] {
                cost[t] = d;
                root[t] = r;
            }
        }
    }
    Contraction { root, cost }
}

/// Un-contracts a super-root MST into a [`RootedForest`]. `mst` is an MST
/// edge list over `m + 1` nodes where node `m` is the super-root; each MST
/// edge incident to it attaches one sub-tree to a specific physical root
/// (via the contraction's `root`), and a DSU over the terminal-terminal
/// edges recovers those sub-trees. Shared by the planner kernel and the
/// dense oracle.
fn uncontract(
    m: usize,
    q: usize,
    mst: &[(usize, usize)],
    contraction: &Contraction,
    term_w: impl Fn(usize, usize) -> f64,
) -> RootedForest {
    let mut dsu = perpetuum_graph::DisjointSets::new(m);
    let mut term_edges: Vec<(usize, usize)> = Vec::new();
    let mut root_edges: Vec<(usize, usize)> = Vec::new(); // (root, terminal)
    let mut weight = 0.0;
    for &(u, v) in mst {
        let (a, b) = (u.min(v), u.max(v));
        if b == m {
            root_edges.push((contraction.root[a], a));
            weight += contraction.cost[a];
        } else {
            term_edges.push((a, b));
            dsu.union(a, b);
            weight += term_w(a, b);
        }
    }

    // Every component of the terminal sub-forest hangs off exactly one
    // super-root edge (tree property), which fixes its root assignment.
    // `comp_root[rep]` — the root of the component whose DSU
    // representative is `rep` (`usize::MAX` until its super-root edge).
    let mut comp_root = vec![usize::MAX; m];
    for &(r, t) in &root_edges {
        let prev = std::mem::replace(&mut comp_root[dsu.find(t)], r);
        debug_assert_eq!(prev, usize::MAX, "a tree component can only attach to one root");
    }

    let mut assignment = vec![usize::MAX; m];
    for (t, slot) in assignment.iter_mut().enumerate() {
        *slot = comp_root[dsu.find(t)];
        assert_ne!(*slot, usize::MAX, "every terminal component touches the super-root in an MST");
    }

    let mut trees: Vec<Vec<ForestEdge>> = vec![Vec::new(); q];
    for &(r, t) in &root_edges {
        trees[r].push(ForestEdge::RootTerm(r, t));
    }
    for &(a, b) in &term_edges {
        trees[assignment[a]].push(ForestEdge::TermTerm(a, b));
    }

    RootedForest { trees, assignment, weight }
}

/// **Algorithm 1** from point positions: the exact `q`-rooted MSF over
/// terminal positions `term_points` and arbitrary root distance rows
/// (`root_dist[r][t]`, one row per root, `q ≥ 1`), never an `(m+1)²`
/// matrix. Contracts the roots into one super-root exactly like
/// [`rooted_msf_general`], takes the contracted MST from the kd-tree
/// Borůvka kernel [`super_root_mst_with`] (edges in heap-Prim order from
/// the super-root), and un-contracts it.
///
/// **Exactness** follows from the kernel's: each Borůvka round adds, for
/// every component, its cheapest outgoing edge under a strict total order,
/// which the cut property places in the unique minimum spanning tree — so
/// the result is the minimum forest Lemma 1 asks for, on any input.
/// Section VI.B's repair step calls this with *scheduling* super-roots,
/// whose rows differ from set to set, so it never starts from another
/// set's forest.
pub fn rooted_msf_points(term_points: &[Point2], root_dist: &[Vec<f64>]) -> RootedForest {
    msf_over_rows(term_points, &[], root_dist, &mut Kernel::default())
}

/// [`rooted_msf_points`] over terminals at host ids `terminals` (read
/// only when `kernel` has a neighbour table).
pub(crate) fn msf_over_rows(
    term_points: &[Point2],
    terminals: &[usize],
    root_dist: &[Vec<f64>],
    kernel: &mut Kernel<'_>,
) -> RootedForest {
    check_root_rows(term_points.len(), root_dist);
    let contraction = cheapest_roots(term_points.len(), root_dist);
    super_root_forest(term_points, terminals, root_dist.len(), &contraction, &[], kernel).0
}

/// What a planner's Algorithm-1 calls share: the neighbour table they may
/// read and the kernel work they add up.
#[derive(Debug, Default)]
pub(crate) struct Kernel<'a> {
    /// A [`NeighbourTable`] over the host's sensors, which are its first
    /// host ids, with their positions.
    table: Option<(&'a NeighbourTable, &'a [Point2])>,
    /// The work of every call so far.
    pub(crate) work: MstWork,
}

impl<'a> Kernel<'a> {
    /// Calls reading `table`, built over the sensor positions `sensors`.
    pub(crate) fn with_table(table: Option<&'a NeighbourTable>, sensors: &'a [Point2]) -> Self {
        Self { table: table.map(|t| (t, sensors)), work: MstWork::default() }
    }

    /// The contracted tree of the points at host ids `terminals` (read
    /// only with a table) under `cost`, started from `seed`.
    fn tree(
        &mut self,
        points: &[Point2],
        terminals: &[usize],
        cost: &[f64],
        seed: &[Edge],
    ) -> Vec<Edge> {
        let near = self.table.map(|(table, sites)| Neighbours { table, sites, ids: terminals });
        super_root_mst_with(points, cost, seed, near, &mut self.work)
    }
}

/// The forest of `term_points` (at host ids `terminals`) under
/// `contraction`, its contracted tree started from `seed` (see
/// [`super_root_mst_with`]). Also returns that tree, as `(parent, child)`
/// pairs over terminal indices with the super-root at
/// `term_points.len()`.
fn super_root_forest(
    term_points: &[Point2],
    terminals: &[usize],
    q: usize,
    contraction: &Contraction,
    seed: &[Edge],
    kernel: &mut Kernel<'_>,
) -> (RootedForest, Vec<Edge>) {
    let mst = kernel.tree(term_points, terminals, &contraction.cost, seed);
    let forest = uncontract(term_points.len(), q, &mst, contraction, |a, b| {
        term_points[a].dist(term_points[b])
    });
    (forest, mst)
}

/// **Algorithm 1** on a host graph: the `q`-rooted MSF over `terminals`
/// and `roots` given as node ids of `src` (the `n + q` nodes of a
/// [`crate::network::Network`]). Edges in the result are expressed in
/// terminal/root *index* space; use `terminals[t]` / `roots[r]` to map
/// back.
pub fn q_rooted_msf_src(
    src: &DistSource<'_>,
    terminals: &[usize],
    roots: &[usize],
) -> RootedForest {
    q_rooted_msf_seeded(src, terminals, roots, None, &mut Kernel::default()).0
}

/// [`q_rooted_msf_src`], started from the restriction of `superset`'s
/// tree when given (every terminal must belong to it, and `roots` must
/// be the roots it was built with), also returning the result as a
/// [`SupersetTree`] for subsets of `terminals`. Equal to
/// [`q_rooted_msf_src`] on the same input: a subset takes its
/// nearest-root contraction from the superset, so the restriction lemma
/// applies.
pub(crate) fn q_rooted_msf_seeded(
    src: &DistSource<'_>,
    terminals: &[usize],
    roots: &[usize],
    superset: Option<&SupersetTree>,
    kernel: &mut Kernel<'_>,
) -> (RootedForest, SupersetTree) {
    let points = src.positions();
    let tpts: Vec<Point2> = terminals.iter().map(|&t| points[t]).collect();
    let (seed, contraction) = match superset {
        Some(tree) => tree.restrict(terminals),
        None => (Vec::new(), contract(points, terminals, roots)),
    };
    let (forest, mst) =
        super_root_forest(&tpts, terminals, roots.len(), &contraction, &seed, kernel);
    (forest, SupersetTree::new(src.len(), terminals, &contraction, &mst))
}

/// The forest of host `terminals` (all terminals of `superset`, built
/// over `q` roots), seeded and contracted from `superset`: what
/// [`q_rooted_msf_seeded`] returns, without the tree for further subsets.
pub(crate) fn subset_forest(
    src: &DistSource<'_>,
    terminals: &[usize],
    q: usize,
    superset: &SupersetTree,
    kernel: &mut Kernel<'_>,
) -> RootedForest {
    let points = src.positions();
    let tpts: Vec<Point2> = terminals.iter().map(|&t| points[t]).collect();
    let (seed, contraction) = superset.restrict(terminals);
    super_root_forest(&tpts, terminals, q, &contraction, &seed, kernel).0
}

/// The nearest-root contraction of host `terminals` over host `roots`.
fn contract(points: &[Point2], terminals: &[usize], roots: &[usize]) -> Contraction {
    // Physical-root distance rows: O(m·q) — q is small (the charger count).
    let root_dist: Vec<Vec<f64>> = roots
        .iter()
        .map(|&rn| terminals.iter().map(|&t| points[rn].dist(points[t])).collect())
        .collect();
    check_root_rows(terminals.len(), &root_dist);
    cheapest_roots(terminals.len(), &root_dist)
}

/// `SupersetTree::parent` of a terminal attached to the super-root.
const SUPER_ROOT: u32 = u32::MAX;
/// `SupersetTree::parent` of a host id outside the tree's terminal set.
const ABSENT: u32 = u32::MAX - 1;

/// An exact contracted Algorithm-1 tree kept to start its subsets from:
/// per host id, one `u32` parent, hung from the super-root, and the
/// terminal's nearest root and its cost — 16 bytes.
///
/// **Restriction lemma** (DESIGN.md §8). Let `T` be the minimum spanning
/// tree of a superset's contracted graph and `S` a subset whose terminals
/// keep their super-root costs. `S`'s contracted graph is then the
/// subgraph of the superset's induced by `S` and the super-root, and every
/// edge of `T` with both endpoints there is in `S`'s tree: no path through
/// lighter edges joins its endpoints in the superset graph, so none does in
/// the subgraph. [`SupersetTree::restrict`] hands a subset the superset's
/// own contraction, so the condition holds by construction. Section VI.B's
/// scheduling rows would break it; they never come here.
#[derive(Debug)]
pub(crate) struct SupersetTree {
    /// `parent[v]`: the host id of terminal `v`'s parent, [`SUPER_ROOT`],
    /// or [`ABSENT`] when `v` is not a terminal of the tree.
    parent: Vec<u32>,
    /// `root[v]`: the index of terminal `v`'s nearest root.
    root: Vec<u32>,
    /// `cost[v]`: terminal `v`'s super-root cost.
    cost: Vec<f64>,
}

impl SupersetTree {
    /// The tree `mst` ([`super_root_mst_with`]'s `(parent, child)` pairs
    /// over the indices of `terminals`, super-root last) in host-id space;
    /// `host_len` bounds the host ids and `contraction` is the one the
    /// tree was built with.
    fn new(host_len: usize, terminals: &[usize], contraction: &Contraction, mst: &[Edge]) -> Self {
        let m = terminals.len();
        assert!(host_len < ABSENT as usize, "host ids must fit below the u32 markers");
        debug_assert_eq!(mst.len(), m, "a spanning tree over the terminals and the super-root");
        let mut parent = vec![ABSENT; host_len];
        for &(p, c) in mst {
            parent[terminals[c]] = if p == m { SUPER_ROOT } else { terminals[p] as u32 };
        }
        let mut root = vec![0u32; host_len];
        let mut cost = vec![f64::NAN; host_len];
        for (t, &v) in terminals.iter().enumerate() {
            root[v] = contraction.root[t] as u32;
            cost[v] = contraction.cost[t];
        }
        Self { parent, root, cost }
    }

    /// The restriction to `terminals` (host ids, all terminals of the
    /// tree): the tree's edges whose endpoints both lie in `terminals` or
    /// at the super-root, in the index space of `terminals` with the
    /// super-root at `terminals.len()` — a seed for the kernel — and the
    /// terminals' contraction, taken from the tree.
    pub(crate) fn restrict(&self, terminals: &[usize]) -> (Vec<Edge>, Contraction) {
        let m = terminals.len();
        let mut index = vec![ABSENT; self.parent.len()];
        for (t, &v) in terminals.iter().enumerate() {
            index[v] = t as u32;
        }
        let mut seed = Vec::with_capacity(m);
        for (t, &v) in terminals.iter().enumerate() {
            let p = self.parent[v];
            assert!(p != ABSENT, "terminal {v} is outside the superset tree");
            if p == SUPER_ROOT {
                seed.push((m, t));
            } else if index[p as usize] != ABSENT {
                seed.push((index[p as usize] as usize, t));
            }
        }
        let contraction = Contraction {
            root: terminals.iter().map(|&v| self.root[v] as usize).collect(),
            cost: terminals.iter().map(|&v| self.cost[v]).collect(),
        };
        (seed, contraction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perpetuum_geom::Point2;

    /// Brute force: try every assignment of terminals to roots, MST each
    /// group (root + its terminals), return the best total weight.
    fn brute_force_msf(term_dist: &DistMatrix, root_dist: &[Vec<f64>]) -> f64 {
        let m = term_dist.len();
        let q = root_dist.len();
        let mut best = f64::INFINITY;
        let mut assign = vec![0usize; m];
        loop {
            // Weight of this assignment: MST per root over root + group.
            let mut total = 0.0;
            #[allow(clippy::needless_range_loop)]
            for r in 0..q {
                let group: Vec<usize> = (0..m).filter(|&t| assign[t] == r).collect();
                if group.is_empty() {
                    continue;
                }
                // Build a local matrix: node 0 = root, nodes 1.. = group.
                let g = DistMatrix::from_fn(group.len() + 1, |i, j| {
                    if i == 0 {
                        root_dist[r][group[j - 1]]
                    } else {
                        term_dist.get(group[i - 1], group[j - 1])
                    }
                });
                let mst = prim(&g);
                total += perpetuum_graph::mst::tree_weight(&g, &mst);
            }
            best = best.min(total);
            // Next assignment in base-q counting.
            let mut i = 0;
            loop {
                if i == m {
                    return best;
                }
                assign[i] += 1;
                if assign[i] < q {
                    break;
                }
                assign[i] = 0;
                i += 1;
            }
        }
    }

    fn forest_weight_ok(f: &RootedForest, term_dist: &DistMatrix, root_dist: &[Vec<f64>]) {
        let mut w = 0.0;
        for tree in &f.trees {
            for e in tree {
                w += match *e {
                    ForestEdge::TermTerm(a, b) => term_dist.get(a, b),
                    ForestEdge::RootTerm(r, t) => root_dist[r][t],
                };
            }
        }
        assert!((w - f.weight).abs() < 1e-9, "declared weight {} vs summed {}", f.weight, w);
    }

    #[test]
    fn empty_terminals() {
        let f = rooted_msf_general(&DistMatrix::zeros(0), &[vec![], vec![]]);
        assert_eq!(f.weight, 0.0);
        assert_eq!(f.trees.len(), 2);
        assert!(f.assignment.is_empty());
    }

    #[test]
    fn single_terminal_attaches_to_cheapest_root() {
        let term = DistMatrix::zeros(1);
        let roots = vec![vec![5.0], vec![2.0], vec![7.0]];
        let f = rooted_msf_general(&term, &roots);
        assert_eq!(f.assignment, vec![1]);
        assert_eq!(f.weight, 2.0);
        assert_eq!(f.trees[1], vec![ForestEdge::RootTerm(1, 1 - 1)]);
        assert!(f.trees[0].is_empty() && f.trees[2].is_empty());
    }

    #[test]
    fn two_clusters_two_roots() {
        // Terminals 0,1 near root 0; terminals 2,3 near root 1.
        let pts = [
            Point2::new(0.0, 1.0),
            Point2::new(0.0, 2.0),
            Point2::new(100.0, 1.0),
            Point2::new(100.0, 2.0),
        ];
        let term = DistMatrix::from_points(&pts);
        let r0 = Point2::new(0.0, 0.0);
        let r1 = Point2::new(100.0, 0.0);
        let roots = vec![
            pts.iter().map(|p| p.dist(r0)).collect::<Vec<_>>(),
            pts.iter().map(|p| p.dist(r1)).collect::<Vec<_>>(),
        ];
        let f = rooted_msf_general(&term, &roots);
        assert_eq!(f.assignment, vec![0, 0, 1, 1]);
        assert!((f.weight - 4.0).abs() < 1e-9);
        forest_weight_ok(&f, &term, &roots);
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        use rand::{Rng, SeedableRng};
        for seed in 0..8u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let m = rng.gen_range(2..6);
            let q = rng.gen_range(1..4);
            let pts: Vec<Point2> = (0..m)
                .map(|_| Point2::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
                .collect();
            let rpts: Vec<Point2> = (0..q)
                .map(|_| Point2::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
                .collect();
            let term = DistMatrix::from_points(&pts);
            let roots: Vec<Vec<f64>> =
                rpts.iter().map(|r| pts.iter().map(|p| p.dist(*r)).collect()).collect();
            let f = rooted_msf_general(&term, &roots);
            let bf = brute_force_msf(&term, &roots);
            assert!(
                (f.weight - bf).abs() < 1e-9,
                "seed {seed}: algorithm {} vs brute force {bf}",
                f.weight
            );
            forest_weight_ok(&f, &term, &roots);
        }
    }

    #[test]
    fn host_graph_wrapper_consistency() {
        // 3 sensors, 2 depots on a line: sensors at 1, 2, 10; depots at 0, 9.
        let sensors = [Point2::new(1.0, 0.0), Point2::new(2.0, 0.0), Point2::new(10.0, 0.0)];
        let depots = [Point2::new(0.0, 0.0), Point2::new(9.0, 0.0)];
        let all: Vec<Point2> = sensors.iter().chain(depots.iter()).copied().collect();
        let f = q_rooted_msf_src(&DistSource::points(&all), &[0, 1, 2], &[3, 4]);
        // Sensors 0,1 go to depot 0 (cost 1+1), sensor 2 to depot 1 (cost 1).
        assert_eq!(f.assignment, vec![0, 0, 1]);
        assert!((f.weight - 3.0).abs() < 1e-9);
    }

    #[test]
    fn forest_spans_every_terminal_exactly_once() {
        let pts: Vec<Point2> = (0..12)
            .map(|i| Point2::new((i * 17 % 7) as f64 * 10.0, (i * 29 % 11) as f64 * 10.0))
            .collect();
        let term = DistMatrix::from_points(&pts);
        let roots: Vec<Vec<f64>> = (0..3)
            .map(|r| {
                let rp = Point2::new(r as f64 * 40.0, 50.0);
                pts.iter().map(|p| p.dist(rp)).collect()
            })
            .collect();
        let f = rooted_msf_general(&term, &roots);
        // Assignments all valid, every terminal in exactly one tree.
        assert!(f.assignment.iter().all(|&r| r < 3));
        let mut count = [0usize; 12];
        for r in 0..3 {
            for t in f.terminals_of(r) {
                count[t] += 1;
            }
        }
        assert!(count.iter().all(|&c| c == 1));
        // Edge counts: a tree with k terminals has exactly k edges
        // (k-1 terminal-terminal + 1 root edge) when k ≥ 1.
        for r in 0..3 {
            let k = f.terminals_of(r).len();
            let expected = if k == 0 { 0 } else { k };
            assert_eq!(f.trees[r].len(), expected, "root {r}");
        }
    }

    /// Asserts the planner kernel and the dense oracle agree: same
    /// weight (up to summation order) and the same root assignment.
    fn assert_matches_oracle(pts: &[Point2], root_dist: &[Vec<f64>], what: &str) {
        let oracle = rooted_msf_general(&DistMatrix::from_points(pts), root_dist);
        let kernel = rooted_msf_points(pts, root_dist);
        assert!(
            (oracle.weight - kernel.weight).abs() <= 1e-9 * oracle.weight.max(1.0),
            "{what}: oracle {} vs kernel {}",
            oracle.weight,
            kernel.weight
        );
        assert_eq!(oracle.assignment, kernel.assignment, "{what}");
    }

    #[test]
    fn sparse_msf_matches_dense_on_random_instances() {
        // The host-graph entry point over a point source must reproduce
        // the dense oracle exactly (weight and assignment), up to n = 200.
        use rand::{Rng, SeedableRng};
        for (seed, n) in [(1u64, 20usize), (2, 60), (3, 120), (4, 200)] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed * 31 + 5);
            let pts: Vec<Point2> = (0..n + 3)
                .map(|_| Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
                .collect();
            let terminals: Vec<usize> = (0..n).collect();
            let roots = vec![n, n + 1, n + 2];
            let root_dist: Vec<Vec<f64>> =
                roots.iter().map(|&r| pts[..n].iter().map(|p| pts[r].dist(*p)).collect()).collect();
            let oracle = rooted_msf_general(&DistMatrix::from_points(&pts[..n]), &root_dist);
            let kernel = q_rooted_msf_src(&DistSource::points(&pts), &terminals, &roots);
            assert!(
                (oracle.weight - kernel.weight).abs() <= 1e-9 * oracle.weight,
                "n={n}: oracle {} vs kernel {}",
                oracle.weight,
                kernel.weight
            );
            assert_eq!(oracle.assignment, kernel.assignment, "n={n}");
        }
    }

    #[test]
    fn points_variant_matches_general_with_scheduling_roots() {
        // `rooted_msf_points` must reproduce the exact contracted MSF for
        // *general* root rows (here: nearest-distance-to-a-random-subset
        // rows, the shape Section VI.B's repair feeds it), not just
        // physical point roots.
        use rand::{Rng, SeedableRng};
        for (seed, m) in [(1u64, 15usize), (2, 60), (3, 150)] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed * 91 + 7);
            let pts: Vec<Point2> = (0..m)
                .map(|_| Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
                .collect();
            let q = rng.gen_range(2..5);
            let root_dist: Vec<Vec<f64>> = (0..q)
                .map(|_| {
                    let anchors: Vec<Point2> = (0..rng.gen_range(1..6))
                        .map(|_| {
                            Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0))
                        })
                        .collect();
                    pts.iter()
                        .map(|p| anchors.iter().map(|a| p.dist(*a)).fold(f64::INFINITY, f64::min))
                        .collect()
                })
                .collect();
            assert_matches_oracle(&pts, &root_dist, &format!("seed {seed} m={m}"));
        }
    }

    /// Host terminals `0..m` of a 40-sensor line with two depots, their
    /// nearest-depot contraction and its exact tree.
    fn line_superset() -> (Vec<Point2>, Vec<usize>, Vec<usize>) {
        let mut pts: Vec<Point2> =
            (0..40).map(|i| Point2::new((i * 37 % 40) as f64 * 5.0, (i % 3) as f64)).collect();
        pts.extend([Point2::new(0.0, 0.0), Point2::new(200.0, 0.0)]);
        (pts, (0..40).collect(), vec![40, 41])
    }

    #[test]
    fn seeded_forest_equals_unseeded_on_subsets() {
        let (pts, all, roots) = line_superset();
        let src = DistSource::points(&pts);
        let (_, tree) = q_rooted_msf_seeded(&src, &all, &roots, None, &mut Kernel::default());
        for step in [1usize, 2, 3, 7] {
            let subset: Vec<usize> = all.iter().copied().filter(|t| t % step == 0).collect();
            let (seeded, _) =
                q_rooted_msf_seeded(&src, &subset, &roots, Some(&tree), &mut Kernel::default());
            let fresh = q_rooted_msf_src(&src, &subset, &roots);
            assert_eq!(seeded.trees, fresh.trees, "every {step}th sensor");
            assert_eq!(seeded.assignment, fresh.assignment, "every {step}th sensor");
            assert_eq!(seeded.weight.to_bits(), fresh.weight.to_bits(), "every {step}th sensor");
        }
    }

    #[test]
    fn restriction_keeps_edges_between_survivors() {
        // A path 0 – 1 – 2 hung from the super-root at 0: dropping 1 keeps
        // only the root edge of 0; dropping 2 keeps the whole rest. Each
        // survivor keeps the superset's root and cost.
        let contraction = Contraction { root: vec![1, 0, 1], cost: vec![1.0, 2.0, 3.0] };
        let tree = SupersetTree::new(3, &[0, 1, 2], &contraction, &[(3, 0), (0, 1), (1, 2)]);
        let survivors = |root: Vec<usize>, cost: Vec<f64>| Contraction { root, cost };
        assert_eq!(tree.restrict(&[0, 2]), (vec![(2, 0)], survivors(vec![1, 1], vec![1.0, 3.0])));
        assert_eq!(
            tree.restrict(&[0, 1]),
            (vec![(2, 0), (0, 1)], survivors(vec![1, 0], vec![1.0, 2.0]))
        );
        assert_eq!(tree.restrict(&[]), (Vec::new(), survivors(Vec::new(), Vec::new())));
    }

    #[test]
    fn terminals_by_root_matches_terminals_of() {
        let pts: Vec<Point2> = (0..15)
            .map(|i| Point2::new((i * 13 % 9) as f64 * 11.0, (i * 19 % 8) as f64 * 13.0))
            .collect();
        let f = q_rooted_msf_src(
            &DistSource::points(&pts),
            &(0..12).collect::<Vec<_>>(),
            &[12, 13, 14],
        );
        let grouped = f.terminals_by_root();
        assert_eq!(grouped.len(), 3);
        for (r, g) in grouped.iter().enumerate() {
            assert_eq!(*g, f.terminals_of(r), "root {r}");
        }
    }
}
