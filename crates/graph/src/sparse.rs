//! Sparse graphs and the exact near-linear minimum spanning tree over
//! points plus a super-root.
//!
//! Dense Prim is the right tool on a materialized complete graph, but it is
//! Θ(n²) in time and memory. This module provides:
//!
//! * [`SparseGraph`] — CSR adjacency built from an undirected edge list,
//! * [`prim_sparse`] — binary-heap Prim on a [`SparseGraph`],
//!   `O(m log n)`, reporting disconnection instead of failing silently,
//! * [`super_root_mst_with`] — the exact minimum spanning tree of the
//!   complete Euclidean graph over a point set plus one *super-root* joined
//!   to every point at an arbitrary cost: Borůvka rounds whose cheapest
//!   edges come from nearest-foreign-point answers, `O(n log² n)` on the
//!   deployments the planners see, never an `n²` matrix. [`super_root_mst`]
//!   is the same kernel without a table,
//! * [`NeighbourTable`] — every site's `k` nearest sites as `u32` ids
//!   (`4·k` bytes per site), sorted by `(distance, id)`. A caller that
//!   solves many point sets drawn from one fixed site set (the incremental
//!   planner over a network's sensors) builds it once; the kernel then
//!   takes each point's answer from its list where the list certifies it,
//!   and queries a kd-tree, built on demand, only for the rest,
//! * [`MstWork`] — the kernel's work counters: rounds, table hits, kd-tree
//!   queries and kd-trees built.
//!
//! Determinism: ties are broken by a strict total order on edges, Prim's
//! heap is popped in a fixed order, and all distance values are the same
//! IEEE expressions a dense matrix would store, so repeated runs produce
//! identical trees.

use crate::dsu::DisjointSets;
use crate::mst::Edge;
use perpetuum_geom::{knn_lists, KdTree, Point2};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// `f64` ordered by `total_cmp` so it can live in a [`BinaryHeap`].
/// Distances are never NaN here; `total_cmp` just keeps `Ord` lawful.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Undirected weighted graph in compressed sparse row form.
///
/// Built once from an edge list; neighbour iteration is a contiguous slice
/// scan, which is what heap-Prim spends its time on.
#[derive(Debug, Clone)]
pub struct SparseGraph {
    n: usize,
    /// `start[u]..start[u + 1]` indexes `u`'s slice of `nbr`/`weight`.
    start: Vec<u32>,
    nbr: Vec<u32>,
    weight: Vec<f64>,
}

impl SparseGraph {
    /// Builds the CSR adjacency of an undirected graph on `n` nodes from
    /// `(u, v, w)` edges. Each input edge is stored in both directions;
    /// duplicate edges are kept (harmless for MST). Panics if an endpoint
    /// is out of range or `u == v`.
    pub fn from_edges(n: usize, edges: &[(usize, usize, f64)]) -> Self {
        let mut deg = vec![0u32; n + 1];
        for &(u, v, _) in edges {
            assert!(u < n && v < n && u != v, "bad edge ({u}, {v}) for n = {n}");
            deg[u + 1] += 1;
            deg[v + 1] += 1;
        }
        for i in 0..n {
            deg[i + 1] += deg[i];
        }
        let start = deg;
        let mut cursor = start.clone();
        let mut nbr = vec![0u32; 2 * edges.len()];
        let mut weight = vec![0.0f64; 2 * edges.len()];
        for &(u, v, w) in edges {
            let cu = cursor[u] as usize;
            nbr[cu] = v as u32;
            weight[cu] = w;
            cursor[u] += 1;
            let cv = cursor[v] as usize;
            nbr[cv] = u as u32;
            weight[cv] = w;
            cursor[v] += 1;
        }
        SparseGraph { n, start, nbr, weight }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of stored undirected edges.
    #[cfg(test)]
    pub(crate) fn edge_count(&self) -> usize {
        self.nbr.len() / 2
    }

    /// `u`'s neighbours with edge weights.
    pub fn neighbors(&self, u: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.start[u] as usize;
        let hi = self.start[u + 1] as usize;
        self.nbr[lo..hi].iter().zip(&self.weight[lo..hi]).map(|(&v, &w)| (v as usize, w))
    }
}

/// Prim's algorithm with a binary heap on a sparse graph, rooted at
/// `root`: `O(m log n)`.
///
/// Returns the `n − 1` tree edges as `(parent, child)` pairs in the order
/// nodes were attached, plus the total weight — or `None` when `root`'s
/// component does not span the graph.
pub fn prim_sparse(graph: &SparseGraph, root: usize) -> Option<(Vec<Edge>, f64)> {
    let n = graph.len();
    assert!(root < n, "root {root} out of range for n = {n}");
    if n == 1 {
        return Some((Vec::new(), 0.0));
    }
    let mut in_tree = vec![false; n];
    let mut edges = Vec::with_capacity(n - 1);
    let mut total = 0.0;
    // Lazy-deletion heap of (weight, child, parent); stale entries are
    // skipped on pop. `Reverse` turns the max-heap into a min-heap, and the
    // (child, parent) components break weight ties deterministically.
    let mut heap: BinaryHeap<Reverse<(OrdF64, u32, u32)>> = BinaryHeap::new();
    in_tree[root] = true;
    for (v, w) in graph.neighbors(root) {
        heap.push(Reverse((OrdF64(w), v as u32, root as u32)));
    }
    while let Some(Reverse((OrdF64(w), v, parent))) = heap.pop() {
        let v = v as usize;
        if in_tree[v] {
            continue;
        }
        in_tree[v] = true;
        edges.push((parent as usize, v));
        total += w;
        for (u, wu) in graph.neighbors(v) {
            if !in_tree[u] {
                heap.push(Reverse((OrdF64(wu), u as u32, v as u32)));
            }
        }
    }
    if edges.len() == n - 1 {
        Some((edges, total))
    } else {
        None
    }
}

/// An edge under the strict total order `(w, min id, max id)` that
/// [`super_root_mst`] and [`crate::mst::prim`] break weight ties by:
/// distinct edges never compare equal, so the minimum spanning tree is
/// unique.
#[derive(Debug, Clone, Copy, PartialEq)]
struct KeyedEdge {
    w: f64,
    lo: usize,
    hi: usize,
}

impl KeyedEdge {
    fn new(w: f64, a: usize, b: usize) -> Self {
        Self { w, lo: a.min(b), hi: a.max(b) }
    }

    fn less(&self, other: &Self) -> bool {
        self.w.total_cmp(&other.w).then(self.lo.cmp(&other.lo)).then(self.hi.cmp(&other.hi)).is_lt()
    }
}

/// Keeps the lesser of `slot` and `edge`.
fn offer(slot: &mut Option<KeyedEdge>, edge: KeyedEdge) {
    if slot.is_none_or(|s| edge.less(&s)) {
        *slot = Some(edge);
    }
}

/// Every site's `k` nearest other sites, as `u32` ids sorted by ascending
/// `(distance, id)` — the order [`KdTree::nearest_foreign`] breaks ties by.
///
/// Built once over a fixed point set (a network's sensors) and never
/// invalidated, since it depends on geometry alone: `4·k` bytes per site.
/// It lets [`super_root_mst_with`] answer most nearest-foreign questions
/// without a kd-tree query. A list holds every site whose `(distance, id)`
/// precedes its last entry, so its first entry that is a foreign member
/// of a kernel call is that member's exact answer, and a list with none
/// bounds the answer from below by its last distance.
#[derive(Debug, Clone)]
pub struct NeighbourTable {
    sites: usize,
    /// Entries per list: `min(k, sites − 1)`.
    width: usize,
    /// `ids[s·width..(s + 1)·width]`: site `s`'s list.
    ids: Vec<u32>,
}

impl NeighbourTable {
    /// The table of `sites` with up to `k` entries per list, from one
    /// kd-tree's exact `knn` queries ([`knn_lists`]): `O(n·k·log n)`.
    pub fn new(sites: &[Point2], k: usize) -> Self {
        let n = sites.len();
        assert!(n < u32::MAX as usize, "site ids must fit in u32");
        let width = k.min(n.saturating_sub(1));
        let lists = knn_lists(&KdTree::new(sites), width);
        let ids: Vec<u32> = lists.iter().flatten().map(|&j| j as u32).collect();
        debug_assert_eq!(ids.len(), n * width);
        Self { sites: n, width, ids }
    }

    /// Bytes held by the lists.
    pub fn bytes(&self) -> usize {
        self.ids.len() * std::mem::size_of::<u32>()
    }

    /// Whether every list holds every other site (`k ≥ sites − 1`).
    fn complete(&self) -> bool {
        self.width + 1 >= self.sites
    }

    fn list(&self, site: usize) -> &[u32] {
        &self.ids[site * self.width..(site + 1) * self.width]
    }
}

/// One [`super_root_mst_with`] call's view of a [`NeighbourTable`]: the
/// positions the table was built over, and which site each point of the
/// call is.
#[derive(Debug, Clone, Copy)]
pub struct Neighbours<'a> {
    /// The table.
    pub table: &'a NeighbourTable,
    /// The positions of the table's sites.
    pub sites: &'a [Point2],
    /// `ids[t]`: the site point `t` of the call sits at, strictly
    /// ascending, so the call's point order breaks distance ties the way
    /// the lists do.
    pub ids: &'a [usize],
}

/// Work done by [`super_root_mst_with`] calls, summed with `+=`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MstWork {
    /// Borůvka rounds.
    pub rounds: u64,
    /// Nearest-foreign answers read off a [`NeighbourTable`] list.
    pub table_hits: u64,
    /// Exact [`KdTree::nearest_foreign`] queries.
    pub tree_queries: u64,
    /// kd-trees built (at most one per call, only once a query is due).
    pub trees_built: u64,
}

impl std::ops::AddAssign for MstWork {
    fn add_assign(&mut self, other: Self) {
        self.rounds += other.rounds;
        self.table_hits += other.table_hits;
        self.tree_queries += other.tree_queries;
        self.trees_built += other.trees_built;
    }
}

/// The minimum spanning tree of the *super-root graph* of `points`: nodes
/// `0..m` are the points, node `m` is a super-root joined to point `t` at
/// cost `root_cost[t]`, and every two points are joined at their Euclidean
/// distance. This is the contracted graph of the paper's Algorithm 1 (all
/// roots merged into one), and the tree is exact — the unique minimum
/// under the strict order `(w, min id, max id)`.
///
/// `seed` lists edges (over the same `0..=m` node ids) already known to
/// lie in that tree; they are joined before the first round, so a caller
/// that knows most of the tree pays only for the rest. `&[]` when none.
/// The restriction of an exact superset tree is such a seed (DESIGN.md §8):
/// an edge of the superset's tree whose endpoints both survive is the
/// lightest way across some cut of the superset graph, hence of every
/// subgraph holding both endpoints — provided each surviving point keeps
/// its super-root cost. A seed that is not part of the tree makes the
/// result wrong; one that closes a cycle panics.
///
/// Returns the `m` tree edges as `(parent, child)` pairs in the order
/// heap-Prim from the super-root attaches them (what [`prim_sparse`] on
/// any graph containing the tree would emit), whatever the seed.
///
/// This is [`super_root_mst_with`] without a neighbour table.
pub fn super_root_mst(points: &[Point2], root_cost: &[f64], seed: &[Edge]) -> Vec<Edge> {
    super_root_mst_with(points, root_cost, seed, None, &mut MstWork::default())
}

/// [`super_root_mst`], taking nearest-foreign answers from `near`'s
/// neighbour lists where they are exact, and adding the work done to
/// `work`. The tree and its edge order are the same with or without a
/// table.
///
/// **Method.** Borůvka: each round, every component takes its cheapest
/// outgoing edge — the lesser of its points' super-root edges and, per
/// point, the edge to the nearest point outside the component. By the cut
/// property each such edge belongs to the minimum spanning tree, and
/// under a strict edge order the chosen edges never close a cycle. Each
/// round finds the nearest foreign points in two passes:
///
/// 1. *Certified answers.* A point keeps its last answer while that
///    neighbour is still foreign (components only grow, so it is still
///    the nearest). Otherwise, with a table, the point's list is scanned
///    from where its last scan stopped: its first member of another
///    component is the exact answer (the list holds every site preceding
///    its last entry in `(distance, id)` order, and the call's points
///    ascend in site id). A list with no such member bounds the answer
///    from below by its last distance.
/// 2. *Queries.* Every point still without an answer keeps a lower bound —
///    a stale answer's distance, a list's last distance or a failed
///    query's radius — and is skipped while that bound exceeds its
///    component's best edge so far. The rest go to the exact
///    [`KdTree::nearest_foreign`] query, which skips subtrees lying wholly
///    inside the querying component, on a kd-tree built when the first
///    query is due. Without a table every unanswered point comes here.
///
/// The component with the most points does not search, and its partial
/// pick is dropped: every other component still adds an edge of the tree
/// and so joins at least one other, which leaves at most `⌈c/2⌉` of a
/// round's `c` components.
///
/// `O(log m)` rounds of at most `m` queries: `O(m log² m)` on the uniform
/// and clustered deployments the planners see, plus `O(k)` list steps per
/// point over the whole call.
pub fn super_root_mst_with(
    points: &[Point2],
    root_cost: &[f64],
    seed: &[Edge],
    near: Option<Neighbours<'_>>,
    work: &mut MstWork,
) -> Vec<Edge> {
    let m = points.len();
    assert_eq!(root_cost.len(), m, "one super-root cost per point");
    if m == 0 {
        return Vec::new();
    }
    let weight = |a: usize, b: usize| {
        let (lo, hi) = (a.min(b), a.max(b));
        if hi == m {
            root_cost[lo]
        } else {
            points[lo].dist(points[hi])
        }
    };
    let mut dsu = DisjointSets::new(m + 1);
    let mut chosen: Vec<(usize, usize, f64)> = Vec::with_capacity(m);
    for &(a, b) in seed {
        assert!(dsu.union(a, b), "seed edge ({a}, {b}) closes a cycle");
        chosen.push((a, b, weight(a, b)));
    }
    if chosen.len() < m {
        let lists = near.map(|near| Lists::new(near, points));
        boruvka(points, root_cost, lists, &mut dsu, &mut chosen, work);
    }
    let graph = SparseGraph::from_edges(m + 1, &chosen);
    prim_sparse(&graph, m).expect("a spanning tree is connected").0
}

/// The `near` entry of a point whose last query found no foreign point
/// within its bound, and the `local` entry of a site outside the call.
const NO_POINT: u32 = u32::MAX;

/// A [`Neighbours`] view resolved to the call's point ids, with a scan
/// cursor per point.
struct Lists<'a> {
    near: Neighbours<'a>,
    /// `local[s]`: the point at site `s`, or [`NO_POINT`].
    local: Vec<u32>,
    /// `cursor[t]`: entries of point `t`'s list before this one are
    /// outside the call or in `t`'s component, which they stay.
    cursor: Vec<u32>,
}

impl<'a> Lists<'a> {
    fn new(near: Neighbours<'a>, points: &[Point2]) -> Self {
        assert_eq!(near.ids.len(), points.len(), "one site per point");
        assert_eq!(near.sites.len(), near.table.sites, "the table's own sites");
        assert!(near.ids.windows(2).all(|w| w[0] < w[1]), "site ids must ascend");
        let mut local = vec![NO_POINT; near.table.sites];
        for (t, &s) in near.ids.iter().enumerate() {
            debug_assert_eq!(near.sites[s], points[t], "point {t} is not at site {s}");
            local[s] = t as u32;
        }
        Self { near, local, cursor: vec![0; points.len()] }
    }

    /// Point `t`'s nearest foreign point as `Ok(index)` when its list
    /// certifies one, else `Err(lower bound)` on its distance.
    fn nearest_foreign(&mut self, t: usize, label: &[u32]) -> Result<usize, f64> {
        let site = self.near.ids[t];
        let list = self.near.table.list(site);
        let mut c = self.cursor[t] as usize;
        while let Some(&s) = list.get(c) {
            let j = self.local[s as usize];
            if j != NO_POINT && label[j as usize] != label[t] {
                self.cursor[t] = c as u32;
                return Ok(j as usize);
            }
            c += 1;
        }
        self.cursor[t] = c as u32;
        if self.near.table.complete() {
            return Err(f64::INFINITY);
        }
        let pos = self.near.sites[site];
        Err(list.last().map_or(0.0, |&s| self.near.sites[s as usize].dist(pos)))
    }
}

/// The Borůvka rounds of [`super_root_mst_with`]: adds tree edges to
/// `chosen` (and joins them in `dsu`) until the `m` points and the
/// super-root are one component.
fn boruvka(
    points: &[Point2],
    root_cost: &[f64],
    mut lists: Option<Lists<'_>>,
    dsu: &mut DisjointSets,
    chosen: &mut Vec<(usize, usize, f64)>,
    work: &mut MstWork,
) {
    let m = points.len();
    let mut tree: Option<KdTree> = None;
    let mut label = vec![0u32; m];
    let mut size = vec![0u32; m + 1];
    let mut cheapest: Vec<Option<KeyedEdge>> = vec![None; m + 1];
    // `near[t] = (j, d)`: point t's last nearest-foreign answer, or
    // `(NO_POINT, d)` when it has none. Either way `d` is a lower bound on
    // t's nearest foreign distance from then on, and `j`, while still
    // foreign, is that nearest point itself.
    let mut near: Vec<(u32, f64)> = vec![(NO_POINT, 0.0); m];
    let mut unanswered: Vec<usize> = Vec::new();
    while chosen.len() < m {
        work.rounds += 1;
        size.fill(0);
        for (t, l) in label.iter_mut().enumerate() {
            *l = dsu.find(t) as u32;
            size[*l as usize] += 1;
        }
        let root_comp = dsu.find(m);
        let largest = (0..=m).max_by_key(|&c| (size[c], Reverse(c))).expect("m > 0");
        cheapest.fill(None);
        for (t, &c) in root_cost.iter().enumerate() {
            let comp = label[t] as usize;
            if comp != root_comp {
                let edge = KeyedEdge::new(c, t, m);
                offer(&mut cheapest[comp], edge);
                offer(&mut cheapest[root_comp], edge);
            }
        }
        // Pass 1: certified answers.
        unanswered.clear();
        for t in 0..m {
            let comp = label[t] as usize;
            if comp == largest {
                continue;
            }
            let (j, d) = near[t];
            if j != NO_POINT && label[j as usize] != label[t] {
                offer(&mut cheapest[comp], KeyedEdge::new(d, t, j as usize));
                continue;
            }
            match lists.as_mut().map(|l| l.nearest_foreign(t, &label)) {
                Some(Ok(j)) => {
                    work.table_hits += 1;
                    let d = points[t].dist(points[j]);
                    near[t] = (j as u32, d);
                    offer(&mut cheapest[comp], KeyedEdge::new(d, t, j));
                    continue;
                }
                Some(Err(bound)) => near[t] = (NO_POINT, d.max(bound)),
                None => {}
            }
            unanswered.push(t);
        }
        // Pass 2: exact queries where the lower bound leaves room.
        let mut subtree: Option<Vec<u32>> = None;
        for &t in &unanswered {
            let comp = label[t] as usize;
            // Only a foreign point at most as far as the component's best
            // edge so far can improve on it.
            let bound = cheapest[comp].map_or(f64::INFINITY, |e| e.w);
            if near[t].1 > bound {
                continue;
            }
            let tree = tree.get_or_insert_with(|| {
                work.trees_built += 1;
                KdTree::new(points)
            });
            let subtree = subtree.get_or_insert_with(|| tree.subtree_labels(&label));
            work.tree_queries += 1;
            match tree.nearest_foreign(points[t], label[t], &label, subtree, bound) {
                Some((j, d)) => {
                    near[t] = (j as u32, d);
                    offer(&mut cheapest[comp], KeyedEdge::new(d, t, j));
                }
                None => near[t] = (NO_POINT, bound),
            }
        }
        cheapest[largest] = None;
        for e in cheapest.iter().flatten() {
            // Two components may pick the same edge; it joins them once.
            if dsu.union(e.lo, e.hi) {
                chosen.push((e.lo, e.hi, e.w));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::DistMatrix;
    use crate::mst::{is_spanning_tree, prim, tree_weight};

    fn cloud(n: usize, scale: f64) -> Vec<Point2> {
        (0..n)
            .map(|i| {
                let i = i as f64;
                Point2::new((i * 71.0 + 13.0) % scale, (i * i * 29.0 + 7.0) % scale)
            })
            .collect()
    }

    #[test]
    fn csr_round_trips_neighbors() {
        let g = SparseGraph::from_edges(4, &[(0, 1, 1.0), (1, 2, 2.0), (0, 3, 3.0)]);
        assert_eq!(g.len(), 4);
        assert_eq!(g.edge_count(), 3);
        let mut n1: Vec<_> = g.neighbors(1).collect();
        n1.sort_unstable_by_key(|e| e.0);
        assert_eq!(n1, vec![(0, 1.0), (2, 2.0)]);
        assert_eq!(g.neighbors(3).collect::<Vec<_>>(), vec![(0, 3.0)]);
    }

    #[test]
    fn prim_sparse_matches_dense_weight_on_complete_graph() {
        let pts = cloud(40, 300.0);
        let dist = DistMatrix::from_points(&pts);
        let mut all = Vec::new();
        for i in 0..pts.len() {
            for j in i + 1..pts.len() {
                all.push((i, j, dist.get(i, j)));
            }
        }
        let g = SparseGraph::from_edges(pts.len(), &all);
        let (edges, total) = prim_sparse(&g, 0).expect("complete graph is connected");
        assert!(is_spanning_tree(pts.len(), &edges));
        let dense = prim(&dist);
        let dense_total = tree_weight(&dist, &dense);
        assert!((total - dense_total).abs() <= 1e-9 * dense_total.max(1.0));
    }

    #[test]
    fn prim_sparse_reports_disconnection() {
        let g = SparseGraph::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]);
        assert!(prim_sparse(&g, 0).is_none());
    }

    /// The contracted graph of [`super_root_mst`] as a dense matrix:
    /// node `m` is the super-root.
    fn contracted(pts: &[Point2], root_cost: &[f64]) -> DistMatrix {
        let m = pts.len();
        DistMatrix::from_fn(m + 1, |i, j| if j == m { root_cost[i] } else { pts[i].dist(pts[j]) })
    }

    fn sorted_pairs(edges: &[Edge]) -> Vec<Edge> {
        let mut v: Vec<Edge> = edges.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn mst_knn_matches_dense_prim() {
        // The Borůvka kernel's nearest-foreign-point rounds must find the
        // very tree dense Prim finds on the materialized contracted graph.
        for &n in &[2usize, 7, 40, 150] {
            let pts = cloud(n, 700.0);
            let root_cost: Vec<f64> = pts.iter().map(|p| p.dist(Point2::new(350.0, 0.0))).collect();
            let tree = super_root_mst(&pts, &root_cost, &[]);
            assert!(is_spanning_tree(n + 1, &tree), "n = {n}");
            let dist = contracted(&pts, &root_cost);
            let dense = prim(&dist);
            assert_eq!(sorted_pairs(&tree), sorted_pairs(&dense), "n = {n}");
            let (w, dw) = (tree_weight(&dist, &tree), tree_weight(&dist, &dense));
            assert!((w - dw).abs() <= 1e-9 * dw.max(1.0), "n = {n}: {w} vs {dw}");
        }
    }

    #[test]
    fn mst_knn_escalates_k_on_clustered_input() {
        // Two far-apart 12-point clusters and super-root edges dearer than
        // the gap: every point's nearest neighbour is inside its own
        // cluster, so the kernel needs several Borůvka rounds, the last of
        // them bridging the clusters — and must still be exact.
        let mut pts = Vec::new();
        for x0 in [0.0, 1_000.0] {
            for i in 0..12 {
                let i = i as f64;
                pts.push(Point2::new(x0 + i % 4.0, (i / 4.0).floor()));
            }
        }
        let root_cost = vec![5_000.0; pts.len()];
        let tree = super_root_mst(&pts, &root_cost, &[]);
        let dist = contracted(&pts, &root_cost);
        assert_eq!(sorted_pairs(&tree), sorted_pairs(&prim(&dist)));
        // One super-root edge; the rest is the points' own spanning tree,
        // bridge included.
        assert_eq!(tree.iter().filter(|&&(a, b)| a.max(b) == pts.len()).count(), 1);
        assert!(tree.iter().any(|&(a, b)| a.min(b) < 12 && a.max(b) >= 12 && a.max(b) < 24));
    }

    #[test]
    fn super_root_mst_emits_prim_order() {
        // The kernel's edge order is heap-Prim's from the super-root over
        // the complete contracted graph — the order tour construction
        // downstream depends on.
        // Off-lattice points: no two candidate edges weigh the same, so
        // heap-Prim's own tie rule never comes into play.
        let pts: Vec<Point2> = cloud(90, 500.0)
            .iter()
            .enumerate()
            .map(|(i, p)| Point2::new(p.x + (i as f64).sin() * 1e-3, p.y + (i as f64).cos() * 1e-3))
            .collect();
        let root_cost: Vec<f64> = pts.iter().map(|p| p.dist(Point2::new(0.0, 250.0))).collect();
        let m = pts.len();
        let mut all = Vec::new();
        for i in 0..m {
            all.push((i, m, root_cost[i]));
            for j in i + 1..m {
                all.push((i, j, pts[i].dist(pts[j])));
            }
        }
        let (full, _) = prim_sparse(&SparseGraph::from_edges(m + 1, &all), m).unwrap();
        assert_eq!(super_root_mst(&pts, &root_cost, &[]), full);
    }

    #[test]
    fn neighbour_lists_are_the_k_nearest_by_distance_then_id() {
        // Ten points repeated: ties at distance zero and beyond.
        let mut pts = cloud(60, 300.0);
        pts.extend_from_within(..10);
        let n = pts.len();
        for k in [0, 1, 5, n - 1, n + 4] {
            let table = NeighbourTable::new(&pts, k);
            assert_eq!(table.bytes(), 4 * n * k.min(n - 1));
            assert_eq!(table.complete(), k + 1 >= n);
            for (s, &p) in pts.iter().enumerate() {
                let mut others: Vec<(f64, usize)> =
                    (0..n).filter(|&j| j != s).map(|j| (pts[j].dist(p), j)).collect();
                others.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                let expected: Vec<u32> = others.iter().take(k).map(|&(_, j)| j as u32).collect();
                assert_eq!(table.list(s), expected, "site {s}, k = {k}");
            }
        }
    }

    #[test]
    fn table_backed_kernel_matches_tree_only_on_a_subset() {
        // Every other point of a cloud, under lists of one entry (mostly
        // non-members, so most points fall back to a query) and of all
        // sites (no query at all).
        let sites = cloud(120, 500.0);
        let ids: Vec<usize> = (0..sites.len()).step_by(2).collect();
        let pts: Vec<Point2> = ids.iter().map(|&i| sites[i]).collect();
        let root_cost: Vec<f64> = pts.iter().map(|p| p.dist(Point2::new(250.0, 0.0))).collect();
        let expected = super_root_mst(&pts, &root_cost, &[]);
        for (k, queries) in [(1, true), (sites.len(), false)] {
            let table = NeighbourTable::new(&sites, k);
            let near = Neighbours { table: &table, sites: &sites, ids: &ids };
            let mut work = MstWork::default();
            assert_eq!(super_root_mst_with(&pts, &root_cost, &[], Some(near), &mut work), expected);
            assert!(work.rounds > 0 && work.table_hits > 0, "k = {k}: {work:?}");
            assert_eq!(work.tree_queries > 0, queries, "k = {k}: {work:?}");
            assert_eq!(work.trees_built, u64::from(queries), "k = {k}: {work:?}");
        }
    }

    #[test]
    fn singleton_point_set() {
        assert_eq!(super_root_mst(&[Point2::new(3.0, 4.0)], &[5.0], &[]), vec![(1, 0)]);
        assert!(super_root_mst(&[], &[], &[]).is_empty());
    }
}
