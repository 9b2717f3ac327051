//! Clarke–Wright savings tour construction.
//!
//! The classic vehicle-routing constructor (Clarke & Wright, 1964): start
//! with one out-and-back route per customer and repeatedly merge the route
//! pair with the largest *saving* `s(i,j) = d(0,i) + d(0,j) − d(i,j)`
//! (joining endpoints `i`, `j` of distinct routes). In a metric space all
//! savings are non-negative, so the process ends in a single depot-rooted
//! tour — a genuinely different construction from tree doubling or
//! matching, and the routing ablation's third arm.

use perpetuum_graph::{Metric, Tour};

/// Builds a closed tour from `depot` over `customers` (host-graph node
/// ids, not containing the depot) by Clarke–Wright savings merging.
pub fn savings_tour<M: Metric>(dist: &M, depot: usize, customers: &[usize]) -> Tour {
    let m = customers.len();
    match m {
        0 => return Tour::singleton(depot),
        1 => return Tour::new(vec![depot, customers[0]]),
        _ => {}
    }

    // Savings for every customer pair, sorted descending.
    let mut savings: Vec<(f64, usize, usize)> = Vec::with_capacity(m * (m - 1) / 2);
    for a in 0..m {
        for b in (a + 1)..m {
            let s = dist.get(depot, customers[a]) + dist.get(depot, customers[b])
                - dist.get(customers[a], customers[b]);
            savings.push((s, a, b));
        }
    }
    savings.sort_by(|x, y| y.0.partial_cmp(&x.0).expect("distances are not NaN"));

    // Route bookkeeping: each customer starts alone. route_of[c] = route id;
    // routes[id] = deque-ish Vec of customer indices; endpoints merge.
    let mut route_of: Vec<usize> = (0..m).collect();
    let mut routes: Vec<Option<Vec<usize>>> = (0..m).map(|c| Some(vec![c])).collect();

    let is_endpoint = |routes: &Vec<Option<Vec<usize>>>, rid: usize, c: usize| {
        let r = routes[rid].as_ref().expect("live route");
        r[0] == c || r[r.len() - 1] == c
    };

    for (s, a, b) in savings {
        if s <= 0.0 {
            break; // metric ⇒ the rest are zero too; concatenation handles them
        }
        let (ra, rb) = (route_of[a], route_of[b]);
        if ra == rb || !is_endpoint(&routes, ra, a) || !is_endpoint(&routes, rb, b) {
            continue;
        }
        // Orient both routes so `a` is the tail of ra and `b` the head of rb.
        let mut left = routes[ra].take().expect("live route");
        let mut right = routes[rb].take().expect("live route");
        if left[0] == a {
            left.reverse();
        }
        if right[right.len() - 1] == b {
            right.reverse();
        }
        debug_assert_eq!(left.last(), Some(&a));
        debug_assert_eq!(right[0], b);
        for &c in &right {
            route_of[c] = ra;
        }
        left.extend_from_slice(&right);
        routes[ra] = Some(left);
    }

    // Concatenate any remaining routes through the depot (triangle
    // inequality: shortcutting intermediate depot visits never lengthens).
    let mut order = Vec::with_capacity(m + 1);
    order.push(depot);
    for r in routes.into_iter().flatten() {
        for c in r {
            order.push(customers[c]);
        }
    }
    Tour::new(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use perpetuum_geom::Point2;
    use perpetuum_graph::tsp_exact::held_karp;
    use perpetuum_graph::DistMatrix;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<Point2> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
            .collect()
    }

    #[test]
    fn trivial_sizes() {
        let d = DistMatrix::from_points(&random_points(3, 0));
        assert_eq!(savings_tour(&d, 0, &[]).nodes(), &[0]);
        assert_eq!(savings_tour(&d, 0, &[2]).nodes(), &[0, 2]);
    }

    #[test]
    fn covers_every_customer_once() {
        for seed in 0..6u64 {
            let d = DistMatrix::from_points(&random_points(25, seed));
            let customers: Vec<usize> = (1..25).collect();
            let t = savings_tour(&d, 0, &customers);
            assert_eq!(t.start(), Some(0));
            let mut nodes: Vec<usize> = t.nodes().to_vec();
            nodes.sort_unstable();
            assert_eq!(nodes, (0..25).collect::<Vec<_>>());
        }
    }

    #[test]
    fn good_on_small_instances() {
        // Savings is a strong constructor: typically within ~15% of optimal
        // on random Euclidean instances; allow 30% slack for robustness.
        for seed in 0..6u64 {
            let d = DistMatrix::from_points(&random_points(10, seed + 50));
            let customers: Vec<usize> = (1..10).collect();
            let t = savings_tour(&d, 0, &customers);
            let (_, opt) = held_karp(&d);
            let len = t.length(&d);
            assert!(len <= 1.3 * opt + 1e-9, "seed {seed}: savings {len} vs opt {opt}");
        }
    }

    #[test]
    fn line_instance_is_optimal() {
        // Depot at the centre of a line of customers: the optimal tour
        // sweeps left then right (or vice versa); savings finds it.
        let pts = vec![
            Point2::new(0.0, 0.0), // depot
            Point2::new(-30.0, 0.0),
            Point2::new(-10.0, 0.0),
            Point2::new(10.0, 0.0),
            Point2::new(20.0, 0.0),
        ];
        let d = DistMatrix::from_points(&pts);
        let t = savings_tour(&d, 0, &[1, 2, 3, 4]);
        assert!((t.length(&d) - 100.0).abs() < 1e-9, "{:?}", t.nodes());
    }

    #[test]
    fn beats_naive_star_by_construction() {
        for seed in 10..14u64 {
            let d = DistMatrix::from_points(&random_points(20, seed));
            let customers: Vec<usize> = (1..20).collect();
            let t = savings_tour(&d, 0, &customers);
            let star: f64 = customers.iter().map(|&c| 2.0 * d.get(0, c)).sum();
            assert!(t.length(&d) <= star + 1e-9);
        }
    }
}
