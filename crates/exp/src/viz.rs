//! SVG rendering of topologies and charging tours.
//!
//! Pure string generation (no drawing dependencies): sensors as dots
//! colour-graded by maximum charging cycle, depots as squares, and each
//! charger's tour as a coloured closed polyline. Produces the kind of
//! deployment picture the paper's Fig. 1-style discussions reason about.

use perpetuum_core::network::Network;
use perpetuum_core::schedule::TourSet;

/// Charger tour colours (cycled when `q` exceeds the palette).
const TOUR_COLORS: [&str; 6] = ["#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"];

/// Renders the network and one tour set as a standalone SVG document.
///
/// `cycles` (one per sensor) drives the sensor dot shading: short-cycle
/// (hungry) sensors are dark, long-cycle ones light. `title` is printed in
/// the top-left corner.
pub fn render_tour_set_svg(
    network: &Network,
    cycles: &[f64],
    set: &TourSet,
    title: &str,
) -> String {
    assert_eq!(cycles.len(), network.n(), "one cycle per sensor");
    let n = network.n();

    // Bounding box over everything, with a margin.
    let all: Vec<_> = (0..n)
        .map(|i| network.sensor_pos(i))
        .chain((0..network.q()).map(|l| network.depot_pos(l)))
        .collect();
    let bb = perpetuum_geom::Aabb::containing(&all).unwrap_or(perpetuum_geom::Aabb::new(
        perpetuum_geom::Point2::ORIGIN,
        perpetuum_geom::Point2::new(1.0, 1.0),
    ));
    let margin = 0.05 * bb.width().max(bb.height()).max(1.0);
    let (x0, y0) = (bb.min.x - margin, bb.min.y - margin);
    let w = bb.width() + 2.0 * margin;
    let h = bb.height() + 2.0 * margin;

    let (tau_min, tau_max) =
        cycles.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &c| (lo.min(c), hi.max(c)));
    let shade = |tau: f64| -> u8 {
        // Dark (40) for τ_min, light (210) for τ_max.
        if tau_max <= tau_min {
            120
        } else {
            (40.0 + 170.0 * (tau - tau_min) / (tau_max - tau_min)) as u8
        }
    };

    let mut svg = String::new();
    svg.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" viewBox=\"{x0} {y0} {w} {h}\" \
         width=\"800\" height=\"800\">\n"
    ));
    svg.push_str(&format!(
        "<rect x=\"{x0}\" y=\"{y0}\" width=\"{w}\" height=\"{h}\" fill=\"#fcfcf8\"/>\n"
    ));

    // Tours (drawn first, under the nodes).
    for (l, tour) in set.tours().iter().enumerate() {
        if tour.len() < 2 {
            continue;
        }
        let color = TOUR_COLORS[l % TOUR_COLORS.len()];
        let mut path = String::new();
        for (i, &node) in tour.nodes().iter().enumerate() {
            let p = if node < n { network.sensor_pos(node) } else { network.depot_pos(node - n) };
            path.push_str(&format!("{}{:.1},{:.1} ", if i == 0 { "M" } else { "L" }, p.x, p.y));
        }
        path.push('Z');
        svg.push_str(&format!(
            "<path d=\"{path}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"{:.2}\" \
             stroke-opacity=\"0.8\"/>\n",
            w / 400.0
        ));
    }

    // Sensors.
    for (i, &cycle) in cycles.iter().enumerate() {
        let p = network.sensor_pos(i);
        let g = shade(cycle);
        let covered = set.contains_sensor(network.sensor_node(i));
        svg.push_str(&format!(
            "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"{:.2}\" fill=\"rgb({g},{g},{g})\" \
             stroke=\"{}\" stroke-width=\"{:.2}\"/>\n",
            p.x,
            p.y,
            w / 180.0,
            if covered { "#000000" } else { "none" },
            w / 900.0,
        ));
    }

    // Depots.
    for l in 0..network.q() {
        let p = network.depot_pos(l);
        let s = w / 70.0;
        let color = TOUR_COLORS[l % TOUR_COLORS.len()];
        svg.push_str(&format!(
            "<rect x=\"{:.1}\" y=\"{:.1}\" width=\"{s:.1}\" height=\"{s:.1}\" \
             fill=\"{color}\" stroke=\"#222\" stroke-width=\"{:.2}\"/>\n",
            p.x - s / 2.0,
            p.y - s / 2.0,
            w / 900.0,
        ));
    }

    svg.push_str(&format!(
        "<text x=\"{:.1}\" y=\"{:.1}\" font-family=\"monospace\" font-size=\"{:.1}\">{}</text>\n",
        x0 + margin * 0.4,
        y0 + margin * 0.8,
        w / 45.0,
        xml_escape(title),
    ));
    svg.push_str("</svg>\n");
    svg
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use perpetuum_core::qtsp::q_rooted_tsp_src;
    use perpetuum_core::schedule::TourSet;
    use perpetuum_geom::Point2;

    fn setup() -> (Network, Vec<f64>, TourSet) {
        let sensors =
            vec![Point2::new(100.0, 100.0), Point2::new(900.0, 100.0), Point2::new(500.0, 900.0)];
        let depots = vec![Point2::new(500.0, 500.0), Point2::new(0.0, 0.0)];
        let network = Network::new(sensors, depots);
        let qt = q_rooted_tsp_src(&network.dist_source(), &[0, 1, 2], &network.depot_nodes());
        let set = TourSet::from_qtours(qt, |v| v >= 3);
        (network, vec![1.0, 10.0, 50.0], set)
    }

    #[test]
    fn svg_is_well_formed_and_complete() {
        let (network, cycles, set) = setup();
        let svg = render_tour_set_svg(&network, &cycles, &set, "test <render>");
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        // 3 sensors, 2 depots, at least one tour path.
        assert_eq!(svg.matches("<circle").count(), 3);
        assert_eq!(svg.matches("<rect").count(), 3); // background + 2 depots
        assert!(svg.matches("<path").count() >= 1);
        // Title is XML-escaped.
        assert!(svg.contains("test &lt;render&gt;"));
        assert!(!svg.contains("test <render>"));
    }

    #[test]
    fn covered_sensors_are_outlined() {
        let (network, cycles, set) = setup();
        let svg = render_tour_set_svg(&network, &cycles, &set, "t");
        // All three sensors are covered → all circles get a black outline.
        assert_eq!(svg.matches("stroke=\"#000000\"").count(), 3);
    }

    #[test]
    fn idle_charger_tours_are_skipped() {
        let (network, cycles, _) = setup();
        // Tour set covering nothing: only singleton tours.
        let qt = q_rooted_tsp_src(&network.dist_source(), &[], &network.depot_nodes());
        let set = TourSet::from_qtours(qt, |v| v >= 3);
        let svg = render_tour_set_svg(&network, &cycles, &set, "idle");
        assert_eq!(svg.matches("<path").count(), 0);
    }

    #[test]
    #[should_panic(expected = "one cycle per sensor")]
    fn cycle_count_checked() {
        let (network, _, set) = setup();
        render_tour_set_svg(&network, &[1.0], &set, "bad");
    }
}
