//! Plain-text rendering of tables and series, matching the rows the paper
//! reports so benchmark output can be compared against it side by side.

use crate::trace::SimResult;

/// Formats a markdown-style table from a header and rows.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title}\n\n"));
    out.push_str(&format!("| {} |\n", header.join(" | ")));
    out.push_str(&format!(
        "|{}|\n",
        header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    ));
    for row in rows {
        out.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    out.push('\n');
    out
}

/// Formats a two-column series (x, y) as aligned text for quick plotting.
pub fn render_series(title: &str, x_label: &str, y_label: &str, points: &[(f64, f64)]) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title}\n\n"));
    out.push_str(&format!("{x_label:>14}  {y_label:>14}\n"));
    for (x, y) in points {
        out.push_str(&format!("{x:>14.3}  {y:>14.3}\n"));
    }
    out.push('\n');
    out
}

/// One-line summary of a simulation result, used by several benches.
pub fn summarize(result: &SimResult) -> String {
    format!(
        "{:<10} energy={:>9.1} kJ  updates={:>4}  co-runs={:>3}  mean-lag={:>5.2}  Q={:>6.1}  H={:>8.1}  acc={}",
        result.policy.label(),
        result.total_energy_kj(),
        result.total_updates,
        result.corun_epochs,
        result.mean_lag,
        result.mean_queue,
        result.mean_virtual_queue,
        result
            .final_accuracy
            .map(|a| format!("{:.1}%", a * 100.0))
            .unwrap_or_else(|| "n/a".to_string()),
    )
}

/// Renders the energy-by-component breakdown of a result.
pub fn render_breakdown(result: &SimResult) -> String {
    let rows: Vec<Vec<String>> = result
        .energy_by_component
        .iter()
        .map(|(c, e)| vec![c.label().to_string(), format!("{:.1}", e / 1e3)])
        .collect();
    render_table(
        &format!("Energy breakdown — {}", result.policy.label()),
        &["component", "energy (kJ)"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_simulation;
    use fedco_core::experiment::SimConfig;
    use fedco_core::spec::PolicySpec;

    #[test]
    fn table_renders_all_rows() {
        let out = render_table(
            "Test",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        );
        assert!(out.contains("## Test"));
        assert!(out.contains("| a | b |"));
        assert!(out.contains("| 3 | 4 |"));
        assert_eq!(out.matches('\n').count(), 7);
    }

    #[test]
    fn series_renders_points() {
        let out = render_series("S", "x", "y", &[(1.0, 2.0), (3.0, 4.5)]);
        assert!(out.contains("## S"));
        assert!(out.contains("1.000"));
        assert!(out.contains("4.500"));
    }

    #[test]
    fn summary_and_breakdown_mention_policy() {
        let mut config = SimConfig::small(PolicySpec::Immediate);
        config.total_slots = 400;
        config.num_users = 3;
        let result = run_simulation(config);
        let s = summarize(&result);
        assert!(s.contains("Immediate"));
        assert!(s.contains("kJ"));
        let b = render_breakdown(&result);
        assert!(b.contains("Energy breakdown"));
        assert!(b.contains("training") || b.contains("idle"));
    }
}
