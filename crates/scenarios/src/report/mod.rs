//! Text rendering for tables and figure series, in the paper's format.
//!
//! The shared primitives (summary tables, histograms, percentages) live
//! here; the per-artifact `render()` bodies — one per DESIGN §4 table and
//! figure — live in [`artifacts`].

pub mod artifacts;

use std::fmt::Write as _;

use crate::metrics::SummaryRow;

/// Formats a rate as a percentage with one decimal, like the paper.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Renders rows in the Table I/II/III layout.
///
/// ```
/// use ch_scenarios::report::render_summary_table;
/// use ch_scenarios::SummaryRow;
///
/// let row = SummaryRow {
///     label: "KARMA".into(),
///     total_clients: 614,
///     direct_clients: 85,
///     broadcast_clients: 529,
///     direct_connected: 24,
///     broadcast_connected: 0,
/// };
/// let table = render_summary_table(&[row]);
/// assert!(table.contains("KARMA"));
/// assert!(table.contains("3.9%"));
/// ```
pub fn render_summary_table(rows: &[SummaryRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| {:<28} | {:>12} | {:>16} | {:>28} | {:>6} | {:>6} |",
        "Attack", "Total probes", "Direct/Broadcast", "Clients connected", "h", "h_b"
    );
    let _ = writeln!(out, "|{}|", "-".repeat(116));
    for row in rows {
        let _ = writeln!(
            out,
            "| {:<28} | {:>12} | {:>16} | {:>28} | {:>6} | {:>6} |",
            row.label,
            row.total_clients,
            format!("{}/{}", row.direct_clients, row.broadcast_clients),
            format!(
                "{} (direct); {} (broadcast)",
                row.direct_connected, row.broadcast_connected
            ),
            pct(row.h()),
            pct(row.h_b()),
        );
    }
    out
}

/// Renders a histogram of counts bucketed by 40s (Fig. 2(b)): bucket label,
/// count, share, and a bar.
pub fn render_histogram(values: &[usize], bucket_width: usize) -> String {
    assert!(bucket_width > 0, "bucket width must be positive");
    if values.is_empty() {
        return String::from("(no samples)\n");
    }
    let max = values.iter().copied().max().unwrap_or(0);
    let buckets = max / bucket_width + 1;
    let mut counts = vec![0usize; buckets];
    for &v in values {
        counts[v / bucket_width] += 1;
    }
    let total: usize = values.len();
    let peak = counts.iter().copied().max().unwrap_or(1).max(1);
    let mut out = String::new();
    for (b, &count) in counts.iter().enumerate() {
        let share = count as f64 / total as f64;
        let bar = "#".repeat((count * 40).div_ceil(peak));
        let _ = writeln!(
            out,
            "{:>4}-{:<4} {:>7} {:>7}  {bar}",
            b * bucket_width,
            (b + 1) * bucket_width - 1,
            count,
            pct(share),
        );
    }
    out
}

/// Formats the Fig. 6 stacked-bar annotation "a : b" as a ratio string
/// normalized to `1 : x` (the paper writes e.g. "1:3.5").
pub fn ratio_label(minor: usize, major: usize) -> String {
    if minor == 0 {
        format!("0:{major}")
    } else {
        format!("1:{:.1}", major as f64 / minor as f64)
    }
}

/// Offsets hour-indexed timestamps for rendering (the campaign day starts
/// at 8am).
pub fn hour_label(start: ch_sim::SimTime) -> String {
    format!("{:02}:00", 8 + start.as_secs() / 3600)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> SummaryRow {
        SummaryRow {
            label: "MANA".into(),
            total_clients: 688,
            direct_clients: 103,
            broadcast_clients: 585,
            direct_connected: 27,
            broadcast_connected: 19,
        }
    }

    #[test]
    fn table_matches_paper_numbers() {
        // Table I's MANA row: h = 6.6%, h_b = 3.2% (paper rounds to 3%).
        let table = render_summary_table(&[row()]);
        assert!(table.contains("688"));
        assert!(table.contains("103/585"));
        assert!(table.contains("6.7%") || table.contains("6.6%"));
        assert!(table.contains("27 (direct); 19 (broadcast)"));
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(0.159), "15.9%");
        assert_eq!(pct(0.0), "0.0%");
        assert_eq!(pct(1.0), "100.0%");
    }

    #[test]
    fn histogram_shares_sum_to_one() {
        let values = vec![40, 40, 40, 80, 80, 120];
        let h = render_histogram(&values, 40);
        // 3 of 6 in the 40-bucket = 50 %.
        assert!(h.contains("50.0%"), "{h}");
        assert!(h.contains("  40-79"), "{h}");
    }

    #[test]
    fn histogram_empty() {
        assert_eq!(render_histogram(&[], 40), "(no samples)\n");
    }

    #[test]
    fn ratio_labels() {
        assert_eq!(ratio_label(69, 243), "1:3.5");
        assert_eq!(ratio_label(0, 7), "0:7");
        assert_eq!(ratio_label(10, 10), "1:1.0");
    }

    #[test]
    fn hour_label_formats() {
        assert_eq!(hour_label(ch_sim::SimTime::ZERO), "08:00");
        assert_eq!(hour_label(ch_sim::SimTime::from_hours(4)), "12:00");
    }
}
