//! Table and series printers shared by the experiment binaries.

/// Prints an aligned ASCII table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let s: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("| {} |", s.join(" | "));
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        line(row);
    }
}

/// Downsamples a series to at most `n` points for printing (keeps shape).
pub fn downsample(series: &[(f64, f64)], n: usize) -> Vec<(f64, f64)> {
    if series.len() <= n || n == 0 {
        return series.to_vec();
    }
    let step = series.len() as f64 / n as f64;
    (0..n)
        .map(|i| series[(i as f64 * step) as usize])
        .collect()
}

/// Renders a compact ASCII sparkline of a series (for figure-shaped
/// output in the terminal).
pub fn sparkline(series: &[(f64, f64)], width: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let pts = downsample(series, width);
    if pts.is_empty() {
        return String::new();
    }
    let min = pts.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min);
    let max = pts.iter().map(|&(_, v)| v).fold(f64::NEG_INFINITY, f64::max);
    let span = (max - min).max(1e-12);
    pts.iter()
        .map(|&(_, v)| {
            let idx = (((v - min) / span) * 7.0).round() as usize;
            BARS[idx.min(7)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downsample_preserves_endpoints_shape() {
        let series: Vec<(f64, f64)> = (0..100).map(|i| (i as f64, i as f64)).collect();
        let d = downsample(&series, 10);
        assert_eq!(d.len(), 10);
        assert_eq!(d[0], (0.0, 0.0));
        assert!(d[9].0 >= 89.0);
        assert_eq!(downsample(&series[..5], 10).len(), 5);
    }

    #[test]
    fn sparkline_is_monotone_for_monotone_input() {
        let series: Vec<(f64, f64)> = (0..64).map(|i| (i as f64, i as f64)).collect();
        let s = sparkline(&series, 8);
        assert_eq!(s.chars().count(), 8);
        let levels: Vec<u32> = s.chars().map(|c| c as u32).collect();
        assert!(levels.windows(2).all(|w| w[0] <= w[1]));
    }
}
