//! Plain-text table formatting shared by the benches and examples.

/// Arithmetic mean of a slice (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Formats a table with a header row, aligning every column to its widest
/// cell. Intended for the bench harness output that mirrors the paper's
/// figures.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (width, cell) in widths.iter_mut().zip(row) {
            *width = (*width).max(cell.len());
        }
    }
    let render = |cells: &[String]| {
        let line: String = cells
            .iter()
            .zip(&widths)
            .map(|(cell, &width)| format!("{cell:<width$}  "))
            .collect();
        line.trim_end().to_string() + "\n"
    };
    let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * headers.len());
    let header: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let mut out = render(&header) + &rule + "\n";
    for row in rows {
        out += &render(row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_values() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn table_alignment() {
        let table = format_table(
            &["app", "reduction"],
            &[
                vec!["ammp".into(), "12.5".into()],
                vec!["compress".into(), "3.1".into()],
            ],
        );
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("app"));
        assert!(lines[2].starts_with("ammp"));
        assert!(lines[3].starts_with("compress"));
        // Columns align: "reduction" starts at the same offset in all rows.
        let offset = lines[0].find("reduction").unwrap();
        assert_eq!(lines[2].find("12.5").unwrap(), offset);
    }

    #[test]
    fn table_handles_wide_cells() {
        let table = format_table(&["x"], &[vec!["a-very-wide-cell".into()], vec!["b".into()]]);
        assert!(table.contains("a-very-wide-cell"));
    }
}
