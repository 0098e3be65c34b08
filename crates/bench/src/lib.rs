//! # uavail-bench
//!
//! Reproduction harness for the DSN 2003 travel-agency paper: the
//! `reproduce` binary regenerates every table and figure and writes the
//! `--bench-json` timing ledger, and `bench-diff` compares two ledgers.
//!
//! ```text
//! cargo run -p uavail-bench --bin reproduce            # everything
//! cargo run -p uavail-bench --bin reproduce table8     # one artifact
//! cargo run -p uavail-bench --bin reproduce fig12 --csv
//! cargo run -p uavail-bench --bin reproduce -- --bench-json bench.jsonl
//! ```

use uavail_travel::report::Table;

pub mod diff;

/// Renders a table as ASCII or CSV depending on the flag.
pub fn render(table: &Table, csv: bool) -> String {
    if csv {
        table.to_csv()
    } else {
        table.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_modes() {
        let mut t = Table::new("x", vec!["a"]);
        t.add_row(vec!["1".into()]);
        assert!(render(&t, false).contains("== x =="));
        assert!(render(&t, true).starts_with("a\n"));
    }
}
