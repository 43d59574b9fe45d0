//! `Metrics` snapshot and delta helper: scrapes the Prometheus text the
//! public `Metrics` command serves, before and after a timed window, so
//! every counter-derived per-layer metric comes from the program's own
//! counters with no program changes.

use crate::client::Conn;
use std::collections::BTreeMap;

/// One scrape: full series name (labels included) → value.
#[derive(Clone, Debug, Default)]
pub struct Snapshot(BTreeMap<String, f64>);

impl Snapshot {
    /// Parses Prometheus exposition text (comments skipped).
    pub fn parse(text: &str) -> Snapshot {
        let mut series = BTreeMap::new();
        for line in text.lines() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            if let Some((name, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    *series.entry(name.to_string()).or_insert(0.0) += v;
                }
            }
        }
        Snapshot(series)
    }

    /// Scrapes a node through its `Metrics` command.
    pub fn scrape(conn: &mut Conn) -> Result<Snapshot, String> {
        let lines = conn
            .call(r#"{"id":0,"deadline_ms":5000,"cmd":"Metrics"}"#)
            .map_err(|e| format!("Metrics scrape failed: {e}"))?;
        let response: rpwf_server::Response =
            serde_json::from_str(&lines[0]).map_err(|e| format!("Metrics reply: {e}"))?;
        let text = response
            .result
            .as_ref()
            .and_then(|v| v.as_str())
            .ok_or("Metrics answered without text")?;
        Ok(Snapshot::parse(text))
    }

    /// Sums snapshots series by series (a fleet-wide view of per-node
    /// scrapes).
    pub fn sum_of(snaps: &[Snapshot]) -> Snapshot {
        let mut out = BTreeMap::new();
        for snap in snaps {
            for (k, v) in &snap.0 {
                *out.entry(k.clone()).or_insert(0.0) += v;
            }
        }
        Snapshot(out)
    }

    /// `self − before`, series by series (counters over the window).
    pub fn delta(&self, before: &Snapshot) -> Snapshot {
        Snapshot(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - before.0.get(k).copied().unwrap_or(0.0)))
                .collect(),
        )
    }

    /// The sum over every series of metric `name`, whatever its labels.
    pub fn total(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|(k, _)| k.split('{').next() == Some(name))
            .map(|(_, v)| v)
            .sum()
    }

    /// The sum over the series of `name` whose labels contain `label`
    /// (e.g. `solver="bitmask-dp"`).
    pub fn labeled(&self, name: &str, label: &str) -> f64 {
        self.0
            .iter()
            .filter(|(k, _)| k.split('{').next() == Some(name) && k.contains(label))
            .map(|(_, v)| v)
            .sum()
    }

    /// The `q` quantile (bucket upper bound, µs) of histogram `name` from
    /// its cumulative `_bucket{le=…}` series; 0 when empty.
    pub fn histogram_quantile(&self, name: &str, q: f64) -> f64 {
        let prefix = format!("{name}_bucket{{le=\"");
        let mut buckets: Vec<(f64, f64)> = self
            .0
            .iter()
            .filter_map(|(k, v)| {
                let le = k.strip_prefix(&prefix)?.strip_suffix("\"}")?;
                let bound = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().ok()?
                };
                Some((bound, *v))
            })
            .collect();
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        let Some(&(_, count)) = buckets.last() else {
            return 0.0;
        };
        if count <= 0.0 {
            return 0.0;
        }
        let rank = (q * count).ceil().max(1.0);
        let finite_max = buckets
            .iter()
            .rev()
            .find(|(b, _)| b.is_finite())
            .map_or(0.0, |(b, _)| *b);
        buckets
            .iter()
            .find(|(_, cumulative)| *cumulative >= rank)
            .map_or(
                finite_max,
                |(b, _)| if b.is_finite() { *b } else { finite_max },
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_and_histogram_quantiles() {
        let before = Snapshot::parse("a_total{x=\"1\"} 2\nh_bucket{le=\"1\"} 0\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"+Inf\"} 1\n");
        let after = Snapshot::parse("# TYPE h histogram\na_total{x=\"1\"} 5\na_total{x=\"2\"} 1\nh_bucket{le=\"1\"} 90\nh_bucket{le=\"2\"} 100\nh_bucket{le=\"+Inf\"} 101\n");
        let d = after.delta(&before);
        assert_eq!(d.total("a_total"), 4.0);
        assert_eq!(d.labeled("a_total", "x=\"2\""), 1.0);
        assert_eq!(d.histogram_quantile("h", 0.5), 1.0);
        assert_eq!(d.histogram_quantile("h", 0.99), 2.0);
    }
}
