//! Observatory export for the experiment harness: a per-experiment bundle
//! of (table, Prometheus dump, sim-time trace), a canonical text form the
//! golden-replay suite pins byte-for-byte, and the `BENCH_obs.json`
//! writer used by `exp all`.

use campuslab::obs::json_escape;
use std::io::Write;

/// Everything one observed experiment produced.
pub struct ObsBundle {
    /// Registry id, e.g. `"E14"`.
    pub id: &'static str,
    /// The rendered report table — exactly what `run()` returns.
    pub table: String,
    /// Prometheus text dump of every registry the run touched, with
    /// `# run:`-style comment headers between sections.
    pub prom: String,
    /// Sim-time span trace as JSON (one span per line).
    pub trace: String,
}

impl ObsBundle {
    /// The canonical replay form: table, dump and trace concatenated with
    /// fixed section markers. Golden files store exactly this string, so a
    /// byte anywhere — a stat, a metric sample, a span stamp — that drifts
    /// between sequential and parallel runs (or between commits) fails the
    /// replay test.
    pub fn canonical(&self) -> String {
        format!(
            "== table ==\n{}\n== prom ==\n{}== trace ==\n{}",
            self.table, self.prom, self.trace
        )
    }

    /// One JSON object for `BENCH_obs.json`. The trace is already JSON and
    /// embeds raw; the table is omitted (it lives in the text report).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"id\":\"{}\",\"prom\":\"{}\",\"spans\":{}}}",
            json_escape(self.id),
            json_escape(&self.prom),
            self.trace.trim_end()
        )
    }
}

/// Render the whole export file: a JSON array of bundle objects in
/// registry order.
pub fn render_obs_json(bundles: &[&ObsBundle]) -> String {
    let mut out = String::from("[\n");
    for (i, b) in bundles.iter().enumerate() {
        out.push_str(&b.to_json());
        out.push_str(if i + 1 < bundles.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

/// Write `BENCH_obs.json` (path overridable via `CAMPUSLAB_OBS_JSON`).
/// Returns the path written to.
pub fn write_obs_json(bundles: &[&ObsBundle]) -> std::io::Result<String> {
    let path = std::env::var("CAMPUSLAB_OBS_JSON").unwrap_or_else(|_| "BENCH_obs.json".into());
    let mut f = std::fs::File::create(&path)?;
    f.write_all(render_obs_json(bundles).as_bytes())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bundle() -> ObsBundle {
        ObsBundle {
            id: "EX",
            table: "t\n".into(),
            prom: "# run: demo\nm_total 1\n".into(),
            trace: "[\n  {\"seq\":0,\"name\":\"run\",\"start_ns\":0,\"end_ns\":5}\n]\n".into(),
        }
    }

    #[test]
    fn canonical_sections_are_ordered_and_stable() {
        let c = bundle().canonical();
        let t = c.find("== table ==").unwrap();
        let p = c.find("== prom ==").unwrap();
        let s = c.find("== trace ==").unwrap();
        assert!(t < p && p < s);
        assert_eq!(c, bundle().canonical());
    }

    #[test]
    fn obs_json_is_a_well_formed_array() {
        let b = bundle();
        let json = render_obs_json(&[&b, &b]);
        assert!(json.starts_with("[\n{\"id\":\"EX\""));
        assert_eq!(json.matches("\"spans\":[").count(), 2);
        assert!(json.trim_end().ends_with(']'));
        // The escaped prom round-trips through the vendored parser.
        let parsed = campuslab::obs::json_escape("m_total 1\n");
        assert!(json.contains(&parsed));
    }
}
