//! What one experiment produces: a bundle of (table, Prometheus dump,
//! sim-time trace), the canonical text form the golden-replay suite pins
//! byte-for-byte, and the JSON rendering `exp all` writes when given an
//! export path.

use campuslab::obs::json_escape;

/// Everything one experiment produced.
pub struct ObsBundle {
    /// The rendered report table — what `exp <id>` prints.
    pub table: String,
    /// Prometheus text dump of every registry the run touched, with
    /// `# run:`-style comment headers between sections; empty for an
    /// experiment that drives no instrumented layer.
    pub prom: String,
    /// Sim-time span trace as JSON (one span per line); empty likewise.
    pub trace: String,
}

impl ObsBundle {
    /// The bundle of an experiment with no telemetry: its table alone.
    pub fn table_only(table: String) -> Self {
        ObsBundle { table, prom: String::new(), trace: String::new() }
    }

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

    /// One JSON object of the export. The trace is already JSON and
    /// embeds raw; the table is omitted (it lives in the text report).
    pub fn to_json(&self, id: &str) -> String {
        format!(
            "{{\"id\":\"{}\",\"prom\":\"{}\",\"spans\":{}}}",
            json_escape(id),
            json_escape(&self.prom),
            self.trace.trim_end()
        )
    }
}

/// Render the export file: a JSON array with one `{id, prom, spans}`
/// object per experiment that produced telemetry, in report order.
pub fn render_obs_json<'a>(bundles: impl IntoIterator<Item = (&'a str, &'a ObsBundle)>) -> String {
    let objects: Vec<String> = bundles
        .into_iter()
        .filter(|(_, b)| !b.trace.is_empty())
        .map(|(id, b)| b.to_json(id))
        .collect();
    format!("[\n{}\n]\n", objects.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bundle() -> ObsBundle {
        ObsBundle {
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
        let bare = ObsBundle::table_only("t\n".into());
        let json = render_obs_json([("EX", &b), ("EY", &bare), ("EZ", &b)]);
        assert!(json.starts_with("[\n{\"id\":\"EX\""));
        assert!(!json.contains("EY"), "an experiment without telemetry is not exported");
        assert_eq!(json.matches("\"spans\":[").count(), 2);
        assert!(json.trim_end().ends_with(']'));
        // The escaped prom round-trips through the vendored parser.
        let parsed = campuslab::obs::json_escape("m_total 1\n");
        assert!(json.contains(&parsed));
    }
}
