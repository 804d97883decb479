//! The Observatory bundle a testbed run carries out: every layer's metric
//! sink plus a run-level trace, all stamped in sim-time so sequential and
//! parallel executions render byte-identical dumps.

use campuslab_capture::CaptureObs;
use campuslab_control::{
    ControllerObs, DetectorObs, DriftObs, FastLoopStatsSnapshot, PlazaObs, RolloutObs,
};
use campuslab_datastore::StoreObs;
use campuslab_netsim::NetObs;
use campuslab_obs::{Kind, Metric, Tracer};
use campuslab_resolver::RsvObs;

/// Telemetry moved out of one testbed run (a [`crate::collect`] pass or a
/// [`crate::road_test`]). Layers that did not participate are `None` — a
/// switch-placement road test has no controller, a collection pass has no
/// filter bank.
#[derive(Debug, Clone)]
pub struct RunObs {
    /// Simulator-core telemetry: events, drops by reason, queue depths,
    /// delivery latency, chaos transitions.
    pub net: NetObs,
    /// Border-monitor conservation counters (collection runs).
    pub capture: Option<CaptureObs>,
    /// Window-detector telemetry (controller/cloud road tests).
    pub detector: Option<DetectorObs>,
    /// Mitigation-controller telemetry (controller/cloud road tests).
    pub controller: Option<ControllerObs>,
    /// Deployed-filter truth accounting, mirrored into metric form so the
    /// dump and the outcome summaries share one source.
    pub filter: Option<FastLoopStatsSnapshot>,
    /// Run-level stage spans (sim-time), with any controller episode spans
    /// merged in after the run's own.
    pub tracer: Tracer,
    /// Rollout-guard telemetry (guarded road tests only).
    pub rollout: Option<RolloutObs>,
    /// Resolver-service telemetry (ResolverLab runs only).
    pub resolver: Option<RsvObs>,
    /// DriftPilot telemetry (drift road tests only, experiment E17).
    pub drift: Option<DriftObs>,
    /// Plaza telemetry, scoped to this run's tenant (multi-tenant plaza
    /// runs only, experiment E18).
    pub plaza: Option<PlazaObs>,
}

impl RunObs {
    /// A bundle holding only simulator telemetry.
    pub fn net_only(net: NetObs) -> Self {
        RunObs {
            net,
            capture: None,
            detector: None,
            controller: None,
            filter: None,
            tracer: Tracer::new(),
            rollout: None,
            resolver: None,
            drift: None,
            plaza: None,
        }
    }

    /// Render every participating layer as one Prometheus text dump.
    ///
    /// Section order is fixed (net, capture, filter, detector, controller,
    /// rollout, resolver, drift, plaza) and each section renders its registry in
    /// registration order, so the whole dump is byte-deterministic for a
    /// given run. New sections append at the end, so dumps from runs that
    /// lack them are byte-for-byte what they always were — the
    /// `bundle_schema_is_append_only` test below pins that shape.
    pub fn prom(&self) -> String {
        let mut out = self.net.render();
        if let Some(c) = &self.capture {
            out.push_str(&c.render());
        }
        if let Some(f) = &self.filter {
            out.push_str(&FilterObs::of(f).render());
        }
        if let Some(d) = &self.detector {
            out.push_str(&d.render());
        }
        if let Some(c) = &self.controller {
            out.push_str(&c.render());
        }
        if let Some(r) = &self.rollout {
            out.push_str(&r.render());
        }
        if let Some(r) = &self.resolver {
            out.push_str(&r.render());
        }
        if let Some(d) = &self.drift {
            out.push_str(&d.render());
        }
        if let Some(p) = &self.plaza {
            out.push_str(&p.render());
        }
        out
    }

    /// Render the run trace as JSON (one span per line).
    pub fn trace_json(&self) -> String {
        self.tracer.render_json()
    }
}

campuslab_obs::schema! {
    /// Deployed-filter truth accounting ([`FastLoopStatsSnapshot`]) in
    /// metric form, so it appears in the same dump format as every other
    /// layer. Built per render from the snapshot, never bumped live.
    pub struct FilterObs {
        /// Packets crossing the deployed filter.
        counter packets: "flt_packets_total", "packets crossing the deployed filter";
        /// Attack packets the filter dropped.
        counter dropped_attack: "flt_dropped_packets_total" {truth = "attack"}, DROPPED_HELP;
        /// Benign packets the filter dropped.
        counter dropped_benign: "flt_dropped_packets_total" {truth = "benign"}, DROPPED_HELP;
        /// Attack packets that slipped past the filter.
        counter passed_attack: "flt_passed_attack_total",
            "attack packets that slipped past the filter";
    }
}

const DROPPED_HELP: &str = "filter drops by ground-truth class";

impl FilterObs {
    /// The snapshot's counts as a filled sink.
    pub fn of(snap: &FastLoopStatsSnapshot) -> Self {
        let mut obs = FilterObs::new();
        obs.sink.add(obs.packets, snap.packets);
        obs.sink.add(obs.dropped_attack, snap.dropped_attack);
        obs.sink.add(obs.dropped_benign, snap.dropped_benign);
        obs.sink.add(obs.passed_attack, snap.passed_attack);
        obs
    }
}

/// Evaluate `$body` once per Observatory table in the tree —
/// [`RunObs::prom`] section order, then the datastore's — with `$owner`
/// the struct's name, `$layer` the prefix its families carry and `$obs` a
/// fresh instance. The catalogue and the schema law test share this list,
/// so a table missing from one is missing from both.
macro_rules! for_each_table {
    (|$owner:ident, $layer:ident, $obs:ident| $body:expr) => {
        for_each_table!(@each $owner $layer $obs $body;
            NetObs "sim_", CaptureObs "cap_", FilterObs "flt_", DetectorObs "det_",
            ControllerObs "ctl_", RolloutObs "rollout_", RsvObs "rsv_", DriftObs "dp_",
            PlazaObs "plz_", StoreObs "ds_")
    };
    (@each $owner:ident $layer:ident $obs:ident $body:expr; $($ty:ident $prefix:literal),+) => {
        $({
            let ($owner, $layer, $obs) = (stringify!($ty), $prefix, <$ty>::new());
            $body;
        })+
    };
}

/// The metric catalogue (`METRICS.md` at the repo root), generated from
/// the schema tables: every registered metric with its owning struct,
/// kind, label, help and histogram bounds, in registration order.
/// `gen_golden` writes it; a bench test fails when the committed copy is
/// stale.
pub fn metric_catalogue() -> String {
    let mut out = String::from(
        "# Metrics\n\n\
         Every metric the Observatory registers, in registration (= render) order. Generated\n\
         from the `campuslab_obs::schema!` tables by `cargo run --release -p campuslab-bench\n\
         --bin gen_golden`; do not edit by hand. DESIGN.md §8 has the naming scheme and the\n\
         append-only rule.\n",
    );
    for_each_table!(|owner, layer, obs| catalogue_section(&mut out, owner, layer, obs.metrics()));
    out
}

fn catalogue_section<'a>(
    out: &mut String,
    owner: &str,
    layer: &str,
    rows: impl Iterator<Item = Metric<'a>>,
) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "\n## `{owner}` (`{layer}*`)\n\n\
         | family | kind | label | help | bounds |\n|---|---|---|---|---|\n"
    );
    for m in rows {
        let label = m.label.map(|l| format!("`{l}`")).unwrap_or_default();
        let bounds = match m.kind {
            Kind::Histogram => format!("{:?}", m.bounds),
            Kind::Counter | Kind::Gauge => String::new(),
        };
        let (family, kind, help) = (m.family, m.kind.as_str(), m.help);
        let _ = writeln!(out, "| `{family}` | {kind} | {label} | {help} | {bounds} |");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_section_renders_truth_split() {
        let snap = FastLoopStatsSnapshot {
            packets: 100,
            dropped: 41,
            dropped_attack: 40,
            dropped_benign: 1,
            passed_attack: 3,
            first_drop: None,
        };
        let text = FilterObs::of(&snap).render();
        assert!(text.contains("flt_packets_total 100"));
        assert!(text.contains("flt_dropped_packets_total{truth=\"attack\"} 40"));
        assert!(text.contains("flt_dropped_packets_total{truth=\"benign\"} 1"));
        assert!(text.contains("flt_passed_attack_total 3"));
    }

    /// The laws every `schema!` table obeys, checked over all ten at once:
    /// what `Registry::render` and the checked thaw rely on, and what keeps
    /// a combined dump unambiguous.
    #[test]
    fn schema_laws_hold_for_every_table() {
        struct Table {
            owner: &'static str,
            families: Vec<&'static str>,
            fresh: campuslab_obs::ObsSink,
            fits: Box<dyn Fn(&campuslab_obs::ObsSink) -> bool>,
        }
        let mut tables = Vec::new();
        for_each_table!(|owner, layer, obs| {
            let text = obs.render();
            let mut families: Vec<&'static str> = Vec::new();
            for m in obs.metrics() {
                assert!(
                    m.family.starts_with(layer),
                    "{owner}: {} lacks the {layer} prefix",
                    m.family
                );
                // A family is one contiguous run of rows (one HELP/TYPE header).
                if families.last() != Some(&m.family) {
                    assert!(!families.contains(&m.family), "{owner}: {} is split", m.family);
                    families.push(m.family);
                }
                // A fresh table renders every row, at zero.
                let zero = match (m.kind, m.label) {
                    (Kind::Histogram, _) => format!("{}_count 0\n", m.family),
                    (_, Some(label)) => format!("{}{{{label}}} 0\n", m.family),
                    (_, None) => format!("{} 0\n", m.family),
                };
                assert!(text.contains(&zero), "{owner}: fresh render lacks {zero:?}");
            }
            let fresh = obs.sink.clone();
            tables.push(Table { owner, families, fresh, fits: Box::new(move |s| obs.fits(s)) });
        });
        assert_eq!(tables.len(), 10);
        for (i, a) in tables.iter().enumerate() {
            for (j, b) in tables.iter().enumerate() {
                // A sink fits the table that minted it and no other.
                assert_eq!((a.fits)(&b.fresh), i == j, "{} sink into {}", b.owner, a.owner);
                if i != j {
                    let shared = a.families.iter().find(|f| b.families.contains(f));
                    assert_eq!(shared, None, "{} and {} share a family", a.owner, b.owner);
                }
            }
        }
        // The empty instance prefix is byte-identical to no prefix.
        assert_eq!(RolloutObs::new().render(), RolloutObs::with_prefix("").render());
        assert_eq!(DriftObs::new().render(), DriftObs::with_prefix("").render());
    }

    #[test]
    fn prom_concatenates_in_fixed_order() {
        let bundle = RunObs {
            capture: Some(CaptureObs::new()),
            detector: Some(DetectorObs::new()),
            controller: Some(ControllerObs::new()),
            resolver: Some(RsvObs::new()),
            drift: Some(DriftObs::new()),
            plaza: Some(PlazaObs::new()),
            ..RunObs::net_only(NetObs::new())
        };
        let text = bundle.prom();
        let pos = |needle: &str| text.find(needle).unwrap_or_else(|| panic!("missing {needle}"));
        assert!(pos("sim_events_total") < pos("cap_observed_packets_total"));
        assert!(pos("cap_observed_packets_total") < pos("det_observed_records_total"));
        assert!(pos("det_observed_records_total") < pos("ctl_episodes_total"));
        assert!(pos("ctl_episodes_total") < pos("rsv_queries_total"));
        assert!(pos("rsv_queries_total") < pos("dp_windows_total"));
        // The plaza section is the last addition, so dumps from runs
        // without a tenant grant are unchanged byte for byte.
        assert!(pos("dp_windows_total") < pos("plz_tenants_admitted_total"));
    }

    /// Golden-shape schema test: the bundle's section order is a frozen,
    /// append-only contract. Every golden replay keys on this order, so a
    /// refactor that reorders sections (or renames a sentinel family)
    /// must fail HERE with a readable diff, not as an opaque golden-bytes
    /// mismatch in the bench suite. Extending the bundle is legal only by
    /// appending to the END of this list.
    #[test]
    fn bundle_schema_is_append_only() {
        const SCHEMA: [(&str, &str); 9] = [
            ("net", "sim_events_total"),
            ("capture", "cap_observed_packets_total"),
            ("filter", "flt_packets_total"),
            ("detector", "det_observed_records_total"),
            ("controller", "ctl_episodes_total"),
            ("rollout", "rollout_submissions_total"),
            ("resolver", "rsv_queries_total"),
            ("drift", "dp_windows_total"),
            ("plaza", "plz_tenants_admitted_total"),
        ];
        let bundle = RunObs {
            capture: Some(CaptureObs::new()),
            detector: Some(DetectorObs::new()),
            controller: Some(ControllerObs::new()),
            filter: Some(FastLoopStatsSnapshot::default()),
            rollout: Some(RolloutObs::new()),
            resolver: Some(RsvObs::new()),
            drift: Some(DriftObs::new()),
            plaza: Some(PlazaObs::new()),
            ..RunObs::net_only(NetObs::new())
        };
        let text = bundle.prom();
        // Recover each section's observed position by its sentinel family
        // and compare the resulting order against the frozen schema.
        let mut observed: Vec<(usize, &str)> = SCHEMA
            .iter()
            .map(|&(section, family)| {
                let at = text
                    .find(&format!("# HELP {family}"))
                    .unwrap_or_else(|| panic!("bundle lost section {section} ({family})"));
                (at, section)
            })
            .collect();
        observed.sort();
        let order: Vec<&str> = observed.into_iter().map(|(_, s)| s).collect();
        let frozen: Vec<&str> = SCHEMA.iter().map(|&(s, _)| s).collect();
        assert_eq!(
            order, frozen,
            "bundle sections reordered — the prom dump schema is append-only"
        );
        // A partial bundle renders the same prefix order with sections
        // simply absent, never shuffled.
        let partial = RunObs {
            detector: Some(DetectorObs::new()),
            drift: Some(DriftObs::new()),
            ..RunObs::net_only(NetObs::new())
        };
        let ptext = partial.prom();
        let net_at = ptext.find("# HELP sim_events_total").expect("net section");
        let det_at = ptext.find("# HELP det_observed_records_total").expect("detector section");
        let drift_at = ptext.find("# HELP dp_windows_total").expect("drift section");
        assert!(net_at < det_at && det_at < drift_at);
        assert!(!ptext.contains("rsv_queries_total"));
    }
}
