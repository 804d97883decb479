//! **E16 — resolver under water torture** (the ResolverLab campaign;
//! ISSUE 7): the campus recursive resolver is a live service actor inside
//! the simulation — positive/negative caching on sim-time TTLs, per-client
//! rate limiting, serve-stale on upstream starvation — and this experiment
//! floods it with random-subdomain NXDOMAIN queries (every junk name
//! defeats the cache and burns an upstream slot) plus an ANY/TXT
//! amplification burst. Two runs fan out in parallel: **undefended**, the
//! resolver rides out the flood on its own RFC-shaped degradation ladder
//! (rate-limit → stale answers → typed ServFail give-ups, never a panic),
//! and its abandoned clients feed the rollout guard as rollback-eligible
//! service-failure evidence; **defended**, the ordinary development loop
//! (collect → train → distill) plus the mitigation controller detect the
//! flood at the border tap and install rules that shed it before the
//! upstream path saturates. Cache-hit collapse and recovery are read from
//! the resolver's per-second Observatory windows, and the whole bundle is
//! golden-pinned byte-for-byte under the sequential and parallel
//! executors.

use crate::obs_export::ObsBundle;
use crate::table::Table;
use campuslab::netsim::par::parallel_map;
use campuslab::obs::Tracer;
use campuslab::resolver::ResponseKind;
use campuslab::testbed::{resolver_run, ResolverRunConfig, ResolverRunOutcome, Scenario};
use campuslab::Platform;

/// The flood window of [`Scenario::resolver_lab`] in whole sim-seconds:
/// start 0.25 * 12 s, duration 0.5 * 12 s.
const FLOOD_SECS: std::ops::Range<u64> = 3..9;

/// Mean cache-hit rate over the windows inside `secs`.
fn hit_rate_over(outcome: &ResolverRunOutcome, secs: std::ops::Range<u64>) -> f64 {
    let picked: Vec<f64> = outcome
        .hit_rate_series()
        .into_iter()
        .filter(|(sec, _)| secs.contains(sec))
        .map(|(_, rate)| rate)
        .collect();
    if picked.is_empty() {
        return 0.0;
    }
    picked.iter().sum::<f64>() / picked.len() as f64
}

/// Run the experiment and return the full Observatory bundle.
pub fn run() -> ObsBundle {
    let mut out =
        String::from("E16: resolver under water torture (NXDOMAIN flood + amplification burst)\n\n");
    let scenario = Scenario::resolver_lab();
    let platform = Platform::new(scenario.clone());
    let data = platform.collect();
    let dev = platform.develop(&data);
    let model = platform.train_window_model(&data);

    // Undefended and defended runs are independent simulations, so they
    // fan out over the parallel runner with byte-identical results.
    let specs: [&str; 2] = ["undefended", "defended"];
    let results: Vec<(&str, ResolverRunOutcome)> = parallel_map(&specs, |_, &name| {
        let cfg = if name == "defended" {
            ResolverRunConfig {
                defense: Some((dev.program.clone(), Box::new(model.clone()))),
                ..ResolverRunConfig::default()
            }
        } else {
            ResolverRunConfig::default()
        };
        (name, resolver_run(&scenario, cfg))
    });

    let mut t = Table::new(&[
        "run",
        "queries",
        "rrl-drop",
        "upstream",
        "timeouts",
        "stale",
        "servfail",
        "give-ups",
        "hit pre/flood/post",
        "mitigations",
    ]);
    for (name, o) in &results {
        let rsv = o.obs.resolver.as_ref().expect("resolver runs carry resolver obs");
        t.row(vec![
            name.to_string(),
            rsv.queries().to_string(),
            rsv.rrl_dropped().to_string(),
            rsv.upstream_queries().to_string(),
            rsv.upstream_timeouts().to_string(),
            rsv.responses(ResponseKind::Stale).to_string(),
            rsv.responses(ResponseKind::ServFail).to_string(),
            o.giveups_surfaced.to_string(),
            format!(
                "{:.2}/{:.2}/{:.2}",
                hit_rate_over(o, 0..FLOOD_SECS.start),
                hit_rate_over(o, FLOOD_SECS),
                hit_rate_over(o, FLOOD_SECS.end..u64::MAX)
            ),
            o.mitigations.len().to_string(),
        ]);
    }
    out.push_str(&t.render());

    let undef = &results[0].1;
    let def = &results[1].1;
    let undef_rsv = undef.obs.resolver.as_ref().expect("resolver obs");
    let def_rsv = def.obs.resolver.as_ref().expect("resolver obs");

    let shed_by_rrl = undef_rsv.rrl_dropped() > 1_000;
    let degraded_never_died = undef_rsv.upstream_timeouts() > 0
        && undef_rsv.responses(ResponseKind::Stale) + undef_rsv.giveups() > 0
        && undef_rsv.responses_total() > 0;
    let undef_pre = hit_rate_over(undef, 0..FLOOD_SECS.start);
    let undef_flood = hit_rate_over(undef, FLOOD_SECS);
    let undef_post = hit_rate_over(undef, FLOOD_SECS.end..u64::MAX);
    let collapsed_and_recovered = undef_flood < undef_pre && undef_post > undef_flood;
    let giveups_are_evidence = undef.giveups_surfaced == undef_rsv.giveups()
        && undef
            .obs
            .rollout
            .as_ref()
            .is_some_and(|r| r.giveups_observed() == undef.giveups_surfaced);
    let flood_mitigated = !def.mitigations.is_empty()
        && def.mitigations[0].victim == std::net::IpAddr::V4(def.victim.expect("victim"));
    let defense_helped = def_rsv.upstream_timeouts() < undef_rsv.upstream_timeouts()
        && def_rsv.giveups() <= undef_rsv.giveups()
        && hit_rate_over(def, FLOOD_SECS) > undef_flood;

    let ttm = def
        .mitigations
        .first()
        .zip(def.attack_start)
        .map(|(m, start)| format!("{:.1}s", (m.installed_at - start).as_secs_f64()))
        .unwrap_or_else(|| "-".into());
    out.push_str(&format!(
        "\nundefended hit rate {undef_pre:.2} -> {undef_flood:.2} -> {undef_post:.2}; \
         defended flood-window hit rate {:.2}; time to mitigation {ttm}\n",
        hit_rate_over(def, FLOOD_SECS),
    ));
    out.push_str(&format!(
        "\nper-client rate limiting shed the flood bulk: {}\n\
         starved resolver degraded (stale/ServFail), never died: {}\n\
         cache-hit rate collapsed under flood and recovered after: {}\n\
         abandoned clients became rollout-guard rollback evidence: {}\n\
         controller detected the flood and mitigated the resolver: {}\n\
         defense beat the undefended run on every starvation axis: {}\n\
         \nshape check: the resolver is the paper's service-under-test - the\n\
         flood defeats its cache by construction, so survival is a ladder of\n\
         typed degradation (rate-limit, stale, ServFail) plus the ordinary\n\
         detect-and-mitigate loop at the border, and every abandoned client\n\
         is rollback evidence in the deployment guard, not a silent loss.\n",
        if shed_by_rrl { "yes" } else { "NO (bug)" },
        if degraded_never_died { "yes" } else { "NO (bug)" },
        if collapsed_and_recovered { "yes" } else { "NO (bug)" },
        if giveups_are_evidence { "yes" } else { "NO (bug)" },
        if flood_mitigated { "yes" } else { "NO (bug)" },
        if defense_helped { "yes" } else { "NO (bug)" },
    ));

    let mut prom = String::new();
    let mut tracer = Tracer::new();
    for (name, o) in &results {
        prom.push_str(&format!("# run: {name}\n{}", o.obs.prom()));
        tracer.merge_from(&o.obs.tracer);
    }
    ObsBundle { table: out, prom, trace: tracer.render_json() }
}
