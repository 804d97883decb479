//! Observatory schemas for the control plane, each one
//! [`campuslab_obs::schema!`] table with its logic-carrying bump methods
//! beside it: window-detector telemetry ([`DetectorObs`]),
//! mitigation-controller telemetry ([`ControllerObs`], including
//! per-episode spans traced in sim-time), rollout-guard telemetry
//! ([`RolloutObs`], including per-stage spans), drift-pilot telemetry
//! ([`DriftObs`]) and plaza admission telemetry ([`PlazaObs`]).

use campuslab_obs::{OpenSpan, Tracer};

/// Window-coverage histogram bounds, percent observed (≤10% .. ≤99%, +Inf
/// catches fully covered windows).
pub const COVERAGE_BOUNDS: [u64; 6] = [10, 25, 50, 75, 90, 99];

/// Time-to-mitigation histogram bounds, milliseconds.
pub const TTM_BOUNDS: [u64; 7] = [1, 5, 10, 50, 150, 500, 1_000];

campuslab_obs::schema! {
    /// Metrics for one [`crate::detector::StreamingWindowDetector`].
    pub struct DetectorObs {
        /// Records fed in.
        counter observed: "det_observed_records_total", "tap records fed to the detector";
        /// Windows closed (skipped ones included).
        counter windows_closed: "det_windows_closed_total",
            "tumbling windows closed and considered";
        /// Windows skipped under the coverage policy.
        counter windows_skipped: "det_windows_skipped_total",
            "windows skipped because telemetry coverage fell below policy";
        /// Detections emitted.
        counter detections: "det_detections_total", "detections emitted past the gate";
        /// The per-window coverage histogram (percent).
        histogram coverage_histogram: "det_window_coverage_pct",
            "per-closed-window telemetry coverage, percent", &COVERAGE_BOUNDS;
    }
}

impl DetectorObs {
    #[inline]
    pub(crate) fn on_observed(&mut self) {
        self.sink.inc(self.observed);
    }

    #[inline]
    pub(crate) fn on_window_closed(&mut self, coverage: f64, skipped: bool, detections: u64) {
        self.sink.inc(self.windows_closed);
        self.sink.observe(self.coverage_histogram, (coverage.clamp(0.0, 1.0) * 100.0) as u64);
        if skipped {
            self.sink.inc(self.windows_skipped);
        } else {
            self.sink.add(self.detections, detections);
        }
    }
}

campuslab_obs::schema! {
    /// Metrics + per-episode spans for one
    /// [`crate::controller::MitigationController`]. The tracer holds one
    /// `mitigate[victim]` span per episode: opened when a detection is
    /// accepted, closed at install or give-up.
    pub struct ControllerObs [tracer: Tracer] {
        /// Episodes started.
        counter episodes: "ctl_episodes_total", "detection-to-mitigation episodes started";
        /// Install attempts sent.
        counter attempts: "ctl_install_attempts_total",
            "rule-install attempts sent to the switch";
        /// Attempts that flaked.
        counter flakes: "ctl_install_flakes_total", "install attempts that flaked";
        /// Rules that landed.
        counter installs: "ctl_installs_total", "rules that landed in the filter bank";
        /// Episodes abandoned.
        counter giveups: "ctl_giveups_total", "episodes abandoned after retry budget/timeout";
        /// The time-to-mitigation histogram (milliseconds).
        histogram ttm_histogram: "ctl_time_to_mitigation_ms",
            "detection window end to rule active, milliseconds", &TTM_BOUNDS;
    }
}

impl ControllerObs {
    /// A detection was accepted; opens the episode span.
    #[inline]
    pub(crate) fn on_episode_start(&mut self, victim: &str, now_ns: u64) -> OpenSpan {
        self.sink.inc(self.episodes);
        self.tracer.open(format!("mitigate[{victim}]"), now_ns)
    }

    #[inline]
    pub(crate) fn on_attempt(&mut self, flaked: bool) {
        self.sink.inc(self.attempts);
        if flaked {
            self.sink.inc(self.flakes);
        }
    }

    /// The rule landed; closes the episode span and records TTM.
    #[inline]
    pub(crate) fn on_installed(&mut self, span: OpenSpan, detected_ns: u64, installed_ns: u64) {
        self.sink.inc(self.installs);
        self.sink.observe(self.ttm_histogram, installed_ns.saturating_sub(detected_ns) / 1_000_000);
        self.tracer.close(span, installed_ns);
    }

    /// The episode was abandoned; closes the span without a TTM sample.
    #[inline]
    pub(crate) fn on_giveup(&mut self, span: OpenSpan, gave_up_ns: u64) {
        self.sink.inc(self.giveups);
        self.tracer.close(span, gave_up_ns);
    }
}

/// Time-in-stage histogram bounds, milliseconds of sim time.
pub const STAGE_MS_BOUNDS: [u64; 6] = [500, 1_000, 2_000, 5_000, 10_000, 30_000];

campuslab_obs::schema! {
    /// Metrics + per-stage spans for one [`crate::rollout::RolloutGuard`].
    /// The prefix is empty for a single-operator run; per-tenant guards get
    /// `"<tenant>_"` so two live instances never collide in one dump. The
    /// tracer holds one `rollout[stage name@fp]` span per stage.
    pub struct RolloutObs [prefix: String] [tracer: Tracer] {
        /// Candidates submitted.
        counter submissions: "rollout_submissions_total",
            "candidate programs submitted to the guard";
        /// Submissions refused.
        counter rejected: "rollout_submissions_rejected_total",
            "submissions refused (guard busy or cooling down)";
        /// SLO windows evaluated.
        counter windows: "rollout_windows_total", "SLO windows evaluated";
        /// Windows with every gate green.
        counter windows_healthy: "rollout_windows_healthy_total",
            "SLO windows with every gate green";
        /// Windows with at least one gate red.
        counter windows_violated: "rollout_windows_violated_total",
            "SLO windows with at least one gate red";
        /// Windows with too little evidence to judge.
        counter windows_inconclusive: "rollout_windows_inconclusive_total",
            "SLO windows with too little evidence; streaks frozen";
        /// Stage promotions.
        counter promotions: "rollout_promotions_total",
            "stage promotions (shadow→canary, canary→full)";
        /// Shadow vetoes.
        counter vetoes: "rollout_vetoes_total", "candidates vetoed in shadow";
        /// Rollbacks of enforced candidates.
        counter rollbacks: "rollout_rollbacks_total",
            "enforced candidates rolled back to known-good";
        /// Candidates committed as known-good.
        counter commits: "rollout_commits_total", "candidates committed as the new known-good";
        /// Post-rollback recoveries confirmed.
        counter recoveries: "rollout_recoveries_total",
            "post-rollback windows confirming SLOs back at baseline";
        /// Controller give-ups the guard observed.
        counter giveups_observed: "rollout_giveups_observed_total",
            "controller install give-ups observed by the guard";
        /// Windows violating the false-positive-rate gate.
        counter viol_fp: "rollout_viol_fp_total", "windows violating the false-positive-rate gate";
        /// Windows violating the benign-drop-delta gate.
        counter viol_benign_drop: "rollout_viol_benign_drop_total",
            "windows violating the benign-drop-delta gate";
        /// Windows violating the capture-loss-delta gate.
        counter viol_capture_loss: "rollout_viol_capture_loss_total",
            "windows violating the capture-loss-delta gate";
        /// Windows violating the mitigation-latency budget.
        counter viol_latency: "rollout_viol_latency_total",
            "windows violating the mitigation-latency budget";
        /// Windows violated by an install give-up.
        counter viol_giveup: "rollout_viol_giveup_total",
            "windows violated by an install give-up (rollback-eligible failure)";
        /// Current stage gauge (0 idle, 1 shadow, 2 canary, 3 full).
        gauge stage: "rollout_stage", "current stage: 0 idle, 1 shadow, 2 canary, 3 full";
        /// Known-good registry depth.
        gauge registry_versions: "rollout_registry_versions",
            "programs in the known-good registry";
        /// The time-in-stage histogram (milliseconds).
        histogram stage_histogram: "rollout_stage_ms",
            "sim time spent in a stage before leaving it, milliseconds", &STAGE_MS_BOUNDS;
    }
}

impl RolloutObs {
    #[inline]
    pub(crate) fn on_submission(&mut self, accepted: bool) {
        self.sink.inc(self.submissions);
        if !accepted {
            self.sink.inc(self.rejected);
        }
    }

    /// A stage was entered; opens its span and moves the stage gauge.
    #[inline]
    pub(crate) fn on_stage_enter(&mut self, label: &str, code: i64, now_ns: u64) -> OpenSpan {
        self.sink.set(self.stage, code);
        let prefix = &self.prefix;
        self.tracer.open(format!("{prefix}rollout[{label}]"), now_ns)
    }

    /// A stage was left; closes its span and records time-in-stage.
    #[inline]
    pub(crate) fn on_stage_exit(&mut self, span: OpenSpan, entered_ns: u64, now_ns: u64) {
        self.sink.observe(self.stage_histogram, now_ns.saturating_sub(entered_ns) / 1_000_000);
        self.tracer.close(span, now_ns);
    }

    #[inline]
    pub(crate) fn set_stage(&mut self, code: i64) {
        self.sink.set(self.stage, code);
    }

    #[inline]
    pub(crate) fn on_window(&mut self, healthy: Option<bool>) {
        self.sink.inc(self.windows);
        match healthy {
            Some(true) => self.sink.inc(self.windows_healthy),
            Some(false) => self.sink.inc(self.windows_violated),
            None => self.sink.inc(self.windows_inconclusive),
        }
    }

    #[inline]
    pub(crate) fn on_violation(&mut self, v: crate::rollout::SloViolation) {
        use crate::rollout::SloViolation;
        let id = match v {
            SloViolation::FalsePositiveRate => self.viol_fp,
            SloViolation::BenignDropDelta => self.viol_benign_drop,
            SloViolation::CaptureLossDelta => self.viol_capture_loss,
            SloViolation::LatencyBudget => self.viol_latency,
            SloViolation::InstallGiveUp => self.viol_giveup,
        };
        self.sink.inc(id);
    }

    #[inline]
    pub(crate) fn on_promotion(&mut self) {
        self.sink.inc(self.promotions);
    }

    #[inline]
    pub(crate) fn on_veto(&mut self) {
        self.sink.inc(self.vetoes);
    }

    #[inline]
    pub(crate) fn on_rollback(&mut self) {
        self.sink.inc(self.rollbacks);
    }

    #[inline]
    pub(crate) fn on_commit(&mut self, registry_len: usize) {
        self.sink.inc(self.commits);
        self.sink.set(self.registry_versions, registry_len as i64);
    }

    #[inline]
    pub(crate) fn on_recovery(&mut self) {
        self.sink.inc(self.recoveries);
    }

    #[inline]
    pub(crate) fn on_giveup_observed(&mut self) {
        self.sink.inc(self.giveups_observed);
    }

    #[inline]
    pub(crate) fn set_registry_versions(&mut self, n: usize) {
        self.sink.set(self.registry_versions, n as i64);
    }
}

/// Drift-onset → SLOs-green histogram bounds, milliseconds of sim time.
/// Drift mitigation rides the full retrain→shadow→canary→full ladder, so
/// the interesting range sits well above the controller's TTM bounds.
pub const DRIFT_TTM_BOUNDS: [u64; 7] = [250, 500, 1_000, 2_000, 5_000, 10_000, 30_000];

campuslab_obs::schema! {
    /// Metrics + per-campaign spans for one [`crate::driftpilot::DriftPilot`].
    /// The prefix (`"<tenant>_"`) keeps per-tenant pilots disjoint in one
    /// dump. The tracer holds per-drift spans (`drift[#k]`, onset to SLOs
    /// green) and per-retrain spans (`retrain[#k]`).
    pub struct DriftObs [prefix: String] [tracer: Tracer] {
        /// Feature windows sealed and scored.
        counter windows: "dp_windows_total", "feature windows sealed and scored";
        /// Records streamed in.
        counter records: "dp_records_total", "tap records streamed into the training buffer";
        /// Retraining runs.
        counter retrains: "dp_retrains_total", "retraining runs over fresh windows";
        /// Retrains fired by the periodic schedule.
        counter retrains_periodic: "dp_retrains_periodic_total",
            "retrains fired by the periodic schedule";
        /// Retrains fired by the drift-score threshold.
        counter retrains_drift: "dp_retrains_drift_total",
            "retrains fired by the drift-score threshold";
        /// Candidates discarded by the resource-budget check.
        counter budget_rejected: "dp_budget_rejected_total",
            "candidates discarded because they blow the switch resource budget";
        /// Retrains that reproduced the deployed fingerprint.
        counter unchanged: "dp_unchanged_total",
            "retrains reproducing a deployed or already-judged fingerprint; not submitted";
        /// Candidates handed to the guard.
        counter submitted: "dp_candidates_submitted_total",
            "candidates handed to the rollout guard";
        /// Candidates the guard refused.
        counter guard_refused: "dp_candidates_refused_total",
            "candidates the guard refused (busy or cooling down); pilot resubmits later";
        /// Pilot candidates committed as known-good.
        counter committed: "dp_candidates_committed_total",
            "pilot candidates committed as known-good";
        /// Pilot candidates vetoed in shadow.
        counter vetoed: "dp_candidates_vetoed_total", "pilot candidates vetoed in shadow";
        /// Pilot candidates rolled back.
        counter rolled_back: "dp_candidates_rolled_back_total", "pilot candidates rolled back";
        /// Drift episodes opened.
        counter drift_onsets: "dp_drift_onsets_total",
            "drift episodes opened by the score threshold";
        /// Drift episodes closed green.
        counter drift_mitigated: "dp_drift_mitigated_total",
            "drift episodes closed with a committed candidate and SLOs green";
        /// Last window drift score, thousandths.
        gauge drift_score_milli: "dp_drift_score_milli", "last window drift score, thousandths";
        /// Records buffered toward the next retrain.
        gauge pending: "dp_pending_records", "records buffered toward the next retrain";
        /// The drift-onset → SLOs-green histogram (milliseconds).
        histogram drift_ttm_histogram: "dp_drift_ttm_ms",
            "drift onset to mitigated-with-SLOs-green, milliseconds of sim time",
            &DRIFT_TTM_BOUNDS;
    }
}

impl DriftObs {
    #[inline]
    pub(crate) fn on_record(&mut self) {
        self.sink.inc(self.records);
    }

    #[inline]
    pub(crate) fn on_window(&mut self, drift_score_milli: i64) {
        self.sink.inc(self.windows);
        self.sink.set(self.drift_score_milli, drift_score_milli);
    }

    #[inline]
    pub(crate) fn set_pending(&mut self, n: usize) {
        self.sink.set(self.pending, n as i64);
    }

    /// A retrain ran; `drift_triggered` says which schedule fired it.
    #[inline]
    pub(crate) fn on_retrain(&mut self, drift_triggered: bool) {
        self.sink.inc(self.retrains);
        if drift_triggered {
            self.sink.inc(self.retrains_drift);
        } else {
            self.sink.inc(self.retrains_periodic);
        }
    }

    #[inline]
    pub(crate) fn on_budget_rejected(&mut self) {
        self.sink.inc(self.budget_rejected);
    }

    #[inline]
    pub(crate) fn on_unchanged(&mut self) {
        self.sink.inc(self.unchanged);
    }

    #[inline]
    pub(crate) fn on_submitted(&mut self) {
        self.sink.inc(self.submitted);
    }

    #[inline]
    pub(crate) fn on_guard_refused(&mut self) {
        self.sink.inc(self.guard_refused);
    }

    #[inline]
    pub(crate) fn on_committed(&mut self) {
        self.sink.inc(self.committed);
    }

    #[inline]
    pub(crate) fn on_vetoed(&mut self) {
        self.sink.inc(self.vetoed);
    }

    #[inline]
    pub(crate) fn on_rolled_back(&mut self) {
        self.sink.inc(self.rolled_back);
    }

    /// A drift episode opened; returns its span.
    #[inline]
    pub(crate) fn on_drift_onset(&mut self, ordinal: u64, now_ns: u64) -> OpenSpan {
        self.sink.inc(self.drift_onsets);
        let prefix = &self.prefix;
        self.tracer.open(format!("{prefix}drift[#{ordinal}]"), now_ns)
    }

    /// A drift episode closed green; records the end-to-end TTM.
    #[inline]
    pub(crate) fn on_drift_mitigated(&mut self, span: OpenSpan, onset_ns: u64, green_ns: u64) {
        self.sink.inc(self.drift_mitigated);
        self.sink.observe(self.drift_ttm_histogram, green_ns.saturating_sub(onset_ns) / 1_000_000);
        self.tracer.close(span, green_ns);
    }
}

/// Per-completed-slice sim-event-count histogram bounds.
pub const SLICE_EVENT_BOUNDS: [u64; 6] = [1_000, 5_000, 20_000, 100_000, 500_000, 2_000_000];

campuslab_obs::schema! {
    /// Metrics for one plaza (multi-tenant experimentation service): tenant
    /// admission accounting plus slice-execution telemetry. Instantiated once
    /// per service and once per tenant (scoped to that tenant's own grant),
    /// the same way `RolloutObs` is instantiated per guard.
    pub struct PlazaObs {
        /// Tenants granted budget.
        counter admitted: "plz_tenants_admitted_total", "tenants granted dataplane budget";
        /// Tenants parked in the queue on arrival.
        counter queued: "plz_tenants_queued_total",
            "tenants parked in the FIFO admission queue on arrival";
        /// Tenants refused outright.
        counter rejected: "plz_tenants_rejected_total",
            "tenants refused outright (demand can never fit the switch)";
        /// Completed tenants whose budget was freed.
        counter released: "plz_tenants_released_total",
            "completed tenants whose budget was freed";
        /// Admission rounds executed.
        counter rounds: "plz_rounds_total", "admission rounds the scheduler executed";
        /// Tenant slices run to completion.
        counter slices: "plz_slices_total", "tenant slices run to completion";
        /// Stage slots currently granted.
        gauge slots_used: "plz_stage_slots_used", "dataplane stage slots currently granted";
        /// TCAM entries currently granted.
        gauge tcam_used: "plz_tcam_entries_used", "TCAM entries currently granted";
        /// Tenants currently holding a grant.
        gauge tenants_active: "plz_tenants_active", "tenants currently holding a grant";
        /// The per-slice event-count histogram.
        histogram slice_events_histogram: "plz_slice_events",
            "simulator events processed per completed tenant slice", &SLICE_EVENT_BOUNDS;
    }
}

impl PlazaObs {
    /// A tenant was granted budget.
    #[inline]
    pub fn on_admitted(&mut self) {
        self.sink.inc(self.admitted);
    }

    /// A tenant was parked in the admission queue.
    #[inline]
    pub fn on_queued(&mut self) {
        self.sink.inc(self.queued);
    }

    /// A tenant was refused outright.
    #[inline]
    pub fn on_rejected(&mut self) {
        self.sink.inc(self.rejected);
    }

    /// A completed tenant's budget was freed.
    #[inline]
    pub fn on_released(&mut self) {
        self.sink.inc(self.released);
    }

    /// The scheduler started an admission round.
    #[inline]
    pub fn on_round(&mut self) {
        self.sink.inc(self.rounds);
    }

    /// A tenant slice ran to completion, having processed `events`
    /// simulator events.
    #[inline]
    pub fn on_slice(&mut self, events: u64) {
        self.sink.inc(self.slices);
        self.sink.observe(self.slice_events_histogram, events);
    }

    /// Snapshot the budget gauges.
    #[inline]
    pub fn set_budget(&mut self, slots_used: usize, tcam_used: usize, tenants_active: usize) {
        self.sink.set(self.slots_used, slots_used as i64);
        self.sink.set(self.tcam_used, tcam_used as i64);
        self.sink.set(self.tenants_active, tenants_active as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn episode_lifecycle_is_traced_and_counted() {
        let mut obs = ControllerObs::new();
        let span = obs.on_episode_start("10.1.1.10", 1_000_000_000);
        obs.on_attempt(true);
        obs.on_attempt(false);
        obs.on_installed(span, 1_000_000_000, 1_010_000_000);
        let span2 = obs.on_episode_start("10.1.2.2", 2_000_000_000);
        obs.on_attempt(true);
        obs.on_giveup(span2, 2_500_000_000);
        assert_eq!(obs.episodes(), 2);
        assert_eq!(obs.attempts(), 3);
        assert_eq!(obs.flakes(), 2);
        assert_eq!(obs.installs(), 1);
        assert_eq!(obs.giveups(), 1);
        assert_eq!(obs.ttm_histogram().count(), 1);
        assert_eq!(obs.ttm_histogram().sum(), 10);
        let spans = obs.tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "mitigate[10.1.1.10]");
        assert_eq!(spans[0].end_ns, 1_010_000_000);
        assert_eq!(spans[1].end_ns, 2_500_000_000);
    }

    #[test]
    fn detector_window_accounting() {
        let mut obs = DetectorObs::new();
        obs.on_observed();
        obs.on_window_closed(1.0, false, 2);
        obs.on_window_closed(0.3, true, 0);
        assert_eq!(obs.windows_closed(), 2);
        assert_eq!(obs.windows_skipped(), 1);
        assert_eq!(obs.detections(), 2);
        let cov = obs.coverage_histogram();
        assert_eq!(cov.count(), 2);
        assert_eq!(cov.sum(), 130);
        assert!(obs.render().contains("det_window_coverage_pct_bucket{le=\"50\"} 1"));
    }

    #[test]
    fn rollout_lifecycle_accounting_and_render() {
        let mut obs = RolloutObs::new();
        obs.on_submission(true);
        obs.on_submission(false);
        let span = obs.on_stage_enter("shadow v2@00000001", 1, 1_000_000_000);
        obs.on_window(Some(true));
        obs.on_window(Some(false));
        obs.on_window(None);
        obs.on_violation(crate::rollout::SloViolation::FalsePositiveRate);
        obs.on_violation(crate::rollout::SloViolation::BenignDropDelta);
        obs.on_giveup_observed();
        obs.on_stage_exit(span, 1_000_000_000, 3_000_000_000);
        obs.on_promotion();
        obs.on_veto();
        obs.on_rollback();
        obs.on_recovery();
        obs.on_commit(2);
        assert_eq!(obs.submissions(), 2);
        assert_eq!(obs.rejected(), 1);
        assert_eq!(obs.windows(), 3);
        assert_eq!(obs.windows_healthy(), 1);
        assert_eq!(obs.windows_violated(), 1);
        assert_eq!(obs.windows_inconclusive(), 1);
        assert_eq!(obs.promotions(), 1);
        assert_eq!(obs.vetoes(), 1);
        assert_eq!(obs.rollbacks(), 1);
        assert_eq!(obs.recoveries(), 1);
        assert_eq!(obs.commits(), 1);
        assert_eq!(obs.giveups_observed(), 1);
        assert_eq!(obs.registry_versions(), 2);
        assert_eq!(obs.stage_histogram().count(), 1);
        assert_eq!(obs.stage_histogram().sum(), 2_000);
        let spans = obs.tracer.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "rollout[shadow v2@00000001]");
        let text = obs.render();
        assert!(text.contains("rollout_submissions_total 2"));
        assert!(text.contains("rollout_rollbacks_total 1"));
        assert!(text.contains("rollout_stage 1"));
    }

    #[test]
    fn two_prefixed_instances_stay_disjoint_and_coherent() {
        // The per-tenant fix: two live guard/pilot obs instances in one
        // dump must not collide on family or span names, and each must
        // keep exactly its own instance's counts.
        let mut a = RolloutObs::with_prefix("alpha_");
        let mut b = RolloutObs::with_prefix("bravo_");
        a.on_submission(true);
        a.on_veto();
        b.on_submission(true);
        b.on_submission(false);
        b.on_commit(1);
        let span = a.on_stage_enter("shadow v1@00000001", 1, 1_000_000_000);
        a.on_stage_exit(span, 1_000_000_000, 2_000_000_000);
        assert_eq!(a.submissions(), 1);
        assert_eq!(b.submissions(), 2);
        assert_eq!(a.vetoes(), 1);
        assert_eq!(b.vetoes(), 0);
        let (ra, rb) = (a.render(), b.render());
        assert!(ra.contains("alpha_rollout_submissions_total 1"));
        assert!(rb.contains("bravo_rollout_submissions_total 2"));
        assert!(!ra.contains("bravo_"));
        assert!(!rb.contains("alpha_"));
        // Family sets are fully disjoint across the two instances: a
        // combined dump never has one sample name fed by both guards.
        let names = |dump: &str| -> std::collections::BTreeSet<String> {
            dump.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| l.split(['{', ' ']).next().map(str::to_owned))
                .collect()
        };
        let (na, nb) = (names(&ra), names(&rb));
        assert!(na.is_disjoint(&nb), "sample names shared across instances");
        assert_eq!(a.tracer.spans()[0].name, "alpha_rollout[shadow v1@00000001]");

        let mut pa = DriftObs::with_prefix("alpha_");
        let mut pb = DriftObs::with_prefix("bravo_");
        pa.on_retrain(true);
        pb.on_retrain(false);
        let span = pa.on_drift_onset(1, 3_000_000_000);
        pa.on_drift_mitigated(span, 3_000_000_000, 4_000_000_000);
        assert_eq!(pa.retrains_drift(), 1);
        assert_eq!(pb.retrains_periodic(), 1);
        assert!(pa.render().contains("alpha_dp_retrains_total 1"));
        assert!(pb.render().contains("bravo_dp_retrains_total 1"));
        assert_eq!(pa.tracer.spans()[0].name, "alpha_drift[#1]");
    }

    #[test]
    fn plaza_admission_accounting_and_render() {
        let mut obs = PlazaObs::new();
        obs.on_admitted();
        obs.on_admitted();
        obs.on_queued();
        obs.on_rejected();
        obs.on_round();
        obs.on_slice(12_000);
        obs.on_slice(800);
        obs.on_released();
        obs.set_budget(10, 4_096, 2);
        assert_eq!(obs.admitted(), 2);
        assert_eq!(obs.queued(), 1);
        assert_eq!(obs.rejected(), 1);
        assert_eq!(obs.released(), 1);
        assert_eq!(obs.rounds(), 1);
        assert_eq!(obs.slices(), 2);
        assert_eq!(obs.slots_used(), 10);
        assert_eq!(obs.tcam_used(), 4_096);
        assert_eq!(obs.tenants_active(), 2);
        assert_eq!(obs.slice_events_histogram().count(), 2);
        let text = obs.render();
        assert!(text.contains("plz_tenants_admitted_total 2"));
        assert!(text.contains("plz_slice_events_bucket{le=\"1000\"} 1"));
        assert!(text.contains("plz_stage_slots_used 10"));
    }

    #[test]
    fn drift_lifecycle_accounting_and_render() {
        let mut obs = DriftObs::new();
        obs.on_record();
        obs.on_record();
        obs.on_window(420);
        obs.set_pending(2);
        obs.on_retrain(false);
        obs.on_retrain(true);
        obs.on_budget_rejected();
        obs.on_unchanged();
        obs.on_submitted();
        obs.on_guard_refused();
        obs.on_vetoed();
        obs.on_rolled_back();
        obs.on_committed();
        let span = obs.on_drift_onset(1, 2_000_000_000);
        obs.on_drift_mitigated(span, 2_000_000_000, 5_500_000_000);
        assert_eq!(obs.records(), 2);
        assert_eq!(obs.windows(), 1);
        assert_eq!(obs.retrains(), 2);
        assert_eq!(obs.retrains_periodic(), 1);
        assert_eq!(obs.retrains_drift(), 1);
        assert_eq!(obs.budget_rejected(), 1);
        assert_eq!(obs.unchanged(), 1);
        assert_eq!(obs.submitted(), 1);
        assert_eq!(obs.guard_refused(), 1);
        assert_eq!(obs.vetoed(), 1);
        assert_eq!(obs.rolled_back(), 1);
        assert_eq!(obs.committed(), 1);
        assert_eq!(obs.drift_onsets(), 1);
        assert_eq!(obs.drift_mitigated(), 1);
        assert_eq!(obs.drift_score_milli(), 420);
        assert_eq!(obs.drift_ttm_histogram().count(), 1);
        assert_eq!(obs.drift_ttm_histogram().sum(), 3_500);
        let spans = obs.tracer.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "drift[#1]");
        assert_eq!(spans[0].end_ns, 5_500_000_000);
        let text = obs.render();
        assert!(text.contains("dp_retrains_total 2"));
        assert!(text.contains("dp_drift_ttm_ms_bucket{le=\"5000\"} 1"));
        assert!(text.contains("dp_drift_score_milli 420"));
    }
}
