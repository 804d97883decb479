//! Differentially-private aggregate release: the one data class the
//! governance matrix could ever justify releasing beyond the university is
//! aggregate statistics — and even those leak without noise. The Laplace
//! mechanism here makes `AggregateStats` releases (ε, 0)-DP, with a privacy
//! budget ledger the IT organization can audit. The ledger is also the
//! release's gate: it records a release only for a requester the
//! governance matrix ([`PolicyEngine::decide`]) allows aggregate statistics.

use crate::policy::{DataClass, PolicyEngine, Purpose, Role, Verdict};
use crate::speck::Speck64;

/// A seeded Laplace sampler over the SPECK PRF (no floating-point RNG state
/// to carry around; releases are reproducible given the key and a nonce).
#[derive(Debug, Clone)]
pub struct LaplaceMechanism {
    prf: Speck64,
    epsilon: f64,
}

/// One released, noised statistic.
#[derive(Debug, Clone)]
pub struct NoisedValue {
    pub name: String,
    pub value: f64,
    pub epsilon_spent: f64,
}

impl LaplaceMechanism {
    /// A mechanism with per-release budget `epsilon`.
    pub fn new(key: u128, epsilon: f64) -> Self {
        assert!(epsilon > 0.0, "epsilon must be positive");
        LaplaceMechanism { prf: Speck64::new(key ^ 0xD9D9_D9D9), epsilon }
    }

    /// Uniform in (0, 1) derived from the PRF and a nonce.
    fn uniform(&self, nonce: u64) -> f64 {
        let bits = self.prf.prf_u64(nonce);
        // 53 mantissa bits, strictly inside (0, 1).
        ((bits >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// One Laplace(0, sensitivity/epsilon) draw.
    fn laplace(&self, nonce: u64, sensitivity: f64) -> f64 {
        let u = self.uniform(nonce) - 0.5;
        let b = sensitivity / self.epsilon;
        -b * u.signum() * (1.0 - 2.0 * u.abs()).ln()
    }

    /// Release a count (sensitivity 1) with Laplace noise, clamped at zero.
    pub fn release_count(&self, name: &str, true_count: u64, nonce: u64) -> NoisedValue {
        let noised = (true_count as f64 + self.laplace(nonce, 1.0)).max(0.0);
        NoisedValue { name: name.to_string(), value: noised, epsilon_spent: self.epsilon }
    }
}

/// A privacy-budget ledger: composition is additive, and releases stop when
/// the budget is spent.
#[derive(Debug)]
pub struct BudgetLedger {
    total_epsilon: f64,
    spent: f64,
    releases: Vec<NoisedValue>,
}

/// Why a release was refused. The ledger is left untouched either way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReleaseRefused {
    /// The governance matrix denies this requester aggregate statistics.
    Denied { role: Role, purpose: Purpose },
    /// The release's ε is not a finite positive number. A negative ε would
    /// refund budget and a NaN would poison the ledger for good, and
    /// `NoisedValue`'s fields are public, so the ledger checks.
    InvalidEpsilon(f64),
    /// The remaining budget cannot cover the release.
    Exhausted { requested: f64, remaining: f64 },
}

impl std::fmt::Display for ReleaseRefused {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReleaseRefused::Denied { role, purpose } => {
                write!(f, "release denied: {role:?} for {purpose:?} may not receive aggregate statistics")
            }
            ReleaseRefused::InvalidEpsilon(eps) => {
                write!(f, "invalid release: eps={eps} is not a finite positive number")
            }
            ReleaseRefused::Exhausted { requested, remaining } => write!(
                f,
                "privacy budget exhausted: requested eps={requested}, remaining eps={remaining}"
            ),
        }
    }
}

impl std::error::Error for ReleaseRefused {}

impl BudgetLedger {
    /// A ledger with a total ε budget.
    pub fn new(total_epsilon: f64) -> Self {
        assert!(total_epsilon > 0.0);
        BudgetLedger { total_epsilon, spent: 0.0, releases: Vec::new() }
    }

    /// Remaining budget.
    pub fn remaining(&self) -> f64 {
        (self.total_epsilon - self.spent).max(0.0)
    }

    /// Record a release to `role` asking for `purpose`, debiting its ε.
    /// Refuses, in this order: a requester the governance matrix denies
    /// aggregate statistics, an ε that is not finite and positive, and any
    /// release once the budget is gone.
    pub fn record(&mut self, role: Role, purpose: Purpose, release: NoisedValue) -> Result<&NoisedValue, ReleaseRefused> {
        if PolicyEngine::decide(role, purpose, DataClass::AggregateStats) == Verdict::Deny {
            return Err(ReleaseRefused::Denied { role, purpose });
        }
        let eps = release.epsilon_spent;
        if !(eps.is_finite() && eps > 0.0) {
            return Err(ReleaseRefused::InvalidEpsilon(eps));
        }
        if eps > self.remaining() + 1e-12 {
            return Err(ReleaseRefused::Exhausted { requested: eps, remaining: self.remaining() });
        }
        self.spent += eps;
        self.releases.push(release);
        Ok(self.releases.last().expect("just pushed"))
    }

    /// Every release made so far.
    pub fn releases(&self) -> &[NoisedValue] {
        &self.releases
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A requester the matrix allows aggregate statistics.
    const RESEARCH: (Role, Purpose) = (Role::Researcher, Purpose::Research);

    fn record(ledger: &mut BudgetLedger, release: NoisedValue) -> Result<&NoisedValue, ReleaseRefused> {
        ledger.record(RESEARCH.0, RESEARCH.1, release)
    }

    #[test]
    fn noise_is_deterministic_per_key_and_nonce() {
        let m1 = LaplaceMechanism::new(42, 1.0);
        let m2 = LaplaceMechanism::new(42, 1.0);
        let m3 = LaplaceMechanism::new(43, 1.0);
        assert_eq!(m1.release_count("c", 100, 7).value, m2.release_count("c", 100, 7).value);
        assert_ne!(m1.release_count("c", 100, 7).value, m3.release_count("c", 100, 7).value);
        assert_ne!(m1.release_count("c", 100, 7).value, m1.release_count("c", 100, 8).value);
    }

    #[test]
    fn noise_scale_tracks_epsilon() {
        // Empirical mean absolute noise ~ sensitivity/epsilon.
        let spread = |eps: f64| {
            let m = LaplaceMechanism::new(1, eps);
            (0..2_000u64)
                .map(|n| (m.release_count("c", 1_000_000, n).value - 1_000_000.0).abs())
                .sum::<f64>()
                / 2_000.0
        };
        let tight = spread(10.0);
        let loose = spread(0.1);
        assert!(loose > 50.0 * tight, "loose {loose} vs tight {tight}");
        // Laplace(b) has E|X| = b = 1/eps.
        assert!((tight - 0.1).abs() < 0.05, "tight {tight}");
    }

    #[test]
    fn counts_are_nonnegative() {
        let m = LaplaceMechanism::new(5, 0.05);
        for n in 0..500 {
            assert!(m.release_count("c", 2, n).value >= 0.0);
        }
    }

    #[test]
    fn ledger_enforces_composition() {
        let m = LaplaceMechanism::new(9, 0.5);
        let mut ledger = BudgetLedger::new(1.0);
        assert!(record(&mut ledger, m.release_count("a", 10, 1)).is_ok());
        assert!(record(&mut ledger, m.release_count("b", 20, 2)).is_ok());
        let err = record(&mut ledger, m.release_count("c", 30, 3)).unwrap_err();
        assert!(matches!(err, ReleaseRefused::Exhausted { remaining, .. } if remaining < 1e-9));
        assert_eq!(ledger.releases().len(), 2);
        assert!(err.to_string().contains("exhausted"));
    }

    /// A negative ε used to be debited (refunding budget: 1.0 became 1.5
    /// remaining) and a NaN left `spent` NaN for good.
    #[test]
    fn ledger_refuses_an_epsilon_that_is_not_finite_and_positive() {
        let m = LaplaceMechanism::new(9, 0.25);
        let mut ledger = BudgetLedger::new(1.0);
        record(&mut ledger, m.release_count("a", 10, 1)).unwrap();
        for eps in [-0.5, 0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let forged = NoisedValue { epsilon_spent: eps, ..m.release_count("forged", 10, 2) };
            let err = record(&mut ledger, forged).unwrap_err();
            assert!(matches!(err, ReleaseRefused::InvalidEpsilon(e) if e.to_bits() == eps.to_bits()));
            assert!(err.to_string().contains("not a finite positive"), "{err}");
            assert_eq!(ledger.remaining(), 0.75, "eps={eps} moved the budget");
            assert_eq!(ledger.releases().len(), 1);
        }
        // The ledger still works: three more 0.25 releases fit, a fourth does not.
        for n in 3..6 {
            record(&mut ledger, m.release_count("b", 10, n)).unwrap();
        }
        assert!(matches!(
            record(&mut ledger, m.release_count("c", 10, 6)),
            Err(ReleaseRefused::Exhausted { .. })
        ));
    }

    /// A denied requester gets nothing and costs nothing: the refusal
    /// comes before any other check, the budget and the release list stay
    /// as they were, and every pair the matrix allows still records.
    #[test]
    fn ledger_refuses_a_requester_the_matrix_denies() {
        use Purpose::*;
        use Role::*;
        let m = LaplaceMechanism::new(9, 0.1);
        let mut ledger = BudgetLedger::new(1.0);
        let mut nonce = 0;
        for role in [ItOperator, Researcher, Auditor, External] {
            for purpose in [SecurityOperations, Research, Audit] {
                nonce += 1;
                let (spent, released) = (ledger.remaining(), ledger.releases().len());
                let verdict = PolicyEngine::decide(role, purpose, DataClass::AggregateStats);
                match ledger.record(role, purpose, m.release_count("c", 10, nonce)) {
                    Ok(_) => assert_eq!(verdict, Verdict::Allow, "{role:?}/{purpose:?}"),
                    Err(err) => {
                        assert_eq!(verdict, Verdict::Deny, "{role:?}/{purpose:?}");
                        assert_eq!(err, ReleaseRefused::Denied { role, purpose });
                        assert!(err.to_string().contains("denied"), "{err}");
                        assert_eq!((ledger.remaining(), ledger.releases().len()), (spent, released));
                    }
                }
            }
        }
        // IT operators under every purpose, researchers for research and
        // auditors for audit: five releases at 0.1 each.
        assert_eq!(ledger.releases().len(), 5);
        assert!((ledger.remaining() - 0.5).abs() < 1e-9);
        // Denial outranks the other refusals: a forged ε from an external
        // requester is refused as denied, not as invalid.
        let forged = NoisedValue { epsilon_spent: f64::NAN, ..m.release_count("forged", 10, 99) };
        assert!(matches!(
            ledger.record(External, Research, forged),
            Err(ReleaseRefused::Denied { role: External, purpose: Research })
        ));
    }
}
