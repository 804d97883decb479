//! Differentially-private aggregate release: the one data class the
//! governance matrix could ever justify releasing beyond the university is
//! aggregate statistics — and even those leak without noise. The Laplace
//! mechanism here makes `AggregateStats` releases (ε, 0)-DP, with a privacy
//! budget ledger the IT organization can audit. The ledger is the only
//! way a noised value is made: it draws one only for a requester the
//! governance matrix ([`PolicyEngine::decide`]) allows aggregate
//! statistics, and only while the budget lasts.

use crate::policy::{DataClass, PolicyEngine, Purpose, Role, Verdict};
use crate::speck::Speck64;

/// One released, noised statistic.
#[derive(Debug, Clone)]
pub struct NoisedValue {
    pub name: String,
    pub value: f64,
    pub epsilon_spent: f64,
}

/// A privacy-budget ledger and the one door aggregates leave by: it asks
/// the governance matrix, draws Laplace noise from a seeded sampler over
/// the SPECK PRF (no floating-point RNG state to carry around; releases
/// are reproducible given the key and a nonce) and debits the budget.
/// Composition is additive, and releases stop when the budget is spent.
#[derive(Debug)]
pub struct BudgetLedger {
    prf: Speck64,
    /// ε debited per release.
    epsilon: f64,
    total_epsilon: f64,
    spent: f64,
    releases: Vec<NoisedValue>,
}

/// Why a release was refused. The ledger is left untouched either way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReleaseRefused {
    /// The governance matrix denies this requester aggregate statistics.
    Denied { role: Role, purpose: Purpose },
    /// The remaining budget cannot cover the release.
    Exhausted { requested: f64, remaining: f64 },
}

impl std::fmt::Display for ReleaseRefused {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReleaseRefused::Denied { role, purpose } => {
                write!(f, "release denied: {role:?} for {purpose:?} may not receive aggregate statistics")
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
    /// A ledger releasing at `epsilon` each, out of `total_epsilon`, with
    /// noise keyed by `key`. `None` unless both are finite and positive:
    /// an infinite ε would release the count with no noise, a negative one
    /// would refund budget and a NaN would poison the ledger for good.
    pub fn new(key: u128, epsilon: f64, total_epsilon: f64) -> Option<Self> {
        let valid = |eps: f64| eps.is_finite() && eps > 0.0;
        (valid(epsilon) && valid(total_epsilon)).then(|| BudgetLedger {
            prf: Speck64::new(key ^ 0xD9D9_D9D9),
            epsilon,
            total_epsilon,
            spent: 0.0,
            releases: Vec::new(),
        })
    }

    /// Remaining budget.
    pub fn remaining(&self) -> f64 {
        (self.total_epsilon - self.spent).max(0.0)
    }

    /// Release `count` (sensitivity 1) under `name` to `role` asking for
    /// `purpose`: Laplace noise drawn at `nonce`, clamped at zero, and ε
    /// debited. Refuses, in this order and before any noise is drawn, a
    /// requester the governance matrix denies aggregate statistics and
    /// any release once the budget is gone.
    pub fn release(
        &mut self,
        role: Role,
        purpose: Purpose,
        name: &str,
        count: u64,
        nonce: u64,
    ) -> Result<&NoisedValue, ReleaseRefused> {
        if PolicyEngine::decide(role, purpose, DataClass::AggregateStats) == Verdict::Deny {
            return Err(ReleaseRefused::Denied { role, purpose });
        }
        if self.epsilon > self.remaining() + 1e-12 {
            return Err(ReleaseRefused::Exhausted { requested: self.epsilon, remaining: self.remaining() });
        }
        let value = self.noised(count, nonce);
        self.spent += self.epsilon;
        self.releases.push(NoisedValue { name: name.to_string(), value, epsilon_spent: self.epsilon });
        Ok(self.releases.last().expect("just pushed"))
    }

    /// `count` plus one Laplace(0, 1/ε) draw at `nonce`, clamped at zero.
    fn noised(&self, count: u64, nonce: u64) -> f64 {
        // Uniform strictly inside (0, 1) from 53 mantissa bits, centred.
        let u = ((self.prf.prf_u64(nonce) >> 11) as f64 + 0.5) / (1u64 << 53) as f64 - 0.5;
        let b = 1.0 / self.epsilon;
        (count as f64 - b * u.signum() * (1.0 - 2.0 * u.abs()).ln()).max(0.0)
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

    fn ledger(key: u128, epsilon: f64, total: f64) -> BudgetLedger {
        BudgetLedger::new(key, epsilon, total).expect("finite positive epsilons")
    }

    fn release<'a>(ledger: &'a mut BudgetLedger, name: &str, count: u64, nonce: u64) -> Result<&'a NoisedValue, ReleaseRefused> {
        ledger.release(RESEARCH.0, RESEARCH.1, name, count, nonce)
    }

    #[test]
    fn noise_is_deterministic_per_key_and_nonce() {
        let (l1, l2, l3) = (ledger(42, 1.0, 1.0), ledger(42, 1.0, 1.0), ledger(43, 1.0, 1.0));
        assert_eq!(l1.noised(100, 7), l2.noised(100, 7));
        assert_ne!(l1.noised(100, 7), l3.noised(100, 7));
        assert_ne!(l1.noised(100, 7), l1.noised(100, 8));
        // A release is the same draw.
        let mut l4 = ledger(42, 1.0, 1.0);
        assert_eq!(release(&mut l4, "c", 100, 7).unwrap().value, l1.noised(100, 7));
    }

    #[test]
    fn noise_scale_tracks_epsilon() {
        // Empirical mean absolute noise ~ sensitivity/epsilon.
        let spread = |eps: f64| {
            let l = ledger(1, eps, 1.0);
            (0..2_000u64).map(|n| (l.noised(1_000_000, n) - 1_000_000.0).abs()).sum::<f64>() / 2_000.0
        };
        let tight = spread(10.0);
        let loose = spread(0.1);
        assert!(loose > 50.0 * tight, "loose {loose} vs tight {tight}");
        // Laplace(b) has E|X| = b = 1/eps.
        assert!((tight - 0.1).abs() < 0.05, "tight {tight}");
    }

    #[test]
    fn counts_are_nonnegative() {
        let l = ledger(5, 0.05, 1.0);
        for n in 0..500 {
            assert!(l.noised(2, n) >= 0.0);
        }
    }

    #[test]
    fn ledger_enforces_composition() {
        let mut l = ledger(9, 0.5, 1.0);
        assert!(release(&mut l, "a", 10, 1).is_ok());
        assert!(release(&mut l, "b", 20, 2).is_ok());
        let err = release(&mut l, "c", 30, 3).unwrap_err();
        assert!(matches!(err, ReleaseRefused::Exhausted { remaining, .. } if remaining < 1e-9));
        assert_eq!(l.releases().len(), 2);
        assert!(err.to_string().contains("exhausted"));
    }

    /// Construction refuses an ε that is not finite and positive, per
    /// release or in total: ∞ would release with no noise, a negative ε
    /// would refund budget and a NaN would leave `spent` NaN for good.
    #[test]
    fn construction_refuses_an_epsilon_that_is_not_finite_and_positive() {
        for eps in [0.0, -0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(BudgetLedger::new(9, eps, 1.0).is_none(), "per-release eps={eps} accepted");
            assert!(BudgetLedger::new(9, 0.25, eps).is_none(), "total eps={eps} accepted");
        }
        // The smallest sane ledger still works: four 0.25 releases fit, a
        // fifth does not.
        let mut l = ledger(9, 0.25, 1.0);
        for n in 0..4 {
            release(&mut l, "b", 10, n).unwrap();
        }
        assert!(matches!(release(&mut l, "c", 10, 4), Err(ReleaseRefused::Exhausted { .. })));
    }

    /// A denied requester gets no value and costs nothing: the refusal
    /// comes before any other check, the budget and the release list stay
    /// as they were, and every pair the matrix allows still releases.
    #[test]
    fn ledger_refuses_a_requester_the_matrix_denies() {
        use Purpose::*;
        use Role::*;
        let mut l = ledger(9, 0.1, 1.0);
        let mut nonce = 0;
        for role in [ItOperator, Researcher, Auditor, External] {
            for purpose in [SecurityOperations, Research, Audit] {
                nonce += 1;
                let (spent, released) = (l.remaining(), l.releases().len());
                let verdict = PolicyEngine::decide(role, purpose, DataClass::AggregateStats);
                match l.release(role, purpose, "c", 10, nonce) {
                    Ok(_) => assert_eq!(verdict, Verdict::Allow, "{role:?}/{purpose:?}"),
                    Err(err) => {
                        assert_eq!(verdict, Verdict::Deny, "{role:?}/{purpose:?}");
                        assert_eq!(err, ReleaseRefused::Denied { role, purpose });
                        assert!(err.to_string().contains("denied"), "{err}");
                        assert_eq!((l.remaining(), l.releases().len()), (spent, released));
                    }
                }
            }
        }
        // IT operators under every purpose, researchers for research and
        // auditors for audit: five releases at 0.1 each.
        assert_eq!(l.releases().len(), 5);
        assert!((l.remaining() - 0.5).abs() < 1e-9);
        // Denial outranks exhaustion: once the budget is gone, an external
        // requester is still refused as denied.
        while release(&mut l, "c", 10, nonce).is_ok() {
            nonce += 1;
        }
        assert!(matches!(
            l.release(External, Research, "c", 10, nonce),
            Err(ReleaseRefused::Denied { role: External, purpose: Research })
        ));
    }
}
