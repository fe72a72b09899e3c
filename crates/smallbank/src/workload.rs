//! Workload generation: transaction mixes and parameter sampling (§IV).

use crate::procs::{SbError, SmallBank};
use crate::schema::customer_name;
use sicost_common::{DiscreteDist, HotspotSampler, Money, Xoshiro256};

/// The five transaction types, in the paper's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnKind {
    /// Balance (read-only in the base coding).
    Balance,
    /// DepositChecking.
    DepositChecking,
    /// TransactSaving.
    TransactSaving,
    /// Amalgamate.
    Amalgamate,
    /// WriteCheck.
    WriteCheck,
}

impl TxnKind {
    /// All kinds, index-aligned with [`MixWeights::as_array`].
    pub const ALL: [TxnKind; 5] = [
        TxnKind::Balance,
        TxnKind::DepositChecking,
        TxnKind::TransactSaving,
        TxnKind::Amalgamate,
        TxnKind::WriteCheck,
    ];

    /// Short display name (as used in the paper's Figure 6).
    pub fn name(self) -> &'static str {
        match self {
            TxnKind::Balance => "Balance",
            TxnKind::DepositChecking => "DepositChecking",
            TxnKind::TransactSaving => "TransactSaving",
            TxnKind::Amalgamate => "Amalgamate",
            TxnKind::WriteCheck => "WriteCheck",
        }
    }
}

/// Mix weights over the five transaction types.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixWeights {
    /// Balance weight.
    pub balance: f64,
    /// DepositChecking weight.
    pub deposit_checking: f64,
    /// TransactSaving weight.
    pub transact_saving: f64,
    /// Amalgamate weight.
    pub amalgamate: f64,
    /// WriteCheck weight.
    pub write_check: f64,
}

impl MixWeights {
    /// The paper's default: uniform across the five types.
    pub fn uniform() -> Self {
        Self {
            balance: 1.0,
            deposit_checking: 1.0,
            transact_saving: 1.0,
            amalgamate: 1.0,
            write_check: 1.0,
        }
    }

    /// The paper's high-contention mix: 60 % Balance, 10 % each other.
    pub fn high_contention() -> Self {
        Self {
            balance: 60.0,
            deposit_checking: 10.0,
            transact_saving: 10.0,
            amalgamate: 10.0,
            write_check: 10.0,
        }
    }

    /// Weights as an array aligned with [`TxnKind::ALL`].
    pub fn as_array(&self) -> [f64; 5] {
        [
            self.balance,
            self.deposit_checking,
            self.transact_saving,
            self.amalgamate,
            self.write_check,
        ]
    }
}

/// Full workload parameters (§IV): population, hotspot, mix.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadParams {
    /// Number of customers in the database.
    pub customers: u64,
    /// Hotspot size (1 000 normally, 10 for high contention).
    pub hotspot: u64,
    /// Probability of drawing a customer from the hotspot (0.9).
    pub p_hot: f64,
    /// Transaction mix.
    pub mix: MixWeights,
}

impl WorkloadParams {
    /// §IV defaults: 18 000 customers, hotspot 1 000 at 90 %, uniform mix.
    pub fn paper_default() -> Self {
        Self {
            customers: 18_000,
            hotspot: 1_000,
            p_hot: 0.9,
            mix: MixWeights::uniform(),
        }
    }

    /// §IV-E: hotspot of 10 customers and 60 % Balance transactions.
    pub fn paper_high_contention() -> Self {
        Self {
            customers: 18_000,
            hotspot: 10,
            p_hot: 0.9,
            mix: MixWeights::high_contention(),
        }
    }

    /// Shrinks the population (tests / quick runs), keeping proportions.
    pub fn scaled(mut self, customers: u64, hotspot: u64) -> Self {
        self.customers = customers;
        self.hotspot = hotspot;
        self
    }
}

/// One sampled transaction request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnRequest {
    /// Balance(N).
    Balance {
        /// Customer name.
        name: String,
    },
    /// DepositChecking(N, V).
    DepositChecking {
        /// Customer name.
        name: String,
        /// Amount (non-negative).
        v: Money,
    },
    /// TransactSaving(N, V).
    TransactSaving {
        /// Customer name.
        name: String,
        /// Amount (either sign).
        v: Money,
    },
    /// Amalgamate(N1, N2).
    Amalgamate {
        /// Source customer.
        n1: String,
        /// Destination customer.
        n2: String,
    },
    /// WriteCheck(N, V).
    WriteCheck {
        /// Customer name.
        name: String,
        /// Check amount.
        v: Money,
    },
}

impl TxnRequest {
    /// The request's kind.
    pub fn kind(&self) -> TxnKind {
        match self {
            TxnRequest::Balance { .. } => TxnKind::Balance,
            TxnRequest::DepositChecking { .. } => TxnKind::DepositChecking,
            TxnRequest::TransactSaving { .. } => TxnKind::TransactSaving,
            TxnRequest::Amalgamate { .. } => TxnKind::Amalgamate,
            TxnRequest::WriteCheck { .. } => TxnKind::WriteCheck,
        }
    }
}

/// A workload generator bound to parameters: samples kinds from the mix
/// and customers from the hotspot distribution.
#[derive(Debug, Clone)]
pub struct SmallBankWorkload {
    params: WorkloadParams,
    kind_dist: DiscreteDist,
    customer_dist: HotspotSampler,
    wc_table_lock: bool,
}

impl SmallBankWorkload {
    /// Creates the generator.
    pub fn new(params: WorkloadParams) -> Self {
        Self {
            kind_dist: DiscreteDist::new(&params.mix.as_array()),
            customer_dist: HotspotSampler::new(params.customers, params.hotspot, params.p_hot),
            params,
            wc_table_lock: false,
        }
    }

    /// Runs WriteCheck through
    /// [`SmallBank::write_check_with_table_lock`] (§II-D's
    /// pivot-under-2PL approach; requires an engine with
    /// `table_intent_locks`).
    pub fn with_wc_table_lock(mut self) -> Self {
        self.wc_table_lock = true;
        self
    }

    /// The parameters.
    pub fn params(&self) -> &WorkloadParams {
        &self.params
    }

    /// Samples the next transaction request.
    pub fn sample(&self, rng: &mut Xoshiro256) -> TxnRequest {
        let kind = TxnKind::ALL[self.kind_dist.sample(rng)];
        let name = customer_name(self.customer_dist.sample(rng));
        match kind {
            TxnKind::Balance => TxnRequest::Balance { name },
            TxnKind::DepositChecking => TxnRequest::DepositChecking {
                name,
                v: Money::cents(rng.range_inclusive(100, 10_000)),
            },
            TxnKind::TransactSaving => TxnRequest::TransactSaving {
                name,
                // Mostly deposits, some withdrawals (can trigger the
                // insufficient-funds rollback, as in the paper's §III-B).
                v: Money::cents(rng.range_inclusive(-5_000, 10_000)),
            },
            TxnKind::Amalgamate => {
                let (a, b) = self.customer_dist.sample_pair(rng);
                TxnRequest::Amalgamate {
                    n1: customer_name(a),
                    n2: customer_name(b),
                }
            }
            TxnKind::WriteCheck => TxnRequest::WriteCheck {
                name,
                v: Money::cents(rng.range_inclusive(100, 5_000)),
            },
        }
    }

    /// Executes one sampled request against `bank`.
    pub fn execute(&self, bank: &SmallBank, req: &TxnRequest) -> Result<(), SbError> {
        match req {
            TxnRequest::WriteCheck { name, v } if self.wc_table_lock => {
                bank.write_check_with_table_lock(name, *v)
            }
            _ => bank.execute(req),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_ratios_are_respected() {
        let wl = SmallBankWorkload::new(WorkloadParams::paper_high_contention().scaled(100, 10));
        let mut rng = Xoshiro256::seed_from_u64(1);
        let n = 50_000;
        let mut bal = 0;
        for _ in 0..n {
            if wl.sample(&mut rng).kind() == TxnKind::Balance {
                bal += 1;
            }
        }
        let frac = bal as f64 / n as f64;
        assert!((frac - 0.6).abs() < 0.02, "balance fraction {frac}");
    }

    #[test]
    fn hotspot_concentration() {
        let wl = SmallBankWorkload::new(WorkloadParams::paper_default().scaled(1_000, 10));
        let mut rng = Xoshiro256::seed_from_u64(2);
        let mut hot = 0;
        let n = 20_000;
        for _ in 0..n {
            let name = match wl.sample(&mut rng) {
                TxnRequest::Balance { name }
                | TxnRequest::DepositChecking { name, .. }
                | TxnRequest::TransactSaving { name, .. }
                | TxnRequest::WriteCheck { name, .. }
                | TxnRequest::Amalgamate { n1: name, .. } => name,
            };
            let idx: u64 = name[1..].parse().unwrap();
            if idx < 10 {
                hot += 1;
            }
        }
        let frac = hot as f64 / n as f64;
        assert!((frac - 0.9).abs() < 0.02, "hot fraction {frac}");
    }

    #[test]
    fn amalgamate_pairs_are_distinct() {
        let wl = SmallBankWorkload::new(WorkloadParams::paper_default().scaled(50, 5));
        let mut rng = Xoshiro256::seed_from_u64(3);
        for _ in 0..5_000 {
            if let TxnRequest::Amalgamate { n1, n2 } = wl.sample(&mut rng) {
                assert_ne!(n1, n2);
            }
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let wl = SmallBankWorkload::new(WorkloadParams::paper_default().scaled(100, 10));
        let mut a = Xoshiro256::seed_from_u64(7);
        let mut b = Xoshiro256::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(wl.sample(&mut a), wl.sample(&mut b));
        }
    }

    #[test]
    fn execute_round_trip_against_small_bank() {
        use crate::schema::SmallBankConfig;
        use crate::strategy::Strategy;
        use sicost_engine::EngineConfig;
        let bank = SmallBank::new(
            &SmallBankConfig::small(50),
            EngineConfig::functional(),
            Strategy::BaseSI,
        );
        let wl = SmallBankWorkload::new(WorkloadParams::paper_default().scaled(50, 5));
        let mut rng = Xoshiro256::seed_from_u64(4);
        let mut commits = 0;
        for _ in 0..500 {
            let req = wl.sample(&mut rng);
            match wl.execute(&bank, &req) {
                Ok(()) => commits += 1,
                Err(e) => assert!(
                    e.is_application_rollback(),
                    "single-threaded run can only roll back by app rule: {e}"
                ),
            }
        }
        assert!(commits > 400);
        assert_eq!(bank.db().metrics().serialization_failures(), 0);
    }
}
