//! Spatial power breakdown: per-net activity mapped through capacitance to
//! per-net / per-driver-class power, with ranked hot-spot extraction.
//!
//! The scalar estimate of Eq. (1) is the capacitance-weighted sum of per-net
//! switching activities; a [`PowerBreakdown`] keeps the summands. By
//! construction the per-net powers sum back to the total the same activity
//! sample yields for the whole circuit:
//!
//! ```text
//! P_total = V_dd²/(2T) · Σ_i C_i · a_i        a_i = mean transitions/cycle
//! ```
//!
//! so `breakdown.total_power_w()` and the session's scalar power estimate are
//! the same number up to floating-point association — the consistency check
//! the `dipe` CLI's `--breakdown` mode reports.

use netlist::{Circuit, NetDriver, NetId};

use crate::capacitance::LoadCapacitances;
use crate::technology::Technology;

/// Which kind of driver a net hangs off — the coarse "module" grouping of
/// the breakdown (the `.bench` dialect has no hierarchy, so driver class is
/// the structural grouping every netlist supports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum DriverClass {
    /// Output of a combinational gate.
    Combinational,
    /// `Q` output of a D flip-flop (sequential power).
    Sequential,
    /// Primary input (power dissipated charging input-cone loads).
    PrimaryInput,
    /// Constant net (never toggles; carried for completeness).
    Constant,
}

impl DriverClass {
    fn of(driver: NetDriver) -> Self {
        match driver {
            NetDriver::Gate(_) => DriverClass::Combinational,
            NetDriver::FlipFlop(_) => DriverClass::Sequential,
            NetDriver::PrimaryInput => DriverClass::PrimaryInput,
            NetDriver::Constant(_) => DriverClass::Constant,
        }
    }

    /// A stable lowercase label (used in reports and the `dipe --json`
    /// export).
    pub fn label(self) -> &'static str {
        match self {
            DriverClass::Combinational => "combinational",
            DriverClass::Sequential => "sequential",
            DriverClass::PrimaryInput => "primary_input",
            DriverClass::Constant => "constant",
        }
    }
}

/// One net's entry in the spatial breakdown.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct NetPower {
    /// Net name (unique within the circuit).
    pub name: String,
    /// Dense net index ([`NetId::index`]).
    pub net_index: usize,
    /// What drives the net.
    pub driver: DriverClass,
    /// Estimated switching activity in transitions/cycle (glitches included).
    pub activity: f64,
    /// Standard error of the activity estimate (0 when unknown).
    pub activity_std_error: f64,
    /// The glitch component of `activity`: mean transitions/cycle that exist
    /// only because of unequal path delays (0 under zero-delay measurement).
    pub glitch_activity: f64,
    /// Load capacitance in farads.
    pub capacitance_f: f64,
    /// Average power dissipated charging this net, in watts. Equals
    /// `functional_power_w + glitch_power_w` up to one last-place rounding
    /// (≤ 1e-12 relative; asserted in CI on the s1494 JSON export).
    pub power_w: f64,
    /// The part of `power_w` due to glitch transitions.
    pub glitch_power_w: f64,
    /// The part of `power_w` due to functional (settled) transitions.
    pub functional_power_w: f64,
}

impl NetPower {
    /// The glitch fraction of this net's power, in `[0, 1]` (0 for idle
    /// nets).
    pub fn glitch_fraction(&self) -> f64 {
        if self.power_w > 0.0 {
            self.glitch_power_w / self.power_w
        } else {
            0.0
        }
    }
}

/// Per-driver-class power subtotal.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GroupPower {
    /// The driver class.
    pub class: DriverClass,
    /// Number of nets in the class.
    pub nets: usize,
    /// Summed average power of the class, in watts.
    pub power_w: f64,
    /// Summed glitch power of the class, in watts.
    pub glitch_power_w: f64,
}

impl GroupPower {
    /// The glitch fraction of this class's power, in `[0, 1]`.
    pub fn glitch_fraction(&self) -> f64 {
        if self.power_w > 0.0 {
            self.glitch_power_w / self.power_w
        } else {
            0.0
        }
    }
}

/// The spatial power breakdown of a circuit under an activity estimate.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PowerBreakdown {
    circuit: String,
    technology: Technology,
    observations: u64,
    per_net: Vec<NetPower>,
}

impl PowerBreakdown {
    /// Builds the breakdown from dense per-net activity estimates.
    ///
    /// `means` are mean transitions/cycle (glitches included) and
    /// `std_errors` their standard errors; `glitch_means` is the glitch
    /// component of each mean (all zeros under zero-delay measurement). All
    /// three are indexed by [`NetId::index`]; `observations` is the number of
    /// sampled cycles behind the means.
    ///
    /// Per net, the functional part is *defined* as `power_w −
    /// glitch_power_w`, so the decomposition recombines to the total with at
    /// most one last-place rounding error (≤ 1e-12 relative) and never goes
    /// negative (glitch activity cannot exceed total activity).
    ///
    /// # Panics
    ///
    /// Panics if the array lengths do not match the circuit's net count.
    pub fn from_activity(
        circuit: &Circuit,
        technology: Technology,
        loads: &LoadCapacitances,
        means: &[f64],
        std_errors: &[f64],
        glitch_means: &[f64],
        observations: u64,
    ) -> Self {
        assert_eq!(means.len(), circuit.num_nets(), "one mean per net");
        assert_eq!(std_errors.len(), circuit.num_nets(), "one SE per net");
        assert_eq!(
            glitch_means.len(),
            circuit.num_nets(),
            "one glitch mean per net"
        );
        assert_eq!(loads.len(), circuit.num_nets(), "one load per net");
        let factor = technology.power_factor_w_per_f();
        let per_net = circuit
            .nets()
            .iter()
            .map(|net| {
                let idx = net.id().index();
                let capacitance_f = loads.farads(net.id());
                let power_w = factor * capacitance_f * means[idx];
                let glitch_power_w = factor * capacitance_f * glitch_means[idx];
                NetPower {
                    name: net.name().to_string(),
                    net_index: idx,
                    driver: DriverClass::of(net.driver()),
                    activity: means[idx],
                    activity_std_error: std_errors[idx],
                    glitch_activity: glitch_means[idx],
                    capacitance_f,
                    power_w,
                    glitch_power_w,
                    // Defined as the difference so the decomposition sums
                    // back exactly; glitch ≤ total keeps it non-negative.
                    functional_power_w: power_w - glitch_power_w,
                }
            })
            .collect();
        PowerBreakdown {
            circuit: circuit.name().to_string(),
            technology,
            observations,
            per_net,
        }
    }

    /// The circuit name.
    pub fn circuit(&self) -> &str {
        &self.circuit
    }

    /// The operating point the powers were computed at.
    pub fn technology(&self) -> Technology {
        self.technology
    }

    /// Number of sampled cycles behind the activity estimates.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Every net's entry, indexed by [`NetId::index`].
    pub fn per_net(&self) -> &[NetPower] {
        &self.per_net
    }

    /// One net's entry.
    pub fn net(&self, id: NetId) -> &NetPower {
        &self.per_net[id.index()]
    }

    /// Total average power: the capacitance-weighted sum of the per-net
    /// activities (Eq. 1 applied to the mean activities).
    pub fn total_power_w(&self) -> f64 {
        self.per_net.iter().map(|n| n.power_w).sum()
    }

    /// Total glitch power: the capacitance-weighted sum of the per-net
    /// glitch activities. 0 under zero-delay measurement.
    pub fn total_glitch_power_w(&self) -> f64 {
        self.per_net.iter().map(|n| n.glitch_power_w).sum()
    }

    /// The glitch fraction of the total power, in `[0, 1]`.
    pub fn glitch_fraction(&self) -> f64 {
        let total = self.total_power_w();
        if total > 0.0 {
            self.total_glitch_power_w() / total
        } else {
            0.0
        }
    }

    /// Mean total switching activity in transitions/cycle (unweighted sum of
    /// the per-net activities).
    pub fn total_activity(&self) -> f64 {
        self.per_net.iter().map(|n| n.activity).sum()
    }

    /// The `k` highest-power nets, ranked by descending power (ties broken
    /// by net index).
    pub fn hot_spots(&self, k: usize) -> Vec<&NetPower> {
        self.ranked_by(k, |n| n.power_w)
    }

    /// The `k` highest-*glitch*-power nets, ranked by descending glitch
    /// power (ties broken by net index) — where glitch-suppression effort
    /// (path balancing, gate resizing) pays off first.
    pub fn glitch_hot_spots(&self, k: usize) -> Vec<&NetPower> {
        self.ranked_by(k, |n| n.glitch_power_w)
    }

    fn ranked_by(&self, k: usize, key: impl Fn(&NetPower) -> f64) -> Vec<&NetPower> {
        let mut ranked: Vec<&NetPower> = self.per_net.iter().collect();
        ranked.sort_by(|a, b| {
            key(b)
                .partial_cmp(&key(a))
                .expect("powers must not contain NaN")
                .then(a.net_index.cmp(&b.net_index))
        });
        ranked.truncate(k);
        ranked
    }

    /// Power subtotals per driver class, in a fixed class order (classes with
    /// no nets are omitted).
    pub fn group_totals(&self) -> Vec<GroupPower> {
        [
            DriverClass::Combinational,
            DriverClass::Sequential,
            DriverClass::PrimaryInput,
            DriverClass::Constant,
        ]
        .into_iter()
        .filter_map(|class| {
            let members: Vec<&NetPower> =
                self.per_net.iter().filter(|n| n.driver == class).collect();
            if members.is_empty() {
                return None;
            }
            Some(GroupPower {
                class,
                nets: members.len(),
                power_w: members.iter().map(|n| n.power_w).sum(),
                glitch_power_w: members.iter().map(|n| n.glitch_power_w).sum(),
            })
        })
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacitance::CapacitanceModel;
    use netlist::iscas89;

    fn s27_breakdown() -> (Circuit, PowerBreakdown) {
        let c = iscas89::load("s27").unwrap();
        let loads = CapacitanceModel::default().loads(&c);
        // Deterministic synthetic activities: net i toggles (i mod 4) / 8,
        // half of which is glitching on every other net.
        let means: Vec<f64> = (0..c.num_nets()).map(|i| (i % 4) as f64 / 8.0).collect();
        let ses: Vec<f64> = vec![0.001; c.num_nets()];
        let glitch: Vec<f64> = means
            .iter()
            .enumerate()
            .map(|(i, &m)| if i % 2 == 0 { m / 2.0 } else { 0.0 })
            .collect();
        let b = PowerBreakdown::from_activity(
            &c,
            Technology::default(),
            &loads,
            &means,
            &ses,
            &glitch,
            500,
        );
        (c, b)
    }

    #[test]
    fn per_net_powers_sum_to_eq1_total() {
        let (c, b) = s27_breakdown();
        let loads = CapacitanceModel::default().loads(&c);
        let factor = Technology::default().power_factor_w_per_f();
        let expected: f64 = (0..c.num_nets())
            .map(|i| factor * loads.as_slice()[i] * ((i % 4) as f64 / 8.0))
            .sum();
        assert!((b.total_power_w() - expected).abs() < 1e-18 + 1e-12 * expected);
        assert_eq!(b.per_net().len(), c.num_nets());
        assert_eq!(b.observations(), 500);
        assert_eq!(b.circuit(), "s27");
    }

    #[test]
    fn hot_spots_are_ranked_descending() {
        let (_, b) = s27_breakdown();
        let hot = b.hot_spots(5);
        assert_eq!(hot.len(), 5);
        for pair in hot.windows(2) {
            assert!(pair[0].power_w >= pair[1].power_w);
        }
        // Requesting more than the net count returns everything.
        assert_eq!(b.hot_spots(10_000).len(), b.per_net().len());
    }

    #[test]
    fn group_totals_partition_the_total() {
        let (c, b) = s27_breakdown();
        let groups = b.group_totals();
        let sum: f64 = groups.iter().map(|g| g.power_w).sum();
        assert!((sum - b.total_power_w()).abs() < 1e-18 + 1e-12 * b.total_power_w());
        let nets: usize = groups.iter().map(|g| g.nets).sum();
        assert_eq!(nets, c.num_nets());
        // s27 has gates, flip-flops and primary inputs.
        assert!(groups.iter().any(|g| g.class == DriverClass::Combinational));
        assert!(groups.iter().any(|g| g.class == DriverClass::Sequential));
        assert!(groups.iter().any(|g| g.class == DriverClass::PrimaryInput));
    }

    #[test]
    fn net_accessor_matches_index() {
        let (c, b) = s27_breakdown();
        let g10 = c.net_by_name("G10").unwrap().id();
        assert_eq!(b.net(g10).name, "G10");
        assert_eq!(b.net(g10).net_index, g10.index());
    }

    #[test]
    fn zero_activity_means_zero_power() {
        let c = iscas89::load("s27").unwrap();
        let loads = CapacitanceModel::default().loads(&c);
        let zeros = vec![0.0; c.num_nets()];
        let b = PowerBreakdown::from_activity(
            &c,
            Technology::default(),
            &loads,
            &zeros,
            &zeros,
            &zeros,
            0,
        );
        assert_eq!(b.total_power_w(), 0.0);
        assert_eq!(b.total_activity(), 0.0);
        assert_eq!(b.total_glitch_power_w(), 0.0);
        assert_eq!(b.glitch_fraction(), 0.0);
    }

    #[test]
    fn glitch_decomposition_sums_exactly() {
        let (_, b) = s27_breakdown();
        for n in b.per_net() {
            // Exact for this synthetic data (every glitch mean is exactly
            // half its activity mean, so the subtraction is Sterbenz-exact);
            // the CI acceptance check asserts ≤ 1e-12 relative on real runs.
            assert_eq!(n.functional_power_w + n.glitch_power_w, n.power_w);
            assert!(n.glitch_power_w >= 0.0 && n.functional_power_w >= 0.0);
            assert!((0.0..=1.0).contains(&n.glitch_fraction()));
        }
        let group_glitch: f64 = b.group_totals().iter().map(|g| g.glitch_power_w).sum();
        let relative = (group_glitch - b.total_glitch_power_w()).abs()
            / b.total_glitch_power_w().max(f64::MIN_POSITIVE);
        assert!(relative < 1e-12);
        assert!(b.glitch_fraction() > 0.0 && b.glitch_fraction() < 1.0);
    }

    #[test]
    fn glitch_hot_spots_rank_by_glitch_power() {
        let (_, b) = s27_breakdown();
        let hot = b.glitch_hot_spots(5);
        assert_eq!(hot.len(), 5);
        for pair in hot.windows(2) {
            assert!(pair[0].glitch_power_w >= pair[1].glitch_power_w);
        }
        // Synthetic glitch lives only on even net indices.
        assert!(hot.iter().all(|n| n.net_index % 2 == 0));
        // The glitch ranking genuinely differs from the power ranking here.
        let by_power: Vec<usize> = b.hot_spots(5).iter().map(|n| n.net_index).collect();
        let by_glitch: Vec<usize> = hot.iter().map(|n| n.net_index).collect();
        assert_ne!(by_power, by_glitch);
    }
}
