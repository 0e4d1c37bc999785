//! The `breakdown` section of `dipe --breakdown --json` reports.

use power::PowerBreakdown;
use telemetry::Json;

/// The full spatial breakdown for the `--json` report: technology, totals,
/// per-driver-class groups and one record per net.
pub fn breakdown_json(breakdown: &PowerBreakdown) -> Json {
    let groups = breakdown
        .group_totals()
        .iter()
        .map(|g| {
            Json::obj(vec![
                ("class", Json::str(g.class.label())),
                ("nets", Json::usize(g.nets)),
                ("power_w", Json::f64(g.power_w)),
                ("glitch_power_w", Json::f64(g.glitch_power_w)),
            ])
        })
        .collect();
    let nets = breakdown
        .per_net()
        .iter()
        .map(|n| {
            Json::obj(vec![
                ("name", Json::str(n.name.as_str())),
                ("net", Json::usize(n.net_index)),
                ("driver", Json::str(n.driver.label())),
                ("activity", Json::f64(n.activity)),
                ("activity_std_error", Json::f64(n.activity_std_error)),
                ("glitch_activity", Json::f64(n.glitch_activity)),
                ("capacitance_f", Json::f64(n.capacitance_f)),
                ("power_w", Json::f64(n.power_w)),
                ("functional_power_w", Json::f64(n.functional_power_w)),
                ("glitch_power_w", Json::f64(n.glitch_power_w)),
            ])
        })
        .collect();
    let technology = breakdown.technology();
    let glitch_w = breakdown.total_glitch_power_w();
    Json::obj(vec![
        ("circuit", Json::str(breakdown.circuit())),
        ("vdd_v", Json::f64(technology.vdd_v())),
        ("clock_hz", Json::f64(technology.clock_hz())),
        ("observations", Json::u64(breakdown.observations())),
        ("total_power_w", Json::f64(breakdown.total_power_w())),
        ("total_glitch_power_w", Json::f64(glitch_w)),
        ("glitch_fraction", Json::f64(breakdown.glitch_fraction())),
        ("groups", Json::Arr(groups)),
        ("nets", Json::Arr(nets)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::iscas89;
    use power::{CapacitanceModel, Technology};

    /// s27 with deterministic synthetic activities: net i toggles
    /// (i mod 4) / 8, half of which is glitching on every other net.
    fn s27_breakdown() -> PowerBreakdown {
        let c = iscas89::load("s27").unwrap();
        let loads = CapacitanceModel::default().loads(&c);
        let means: Vec<f64> = (0..c.num_nets()).map(|i| (i % 4) as f64 / 8.0).collect();
        let ses: Vec<f64> = vec![0.001; c.num_nets()];
        let glitch: Vec<f64> = means
            .iter()
            .enumerate()
            .map(|(i, &m)| if i % 2 == 0 { m / 2.0 } else { 0.0 })
            .collect();
        PowerBreakdown::from_activity(
            &c,
            Technology::default(),
            &loads,
            &means,
            &ses,
            &glitch,
            500,
        )
    }

    #[test]
    fn json_export_is_well_formed_enough() {
        let b = s27_breakdown();
        let doc = breakdown_json(&b);
        let json = doc.to_pretty();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"circuit\": \"s27\""));
        assert!(json.contains("\"total_power_w\""));
        assert!(json.contains("\"driver\": \"sequential\""));
        assert!(!json.contains(",\n  ]"));
        assert!(!json.contains(",\n    ]"));
        // The document reads back as itself, one record per group and net.
        assert_eq!(Json::parse(&json).unwrap(), doc);
        assert_eq!(
            doc.get("total_power_w").and_then(Json::as_f64),
            Some(b.total_power_w())
        );
        let groups = doc.get("groups").and_then(Json::as_arr).unwrap();
        assert_eq!(groups.len(), b.group_totals().len());
        let nets = doc.get("nets").and_then(Json::as_arr).unwrap();
        assert_eq!(nets.len(), b.per_net().len());
    }

    #[test]
    fn json_export_carries_the_glitch_fields() {
        let b = s27_breakdown();
        let doc = breakdown_json(&b);
        let json = doc.to_pretty();
        assert!(json.contains("\"total_glitch_power_w\""));
        assert!(json.contains("\"glitch_fraction\""));
        assert!(json.contains("\"glitch_activity\""));
        assert!(json.contains("\"functional_power_w\""));
        assert!(json.contains("\"glitch_power_w\""));
        // Per net, the exported values are the breakdown's exact bits.
        let nets = doc.get("nets").and_then(Json::as_arr).unwrap();
        for (record, net) in nets.iter().zip(b.per_net()) {
            let field = |key: &str| record.get(key).and_then(Json::as_f64).unwrap();
            assert_eq!(
                field("glitch_activity").to_bits(),
                net.glitch_activity.to_bits()
            );
            assert_eq!(
                field("functional_power_w").to_bits(),
                net.functional_power_w.to_bits()
            );
            assert_eq!(
                field("glitch_power_w").to_bits(),
                net.glitch_power_w.to_bits()
            );
        }
    }
}
