//! Trace-diff: find and explain the first divergence between two flight
//! logs.
//!
//! The comparison is on the typed records (every event, cycle stamp and
//! correlation id), and the report is causal: it prints both diverging
//! records in full and resolves their correlation chains on both sides,
//! so the reader sees which provocation → decision sequence split, not
//! just which record differed.

use autarky_os_sim::flight::{chain_records, timeline_table};
use autarky_os_sim::FlightRecord;

/// Records of context shown on each side of the diverging one.
const CONTEXT: usize = 3;

/// The first point where two flight logs disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Zero-based index of the first differing record.
    pub index: usize,
    /// That record in the left log (`None` when the left log ended).
    pub left: Option<FlightRecord>,
    /// That record in the right log (`None` when the right log ended).
    pub right: Option<FlightRecord>,
}

/// First record where the two logs differ; `None` when they are equal.
pub fn first_divergence(left: &[FlightRecord], right: &[FlightRecord]) -> Option<Divergence> {
    let index = left.iter().zip(right).take_while(|(l, r)| l == r).count();
    if index == left.len() && index == right.len() {
        return None;
    }
    Some(Divergence {
        index,
        left: left.get(index).cloned(),
        right: right.get(index).cloned(),
    })
}

/// Render a markdown report for a divergence: on each side, the
/// diverging record in full, its neighbours as timeline rows, and its
/// correlation chain.
pub fn render_divergence(
    div: &Divergence,
    left: &[FlightRecord],
    right: &[FlightRecord],
) -> String {
    let mut out = format!(
        "# Flight-log divergence\n\nFirst divergence at record {} (0-based).\n\n",
        div.index
    );
    for (name, record, log) in [
        ("recording", &div.left, left),
        ("replay", &div.right, right),
    ] {
        out.push_str(&format!("## {name}\n\n"));
        match record {
            Some(r) => out.push_str(&format!("Diverging record:\n\n```\n{r:?}\n```\n\n")),
            None => out.push_str("Log ended before this record.\n\n"),
        }
        let lo = div.index.saturating_sub(CONTEXT);
        let hi = (div.index + CONTEXT + 1).min(log.len());
        let context = log.get(lo..hi).unwrap_or_default();
        out.push_str(&format!("Context:\n\n{}\n", timeline_table(context)));
        let chain = record
            .as_ref()
            .map_or_else(Vec::new, |r| chain_records(log, r.corr));
        if !chain.is_empty() {
            out.push_str(&format!(
                "Diverging correlation chain:\n\n{}\n",
                timeline_table(chain)
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use autarky_os_sim::FlightEvent;
    use autarky_sgx_sim::{EnclaveId, Vpn};

    fn record(seq: u64, corr: u64, event: FlightEvent) -> FlightRecord {
        FlightRecord {
            seq,
            cycles: 10 * (seq + 1),
            corr,
            event,
        }
    }

    fn forward(seq: u64, vpn: u64) -> FlightRecord {
        record(seq, 1, FlightEvent::DecisionForward { vpn: Vpn(vpn) })
    }

    #[test]
    fn identical_logs_have_no_divergence() {
        let log = [record(0, 0, FlightEvent::RateLimitKill), forward(1, 5)];
        assert_eq!(first_divergence(&log, &log), None);
    }

    #[test]
    fn first_differing_line_is_reported() {
        let a = [
            record(0, 0, FlightEvent::RateLimitKill),
            forward(1, 5),
            forward(2, 6),
        ];
        let mut b = a.clone();
        b[1] = forward(1, 7);
        let div = first_divergence(&a, &b).expect("diverges");
        assert_eq!(div.index, 1);
        assert_eq!(div.left, Some(a[1].clone()));
        assert_eq!(div.right, Some(b[1].clone()));
    }

    #[test]
    fn truncation_is_a_divergence() {
        let a = [record(0, 0, FlightEvent::RateLimitKill), forward(1, 5)];
        let div = first_divergence(&a, &a[..1]).expect("diverges");
        assert_eq!(div.index, 1);
        assert!(div.right.is_none());
        let report = render_divergence(&div, &a, &a[..1]);
        assert!(report.contains("Log ended before this record."), "{report}");
    }

    #[test]
    fn report_resolves_the_diverging_chain() {
        let entry = record(
            0,
            1,
            FlightEvent::HandlerEntry {
                eid: EnclaveId(1),
                vpn: Vpn(5),
            },
        );
        // Only one page of the fetch set differs, which the one-line
        // description (`set={2 pages}`) does not show.
        let fetch = |pages| {
            record(
                1,
                1,
                FlightEvent::DecisionClusterFetch { vpn: Vpn(5), pages },
            )
        };
        let a = [entry.clone(), fetch(vec![Vpn(5), Vpn(6)])];
        let b = [entry, fetch(vec![Vpn(5), Vpn(77)])];
        assert_eq!(a[1].event.describe(), b[1].event.describe());
        let div = first_divergence(&a, &b).expect("diverges");
        assert_eq!(div.index, 1);
        let report = render_divergence(&div, &a, &b);
        assert!(report.contains("# Flight-log divergence"));
        assert!(report.contains("Diverging correlation chain"));
        assert!(report.contains("handler entry"), "{report}");
        assert!(report.contains("[Vpn(5), Vpn(6)]"), "{report}");
        assert!(report.contains("[Vpn(5), Vpn(77)]"), "{report}");
    }
}
