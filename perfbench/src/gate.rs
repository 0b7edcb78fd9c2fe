//! The ledger gate: every offered event is accounted for exactly once.
//!
//! From the server's own `stats` and `query` replies, per session,
//! `applied + ignored + shed + dropped + coalesced + still queued` must
//! equal what the client offered, and the admission controller's global
//! `offered` must equal the client's total with `admitted + shed` adding
//! up to it.

use std::collections::HashMap;

use elm_runtime::PlainValue;

use crate::report::Report;
use crate::wire::{self, Conn};

/// One session's (or the whole server's) event accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Events the client sent.
    pub offered: u64,
    /// Events the runtime applied.
    pub applied: u64,
    /// Events on inputs the program does not read.
    pub ignored: u64,
    /// Events admission control refused.
    pub shed: u64,
    /// Events dropped or coalesced under backpressure, or still queued.
    pub lost: u64,
}

impl Ledger {
    /// `applied + ignored + shed + lost == offered`.
    pub fn balanced(&self) -> bool {
        self.applied + self.ignored + self.shed + self.lost == self.offered
    }
}

/// A session's final state as its `query` reports it.
pub type Final = (u64, PlainValue);

/// Queries every live session in `offered` (session → events the client
/// sent it), reads global `stats`, and checks each session's ledger and
/// the server-wide totals, with `closed` the summed ledgers of sessions
/// that no longer exist. Returns each live session's final
/// `(last_seq, value)` for the caller's value checks.
///
/// # Errors
///
/// Fails on a socket error or an unparseable reply.
pub fn check_ledger(
    conn: &mut Conn,
    offered: &[(u64, u64)],
    closed: Ledger,
    report: &mut Report,
) -> Result<HashMap<u64, Final>, String> {
    let mut finals = HashMap::new();
    for &(session, _) in offered {
        let reply = wire::parse(
            conn.call(&wire::session_cmd("query", session))
                .map_err(|e| format!("query: {e}"))?,
        )?;
        report.attempted += 1;
        if let Err(e) = wire::ok(&reply) {
            report.fail(format!("query {session}: {e}"));
            continue;
        }
        let last_seq = wire::u64_at(&reply, "last_seq").unwrap_or(0);
        let value = wire::value_at(&reply, "value").unwrap_or(PlainValue::Unit);
        finals.insert(session, (last_seq, value));
    }
    let stats = wire::parse(conn.call(wire::STATS).map_err(|e| format!("stats: {e}"))?)?;
    report.attempted += 1;
    wire::ok(&stats)?;
    let global = stats.get("global").ok_or("stats without global")?;
    let admission = |k: &str| wire::u64_path(global, &["admission", k]).unwrap_or(0);
    let shed = admission("shed");
    let mut total = Ledger { shed, ..closed };
    let rows = stats
        .get("sessions")
        .and_then(|s| s.as_seq())
        .ok_or("stats without sessions")?;
    for &(session, sent) in offered {
        let row = rows
            .iter()
            .find(|r| wire::u64_at(r, "session") == Some(session));
        let ingress = |k: &str| {
            row.and_then(|r| wire::u64_path(r, &["ingress", k]))
                .unwrap_or(0)
        };
        let ledger = Ledger {
            offered: sent,
            applied: finals.get(&session).map_or(0, |f| f.0),
            ignored: ingress("ignored"),
            // Admission sheds are counted per shard, not per session;
            // they enter the global ledger below.
            shed: 0,
            lost: ingress("dropped") + ingress("coalesced") + ingress("queue_len"),
        };
        total.offered += ledger.offered;
        total.applied += ledger.applied;
        total.ignored += ledger.ignored;
        total.lost += ledger.lost;
        report.check(shed > 0 || ledger.balanced(), || {
            format!("session {session}: ledger does not balance: {ledger:?}")
        });
    }
    report.check(total.balanced(), || {
        format!("server ledger does not balance: {total:?}")
    });
    let (offered_adm, admitted) = (admission("offered"), admission("admitted"));
    report.check(
        offered_adm == total.offered && admitted + shed == offered_adm,
        || {
            format!(
                "admission counted offered {offered_adm} admitted {admitted} shed {shed}; client offered {}",
                total.offered
            )
        },
    );
    Ok(finals)
}

/// Fraction of offered events admission control admitted, from the
/// global `stats`.
///
/// # Errors
///
/// Fails on a socket error or an unparseable reply.
pub fn admitted_frac(conn: &mut Conn) -> Result<f64, String> {
    let stats = wire::parse(conn.call(wire::STATS).map_err(|e| format!("stats: {e}"))?)?;
    let global = stats.get("global").ok_or("stats without global")?;
    let offered = wire::u64_path(global, &["admission", "offered"]).unwrap_or(0);
    let admitted = wire::u64_path(global, &["admission", "admitted"]).unwrap_or(0);
    Ok(if offered == 0 {
        1.0
    } else {
        admitted as f64 / offered as f64
    })
}
