//! The output oracle: what the store must look like given what the
//! clients saw commit.

use crate::api::{self, State};
use crate::driver::Instance;
use crate::ledger::{self, Ledger, Seeded};
use crate::workload::Effect;

/// Ledger conservation against the client-side tally of committed
/// transactions:
/// * Σ `balance` moved by exactly the committed deposits/withdrawals;
/// * Σ `audit` counts exactly the committed `log` messages;
/// * every committed scan saw every object and the constant total
///   (transfers only move money, so any consistent snapshot — a 2PL
///   one or a snapshot-isolation one — sums to it).
pub fn check_ledger(
    ledger: &Ledger,
    schema: &api::Schema,
    initial: &[Seeded],
    committed: &Effect,
    state: &State,
) -> Result<(), String> {
    if state.len() != initial.len() {
        return Err(format!(
            "{} objects in the store, {} populated",
            state.len(),
            initial.len()
        ));
    }
    let sum = |field| -> i64 {
        state
            .values()
            .filter_map(|inst| inst.get(schema, field).and_then(api::Value::as_int))
            .sum()
    };
    let moved = sum(ledger.balance) - ledger::total_balance(initial);
    if moved != committed.balance {
        return Err(format!(
            "Σ balance moved by {moved}, committed deposits − withdrawals = {}",
            committed.balance
        ));
    }
    let audit = sum(ledger.audit);
    if audit != committed.logged as i64 {
        return Err(format!(
            "Σ audit = {audit}, committed log messages = {}",
            committed.logged
        ));
    }
    if committed.bad_scans != 0 {
        return Err(format!(
            "{} of {} scans did not return every object with the constant total",
            committed.bad_scans, committed.scans
        ));
    }
    Ok(())
}

/// Recovery equality: after draining the log, the store rebuilt from
/// the log directory equals the live one, field by field.
pub fn check_recovery(live: &State, recovered: &State) -> Result<(), String> {
    if live.len() != recovered.len() {
        return Err(format!(
            "recovered {} objects, live store has {}",
            recovered.len(),
            live.len()
        ));
    }
    for (oid, inst) in live {
        if recovered.get(oid) != Some(inst) {
            return Err(format!(
                "{oid} differs after recovery: live {:?}, recovered {:?}",
                inst,
                recovered.get(oid)
            ));
        }
    }
    Ok(())
}

/// Every check that applies to a quiesced instance.
pub fn check_instance(inst: &Instance, initial: &[Seeded]) -> Result<(), String> {
    let env = inst.scheme.env();
    let live = api::state(&env.db);
    check_ledger(
        &inst.ledger,
        &env.schema,
        initial,
        &inst.totals.effect,
        &live,
    )?;
    if let Some(dir) = &inst.wal_dir {
        inst.scheme.wal_sync();
        let (recovered, _) = api::recover(dir, api::ORACLE_REORDER_WINDOW)?;
        check_recovery(&live, &recovered)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{SchemeKind, Value};
    use crate::workload;

    #[test]
    fn oracle_accepts_a_clean_run_and_rejects_corruption() {
        let w = workload::by_name("hot-commute").unwrap();
        let inputs = w.generate_len(3, 1_000);
        let mut inst = Instance::build(SchemeKind::Tav, &inputs, None, false);
        crate::driver::run_fixed(&mut inst, &inputs, 200);
        assert_eq!(inst.totals.commits, 200);
        check_instance(&inst, &inputs.population).unwrap();

        let env = inst.scheme.env();
        let mut state = api::state(&env.db);
        let victim = state.values_mut().next().unwrap();
        let before = victim
            .get(&env.schema, inst.ledger.balance)
            .unwrap()
            .clone();
        victim.set(
            &env.schema,
            inst.ledger.balance,
            Value::Int(before.as_int().unwrap() + 1),
        );
        let verdict = check_ledger(
            &inst.ledger,
            &env.schema,
            &inputs.population,
            &inst.totals.effect,
            &state,
        );
        assert!(verdict.unwrap_err().contains("balance"));
        assert!(check_recovery(&api::state(&env.db), &state).is_err());

        let mut lost_log = inst.totals.effect;
        lost_log.logged += 1;
        let live = api::state(&env.db);
        assert!(check_ledger(
            &inst.ledger,
            &env.schema,
            &inputs.population,
            &lost_log,
            &live
        )
        .is_err());
    }
}
