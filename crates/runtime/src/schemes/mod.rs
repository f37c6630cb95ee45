//! The six concurrency-control schemes: one strict-2PL skeleton
//! ([`lock::LockScheme`]) under four [`lock::LockPolicy`]s, and the
//! multi-version scheme at two isolation levels.

pub mod fieldlock;
pub mod lock;
pub mod mvcc;
pub mod relational;
pub mod rw;
pub mod tav;

use crate::env::Env;
use finecc_lang::{DataAccess, ExecError, Interpreter};
use finecc_model::{Oid, Value};

/// Builds an interpreter over the environment (shared by all schemes).
pub(crate) fn interpreter(env: &Env) -> Interpreter<'_> {
    Interpreter::new(&env.schema, &env.bodies, &env.builtins)
}

/// Sends `method(args)` to each of `oids` in turn through one data
/// access, collecting the results; stops at the first failure.
pub(crate) fn send_each(
    env: &Env,
    da: &mut dyn DataAccess,
    oids: impl IntoIterator<Item = Oid>,
    method: &str,
    args: &[Value],
) -> Result<Vec<Value>, ExecError> {
    interpreter(env).send_each(da, oids, method, args)
}
