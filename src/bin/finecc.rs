//! `finecc` — command-line front end.
//!
//! ```text
//! finecc check  <schema.fcc>                 compile and report errors
//! finecc report <schema.fcc>                 per-class modes, TAVs, densities
//! finecc matrix <schema.fcc> <class>         generated commutativity matrix
//! finecc graph  <schema.fcc> <class>         late-binding resolution graph (DOT)
//! finecc run    <schema.fcc> <class> <method> [int args…]
//!                                            create an instance, send the
//!                                            message under the TAV scheme
//! ```
//!
//! Schema files use the method language (see README); try it on the
//! paper's example with `finecc matrix <(echo "$FIGURE1")" c2` or any
//! file containing Figure 1's source.

#![forbid(unsafe_code)]

use finecc::core::compile;
use finecc::lang::build_schema;
use finecc::model::Value;
use finecc::runtime::{run_txn, CcScheme, Env, TavScheme};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  finecc check  <schema>\n  finecc report <schema>\n  \
         finecc matrix <schema> <class>\n  finecc graph  <schema> <class>\n  \
         finecc run    <schema> <class> <method> [int args...]"
    );
    ExitCode::from(2)
}

fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => return usage(),
    };
    let Some(path) = rest.first() else {
        return usage();
    };
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => return fail(format_args!("cannot read `{path}`: {e}")),
    };
    let (schema, bodies) = match build_schema(&source) {
        Ok(x) => x,
        Err(e) => return fail(e),
    };
    let compiled = match compile(&schema, &bodies) {
        Ok(c) => c,
        Err(e) => return fail(e),
    };

    match cmd {
        "check" => {
            println!(
                "ok: {} classes, {} method definitions, {} access modes",
                schema.class_count(),
                schema.method_count(),
                compiled.total_modes()
            );
            ExitCode::SUCCESS
        }
        "report" => {
            print!("{}", compiled.report(&schema));
            ExitCode::SUCCESS
        }
        "matrix" | "graph" => {
            let Some(class_name) = rest.get(1) else {
                return usage();
            };
            let Some(class) = schema.class_by_name(class_name) else {
                return fail(format_args!("no class `{class_name}`"));
            };
            if cmd == "matrix" {
                print!("{}", compiled.class(class).to_table_string());
            } else {
                print!("{}", compiled.graph(class).to_dot(&schema));
            }
            ExitCode::SUCCESS
        }
        "run" => {
            let (Some(class_name), Some(method)) = (rest.get(1), rest.get(2)) else {
                return usage();
            };
            let Some(class) = schema.class_by_name(class_name) else {
                return fail(format_args!("no class `{class_name}`"));
            };
            let mut call_args = Vec::new();
            for a in &rest[3..] {
                match a.parse::<i64>() {
                    Ok(v) => call_args.push(Value::Int(v)),
                    Err(_) => return fail(format_args!("argument `{a}` is not an integer")),
                }
            }
            let env = Env::new(schema, bodies, compiled);
            let oid = env.db.create(class);
            let scheme = TavScheme::new(env);
            let method = method.clone();
            match run_txn(&scheme, 3, |txn| scheme.send(txn, oid, &method, &call_args)) {
                finecc::runtime::TxnOutcome::Committed { value, .. } => {
                    println!("result: {value}");
                    let env = scheme.env();
                    let ci = env.schema.class(class);
                    println!("instance state after the call:");
                    for &f in &ci.all_fields.clone() {
                        let name = env.schema.field(f).name.clone();
                        let v = env.db.read(oid, f).expect("instance exists");
                        println!("  {name} = {v}");
                    }
                    let st = scheme.lock_manager().stats.snapshot();
                    println!("lock requests: {}", st.requests);
                    ExitCode::SUCCESS
                }
                finecc::runtime::TxnOutcome::Failed(e) => fail(e),
                finecc::runtime::TxnOutcome::Exhausted { .. } => fail("deadlock retries exhausted"),
            }
        }
        _ => usage(),
    }
}
