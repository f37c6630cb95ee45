//! Quickstart: compile the paper's Figure 1 and inspect every artifact
//! the compiler derives — access vectors, the late-binding resolution
//! graph, transitive access vectors, and the generated commutativity
//! matrix (Table 2) — then run a transaction under the TAV scheme.
//!
//! Run with: `cargo run --example quickstart`

use finecc::lang::parser::FIGURE1_SOURCE;
use finecc::model::Value;
use finecc::prelude::*;
use finecc::runtime::{read_metrics, run_txn, Env, SchemeKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Parse the schema + method bodies and compile the CC artifacts.
    let (schema, bodies) = build_schema(FIGURE1_SOURCE)?;
    let compiled = compile(&schema, &bodies)?;

    println!("== Classical compatibility (Table 1) ==");
    println!("{}", finecc::core::mode::table1_string());

    // 2. Direct and transitive access vectors of class c2 (§4.3).
    let c2 = schema.class_by_name("c2").expect("c2 exists");
    let table = compiled.class(c2);
    let field_names: Vec<(FieldId, String)> = schema
        .class(c2)
        .all_fields
        .iter()
        .map(|&f| (f, schema.field(f).name.clone()))
        .collect();
    println!("== Access vectors of class c2 (§4.3) ==");
    for (i, name) in table.method_names.iter().enumerate() {
        let named =
            |av: &AccessVector| av.display_over(field_names.iter().map(|(f, n)| (*f, n.as_str())));
        println!("  DAV({name}) = {}", named(table.dav(i)));
        println!("  TAV({name}) = {}", named(table.tav(i)));
    }

    // 3. The late-binding resolution graph of c2 (Figure 2).
    println!("\n== Late-binding resolution graph of c2 (Figure 2) ==");
    for (from, to) in compiled.graph(c2).edge_labels(&schema) {
        println!("  {from} -> {to}");
    }

    // 4. The generated commutativity matrix (Table 2).
    println!("\n== Generated commutativity matrix of c2 (Table 2) ==");
    println!("{}", table.to_table_string());

    // The paper's punchline: m2 and m4 are both writers, yet commute.
    assert_eq!(table.commute_names("m2", "m4"), Some(true));
    assert_eq!(table.commute_names("m1", "m2"), Some(false));

    // 5. Execute a transaction under the TAV scheme.
    let env = Env::new(schema, bodies, compiled);
    let c2 = env.schema.class_by_name("c2").unwrap();
    let oid = env.db.create(c2);
    let scheme = SchemeKind::Tav.build(env);

    let outcome = run_txn(scheme.as_ref(), 3, |txn| {
        scheme.send(txn, oid, "m1", &[Value::Int(5)])
    });
    assert!(outcome.is_committed());
    println!("ran m1(5) on a fresh c2 instance:");
    println!("  f1 = {}", scheme.env().read_named(oid, "c2", "f1"));
    println!("  f4 = {}", scheme.env().read_named(oid, "c2", "f4"));
    println!(
        "  lock requests for the whole nested call: {}",
        read_metrics(scheme.as_ref())
            .get("finecc.lock.requests")
            .expect("tav has a lock manager")
    );
    Ok(())
}
