//! Per-definition extraction of Definitions 6–8.
//!
//! Because our access vectors are sparse and a method definition's code is
//! fixed, the *direct* artifacts depend only on the definition site:
//!
//! * `DAV` — Definition 6(ii) for the defining class; 6(i) (inheritance
//!   pads with `Null`) is the identity on sparse vectors.
//! * `DSC` — Definition 7; stored as *names*, because late binding
//!   re-resolves them in each receiver class (Definition 9 applies
//!   `{C} × DSC`).
//! * `PSC` — Definition 8; resolved to `(ancestor class, definition)`
//!   pairs immediately, since a prefixed call's target never depends on
//!   the receiver.

use crate::av::AccessVector;
use crate::error::CompileError;
use finecc_lang::{analyze, MethodBodies};
use finecc_model::{ClassId, FieldId, MethodId, Schema};

/// The compile-time facts for every method definition site, indexed by
/// [`MethodId`].
#[derive(Clone, Debug, Default)]
pub struct Extraction {
    /// Direct access vectors (Definition 6).
    pub davs: Vec<AccessVector>,
    /// Direct self-calls (Definition 7), as names, sorted.
    pub dscs: Vec<Vec<String>>,
    /// Prefixed self-calls (Definition 8), resolved to the definition the
    /// prefix names, sorted.
    pub pscs: Vec<Vec<(ClassId, MethodId)>>,
    /// Messages sent through reference fields: `(field, method name)`.
    pub external_sends: Vec<Vec<(FieldId, String)>>,
}

impl Extraction {
    /// The direct access vector of a definition.
    pub fn dav(&self, m: MethodId) -> &AccessVector {
        &self.davs[m.index()]
    }

    /// The direct self-call names of a definition.
    pub fn dsc(&self, m: MethodId) -> &[String] {
        &self.dscs[m.index()]
    }

    /// The prefixed self-calls of a definition.
    pub fn psc(&self, m: MethodId) -> &[(ClassId, MethodId)] {
        &self.pscs[m.index()]
    }
}

impl Extraction {
    /// Analyses one definition's resolved body and stores its facts.
    pub(crate) fn analyze_method(
        &mut self,
        schema: &Schema,
        bodies: &MethodBodies,
        method: MethodId,
    ) -> Result<(), CompileError> {
        let facts = analyze(schema, bodies, method).map_err(|cause| {
            let mi = schema.method(method);
            CompileError::Analysis {
                class: mi.owner,
                method,
                name: mi.sig.name.clone(),
                cause,
            }
        })?;
        let m = method.index();
        self.davs[m] = AccessVector::from_reads_writes(facts.reads, facts.writes);
        self.dscs[m] = facts.self_calls.into_iter().collect();
        self.pscs[m] = facts.prefixed_calls.into_iter().collect();
        self.external_sends[m] = facts.external_sends.into_iter().collect();
        Ok(())
    }
}

/// Runs the static analysis of every method definition in the schema.
pub fn extract(schema: &Schema, bodies: &MethodBodies) -> Result<Extraction, CompileError> {
    let n = schema.method_count();
    let mut ex = Extraction {
        davs: vec![AccessVector::default(); n],
        dscs: vec![Vec::new(); n],
        pscs: vec![Vec::new(); n],
        external_sends: vec![Vec::new(); n],
    };
    for mi in schema.methods() {
        ex.analyze_method(schema, bodies, mi.id)?;
    }
    Ok(ex)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::AccessMode;
    use finecc_lang::parser::{build_schema, FIGURE1_SOURCE};

    #[test]
    fn figure1_davs_match_paper() {
        let (s, b) = build_schema(FIGURE1_SOURCE).unwrap();
        let ex = extract(&s, &b).unwrap();
        let c1 = s.class_by_name("c1").unwrap();
        let c2 = s.class_by_name("c2").unwrap();
        let fid = |c, n| s.resolve_field(c, n).unwrap();

        // DAV(c1,m2) = (Write f1, Read f2, Null f3)
        let m2c1 = s.resolve_method(c1, "m2").unwrap();
        let dav = ex.dav(m2c1);
        assert_eq!(dav.mode_of(fid(c1, "f1")), AccessMode::Write);
        assert_eq!(dav.mode_of(fid(c1, "f2")), AccessMode::Read);
        assert_eq!(dav.mode_of(fid(c1, "f3")), AccessMode::Null);

        // DAV(c2,m2) = (Null f1..f3, Write f4, Read f5, Null f6)
        let m2c2 = s.resolve_method(c2, "m2").unwrap();
        let dav = ex.dav(m2c2);
        assert_eq!(dav.mode_of(fid(c1, "f1")), AccessMode::Null);
        assert_eq!(dav.mode_of(fid(c2, "f4")), AccessMode::Write);
        assert_eq!(dav.mode_of(fid(c2, "f5")), AccessMode::Read);
        assert_eq!(dav.mode_of(fid(c2, "f6")), AccessMode::Null);

        // DAV(c2,m4) = (Read f5, Write f6)
        let m4 = s.resolve_method(c2, "m4").unwrap();
        let dav = ex.dav(m4);
        assert_eq!(dav.mode_of(fid(c2, "f5")), AccessMode::Read);
        assert_eq!(dav.mode_of(fid(c2, "f6")), AccessMode::Write);

        // DAV(c1,m1) = all Null, DSC = {m2, m3}.
        let m1 = s.resolve_method(c1, "m1").unwrap();
        assert!(ex.dav(m1).is_empty());
        assert_eq!(ex.dsc(m1), ["m2", "m3"]);
        assert!(ex.psc(m1).is_empty());

        // PSC(c2,m2) = {(c1, m2-in-c1)}.
        assert_eq!(ex.psc(m2c2), [(c1, m2c1)]);
        // m3 sends through f3.
        let m3 = s.resolve_method(c1, "m3").unwrap();
        assert_eq!(ex.external_sends[m3.index()].len(), 1);
    }

    #[test]
    fn analysis_error_is_contextualized() {
        let src = "class a { fields { x: integer; } method bad is ghost := 1 end }";
        let (s, b) = build_schema(src).unwrap();
        let err = extract(&s, &b).unwrap_err();
        let CompileError::Analysis { name, .. } = err;
        assert_eq!(name, "bad");
    }

    #[test]
    fn inherited_methods_share_extraction() {
        // The definition site is the unit: an inherited method has no
        // separate entry (Definition 6(i)/7(i)/8(i) are the identity).
        let (s, b) = build_schema(FIGURE1_SOURCE).unwrap();
        let ex = extract(&s, &b).unwrap();
        assert_eq!(ex.davs.len(), s.method_count());
        let c1 = s.class_by_name("c1").unwrap();
        let c2 = s.class_by_name("c2").unwrap();
        // m1 resolves to the same definition in both classes.
        assert_eq!(
            s.resolve_method(c1, "m1").unwrap(),
            s.resolve_method(c2, "m1").unwrap()
        );
    }
}
