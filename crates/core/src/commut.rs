//! From access vectors to access modes (§5.1): the generated per-class
//! commutativity matrix.
//!
//! Locking with whole vectors would cost O(|FIELDS(C)|) per check; the
//! paper instead *names* each method's transitive access vector with a
//! small integer — the method's **access mode** in its class — and
//! materializes the commutativity relation as a boolean matrix. The
//! run-time check is then exactly one table lookup, as cheap as classical
//! read/write compatibility ("the parallelism which is allowed by access
//! modes is exactly the one which is permitted by access vectors").
//!
//! Table 2 of the paper is [`ClassTable::to_table_string`] for class c2.

use crate::av::AccessVector;
use finecc_model::{ClassId, MethodId};
use std::collections::HashMap;
use std::fmt;

/// The compiled concurrency-control artifact of one class: method access
/// modes (indices), their DAVs/TAVs, and the commutativity matrix.
#[derive(Clone, Debug)]
pub struct ClassTable {
    /// The class.
    pub class: ClassId,
    /// Class name (for rendering).
    pub class_name: String,
    /// Method names in `METHODS(C)` order (name-sorted); the position is
    /// the method's **access mode** in this class.
    pub method_names: Vec<String>,
    /// The definition site each name resolves to (late binding at the
    /// class level).
    pub method_ids: Vec<MethodId>,
    /// Direct access vectors of the resolved definitions, by mode index.
    pub davs: Vec<AccessVector>,
    /// Transitive access vectors (Definition 10), by mode index.
    pub tavs: Vec<AccessVector>,
    matrix: Vec<bool>,
    /// Indexed by `MethodId`: the definition's access mode here, if a
    /// name resolves to it. Sized to the largest resolved id, not the
    /// schema.
    by_mid: Vec<Option<u16>>,
    by_name: HashMap<String, u16>,
}

impl ClassTable {
    /// Builds the table from resolved methods and their TAVs.
    /// `methods[i]` provides the name, definition and both vectors of
    /// access mode `i`.
    pub fn new(
        class: ClassId,
        class_name: String,
        methods: Vec<(String, MethodId, AccessVector, AccessVector)>,
    ) -> ClassTable {
        let n = methods.len();
        let mut method_names = Vec::with_capacity(n);
        let mut method_ids = Vec::with_capacity(n);
        let mut davs = Vec::with_capacity(n);
        let mut tavs = Vec::with_capacity(n);
        let resolved_ids = methods.iter().map(|(_, mid, ..)| mid.index() + 1).max();
        let mut by_mid = vec![None; resolved_ids.unwrap_or(0)];
        let mut by_name = HashMap::with_capacity(n);
        for (i, (name, mid, dav, tav)) in methods.into_iter().enumerate() {
            by_mid[mid.index()] = Some(i as u16);
            by_name.insert(name.clone(), i as u16);
            method_names.push(name);
            method_ids.push(mid);
            davs.push(dav);
            tavs.push(tav);
        }
        let mut matrix = vec![false; n * n];
        for i in 0..n {
            for j in 0..=i {
                let c = tavs[i].commutes(&tavs[j]);
                matrix[i * n + j] = c;
                matrix[j * n + i] = c;
            }
        }
        ClassTable {
            class,
            class_name,
            method_names,
            method_ids,
            davs,
            tavs,
            matrix,
            by_mid,
            by_name,
        }
    }

    /// Number of access modes (= number of visible methods).
    pub fn mode_count(&self) -> usize {
        self.method_names.len()
    }

    /// The access mode index of a method name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).map(|&i| i as usize)
    }

    /// The access mode index of a resolved definition.
    pub fn index_of_mid(&self, mid: MethodId) -> Option<usize> {
        let mode = self.by_mid.get(mid.index()).copied().flatten();
        mode.map(|i| i as usize)
    }

    /// The commutativity of two access modes — one table lookup.
    #[inline]
    pub fn commute(&self, i: usize, j: usize) -> bool {
        self.matrix[i * self.mode_count() + j]
    }

    /// Commutativity by method names.
    pub fn commute_names(&self, a: &str, b: &str) -> Option<bool> {
        Some(self.commute(self.index_of(a)?, self.index_of(b)?))
    }

    /// The transitive access vector of mode `i`.
    pub fn tav(&self, i: usize) -> &AccessVector {
        &self.tavs[i]
    }

    /// The direct access vector of mode `i`.
    pub fn dav(&self, i: usize) -> &AccessVector {
        &self.davs[i]
    }

    /// Renders the matrix exactly like the paper's Table 2: `yes` where
    /// the modes commute, `no` where they conflict.
    pub fn to_table_string(&self) -> String {
        let mut out = String::new();
        let w = self
            .method_names
            .iter()
            .map(String::len)
            .max()
            .unwrap_or(2)
            .max(3);
        out.push_str(&" ".repeat(w + 1));
        for name in &self.method_names {
            out.push_str(&format!("{name:<w$} ", w = w));
        }
        out.push('\n');
        for (i, name) in self.method_names.iter().enumerate() {
            out.push_str(&format!("{name:<w$} ", w = w));
            for j in 0..self.mode_count() {
                let cell = if self.commute(i, j) { "yes" } else { "no" };
                out.push_str(&format!("{cell:<w$} ", w = w));
            }
            out.push('\n');
        }
        out
    }

    /// Grants commutativity between two access modes — the ad hoc
    /// override hook of §3 (e.g. Escrow-style increment/decrement).
    /// Symmetry is maintained. Overrides can only *add* parallelism; the
    /// generated conflicts they remove become the declarer's correctness
    /// obligation (see [`crate::adhoc`]).
    pub fn grant_commute(&mut self, i: usize, j: usize) {
        let n = self.mode_count();
        self.matrix[i * n + j] = true;
        self.matrix[j * n + i] = true;
    }

    /// `true` when the matrix is symmetric (always, by construction; used
    /// by property tests).
    pub fn is_symmetric(&self) -> bool {
        let n = self.mode_count();
        (0..n).all(|i| (0..n).all(|j| self.commute(i, j) == self.commute(j, i)))
    }
}

impl fmt::Display for ClassTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "commutativity relation of class {}:\n{}",
            self.class_name,
            self.to_table_string()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::AccessMode::*;
    use finecc_model::FieldId;

    fn av(pairs: &[(u32, crate::mode::AccessMode)]) -> AccessVector {
        AccessVector::from_pairs(pairs.iter().map(|&(i, m)| (FieldId(i), m)))
    }

    fn sample() -> ClassTable {
        // Hand-built vectors matching §4.3's c2 TAVs.
        let m1 = av(&[(0, Write), (1, Read), (2, Read), (3, Write), (4, Read)]);
        let m2 = av(&[(0, Write), (1, Read), (3, Write), (4, Read)]);
        let m3 = av(&[(1, Read), (2, Read)]);
        let m4 = av(&[(4, Read), (5, Write)]);
        ClassTable::new(
            ClassId(1),
            "c2".into(),
            vec![
                ("m1".into(), MethodId(0), AccessVector::empty(), m1),
                ("m2".into(), MethodId(3), AccessVector::empty(), m2),
                ("m3".into(), MethodId(2), AccessVector::empty(), m3),
                ("m4".into(), MethodId(4), AccessVector::empty(), m4),
            ],
        )
    }

    #[test]
    fn table2_truth_values() {
        let t = sample();
        let expect = [
            // m1    m2     m3    m4    — Table 2 of the paper.
            [false, false, true, true],
            [false, false, true, true],
            [true, true, true, true],
            [true, true, true, false],
        ];
        for (i, row) in expect.iter().enumerate() {
            for (j, &want) in row.iter().enumerate() {
                assert_eq!(
                    t.commute(i, j),
                    want,
                    "({}, {})",
                    t.method_names[i],
                    t.method_names[j]
                );
            }
        }
    }

    #[test]
    fn lookups() {
        let t = sample();
        assert_eq!(t.index_of("m3"), Some(2));
        assert_eq!(t.index_of("zz"), None);
        assert_eq!(t.index_of_mid(MethodId(3)), Some(1));
        assert_eq!(t.index_of_mid(MethodId(99)), None);
        assert_eq!(t.commute_names("m2", "m4"), Some(true));
        assert_eq!(t.commute_names("m1", "m2"), Some(false));
        assert_eq!(t.commute_names("m1", "zz"), None);
    }

    #[test]
    fn symmetric_and_rendered() {
        let t = sample();
        assert!(t.is_symmetric());
        let s = t.to_table_string();
        assert_eq!(s.lines().count(), 5);
        assert!(s.contains("yes") && s.contains("no"));
        assert!(t.to_string().contains("class c2"));
    }

    #[test]
    fn empty_class_table() {
        let t = ClassTable::new(ClassId(0), "empty".into(), vec![]);
        assert_eq!(t.mode_count(), 0);
        assert!(t.is_symmetric());
    }
}
