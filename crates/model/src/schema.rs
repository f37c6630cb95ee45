//! Schema construction, inheritance linearization, and name resolution.
//!
//! A [`Schema`] is the static part of an object base: the classes, their
//! fields (`FIELDS(C)` in the paper's Definition 1), their methods
//! (`METHODS(C)`), and the inheritance relation (`ANCESTORS(C)`).
//!
//! Multiple inheritance is resolved with **C3 linearization** (the
//! monotonic MRO used by Dylan/Python); simple inheritance degenerates to
//! the obvious parent chain. Method lookup — the class-level half of late
//! binding — walks the linearization and picks the nearest definition,
//! which is exactly the "more appropriate method … located in the nearest
//! ancestor class" of Section 2.2.

use crate::error::ModelError;
use crate::ids::{ClassId, FieldId, MethodId};
use crate::types::FieldType;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// A method signature: name and parameter names.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MethodSig {
    /// Method name; overriding definitions share the name of the overridden.
    pub name: String,
    /// Formal parameter names, in order.
    pub params: Vec<String>,
}

/// A method definition site.
#[derive(Clone, Debug)]
pub struct MethodInfo {
    /// This definition's identifier.
    pub id: MethodId,
    /// The class the definition appears in.
    pub owner: ClassId,
    /// Name and parameters.
    pub sig: MethodSig,
    /// The nearest definition this one overrides, if any.
    pub overrides: Option<MethodId>,
}

/// A field definition.
#[derive(Clone, Debug)]
pub struct FieldInfo {
    /// This field's identifier (shared by all inheriting classes).
    pub id: FieldId,
    /// The class that declares the field.
    pub owner: ClassId,
    /// Field name, unique among all fields visible in any class that sees it.
    pub name: String,
    /// Declared type.
    pub ty: FieldType,
}

/// Everything the schema knows about one class.
#[derive(Clone, Debug)]
pub struct ClassInfo {
    /// This class's identifier.
    pub id: ClassId,
    /// Class name.
    pub name: String,
    /// Direct superclasses, in declaration order.
    pub parents: Vec<ClassId>,
    /// C3 linearization: `self` first, then ancestors in resolution order.
    pub linearization: Vec<ClassId>,
    /// Proper ancestors (`ANCESTORS(C)`), i.e. the linearization minus self.
    pub ancestors: Vec<ClassId>,
    /// Fields declared in this class, in declaration order.
    pub own_fields: Vec<FieldId>,
    /// `FIELDS(C)`: all visible fields, root-most class first, then along
    /// the reversed linearization down to this class's own fields.
    pub all_fields: Vec<FieldId>,
    /// Methods defined (introduced or overridden) in this class.
    pub own_methods: Vec<MethodId>,
    /// `METHODS(C)` resolved by late binding: for each visible method name,
    /// the nearest definition in the linearization. Sorted by name, so the
    /// position is this class's stable *method index* (used as the access
    /// mode index by `finecc-core`).
    pub methods: Vec<(String, MethodId)>,
    /// Direct subclasses.
    pub subclasses: Vec<ClassId>,
    /// The domain rooted at this class: itself plus all transitive
    /// subclasses, sorted by id.
    pub domain: Vec<ClassId>,
    /// Indexed by `FieldId`: the field's position in `all_fields`, if
    /// visible. Sized to the largest visible id, not the schema.
    field_pos: Vec<Option<u32>>,
    method_by_name: HashMap<String, MethodId>,
}

impl ClassInfo {
    /// Position of `field` in [`ClassInfo::all_fields`], if visible.
    pub fn field_pos(&self, field: FieldId) -> Option<usize> {
        let pos = self.field_pos.get(field.index()).copied().flatten();
        pos.map(|p| p as usize)
    }

    /// Number of visible fields.
    pub fn field_count(&self) -> usize {
        self.all_fields.len()
    }

    /// Resolve a method name by late binding in this class.
    pub fn method_by_name(&self, name: &str) -> Option<MethodId> {
        self.method_by_name.get(name).copied()
    }

    /// The stable per-class index of a visible method name.
    pub fn method_index(&self, name: &str) -> Option<usize> {
        self.methods
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
    }
}

/// An immutable, validated schema.
#[derive(Clone, Debug, Default)]
pub struct Schema {
    classes: Vec<ClassInfo>,
    fields: Vec<FieldInfo>,
    methods: Vec<MethodInfo>,
    class_by_name: HashMap<String, ClassId>,
}

impl Schema {
    /// Look a class up by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.class_by_name.get(name).copied()
    }

    /// Class metadata. Panics on a foreign id.
    pub fn class(&self, id: ClassId) -> &ClassInfo {
        &self.classes[id.index()]
    }

    /// Field metadata. Panics on a foreign id.
    pub fn field(&self, id: FieldId) -> &FieldInfo {
        &self.fields[id.index()]
    }

    /// Method metadata. Panics on a foreign id.
    pub fn method(&self, id: MethodId) -> &MethodInfo {
        &self.methods[id.index()]
    }

    /// All classes, in declaration order.
    pub fn classes(&self) -> impl DoubleEndedIterator<Item = &ClassInfo> {
        self.classes.iter()
    }

    /// All field definitions.
    pub fn fields(&self) -> impl Iterator<Item = &FieldInfo> {
        self.fields.iter()
    }

    /// All method definition sites.
    pub fn methods(&self) -> impl Iterator<Item = &MethodInfo> {
        self.methods.iter()
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Number of field definitions.
    pub fn field_count(&self) -> usize {
        self.fields.len()
    }

    /// Number of method definition sites.
    pub fn method_count(&self) -> usize {
        self.methods.len()
    }

    /// Resolve a field name visible in `class`.
    pub fn resolve_field(&self, class: ClassId, name: &str) -> Option<FieldId> {
        self.class(class)
            .all_fields
            .iter()
            .copied()
            .find(|&f| self.field(f).name == name)
    }

    /// Late-binding method resolution: the definition a message `name` sent
    /// to a proper instance of `class` is linked to.
    pub fn resolve_method(&self, class: ClassId, name: &str) -> Option<MethodId> {
        self.class(class).method_by_name(name)
    }

    /// `true` if `a` is `c` or a (transitive) superclass of `c`.
    pub fn is_ancestor_or_self(&self, a: ClassId, c: ClassId) -> bool {
        self.class(c).linearization.contains(&a)
    }

    /// `true` if `c` belongs to the domain rooted at `root`.
    pub fn in_domain(&self, root: ClassId, c: ClassId) -> bool {
        self.is_ancestor_or_self(root, c)
    }

    /// The classes of the domain rooted at `root` (root itself included).
    pub fn domain(&self, root: ClassId) -> &[ClassId] {
        &self.class(root).domain
    }
}

#[derive(Clone, Debug)]
enum RawTy {
    Base(FieldType),
    RefByName(String),
}

/// A class under construction inside [`SchemaBuilder`].
#[derive(Debug)]
pub struct ClassDecl {
    name: String,
    parents: Vec<String>,
    fields: Vec<(String, RawTy)>,
    methods: Vec<MethodSig>,
}

impl ClassDecl {
    /// Add a direct superclass by name.
    pub fn inherits(&mut self, parent: &str) -> &mut Self {
        self.parents.push(parent.to_string());
        self
    }

    /// Declare a base-typed field.
    pub fn field(&mut self, name: &str, ty: FieldType) -> &mut Self {
        self.fields.push((name.to_string(), RawTy::Base(ty)));
        self
    }

    /// Declare a reference field pointing into the domain of `class`
    /// (which may be declared later; resolved at [`SchemaBuilder::finish`]).
    pub fn ref_field(&mut self, name: &str, class: &str) -> &mut Self {
        self.fields
            .push((name.to_string(), RawTy::RefByName(class.to_string())));
        self
    }

    /// Declare a method definition (new or overriding).
    pub fn method(&mut self, name: &str, params: &[&str]) -> &mut Self {
        self.methods.push(MethodSig {
            name: name.to_string(),
            params: params.iter().map(|s| s.to_string()).collect(),
        });
        self
    }
}

/// Builds and validates a [`Schema`].
#[derive(Debug, Default)]
pub struct SchemaBuilder {
    decls: Vec<ClassDecl>,
    by_name: HashMap<String, usize>,
    duplicate: Option<String>,
}

impl SchemaBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts (or re-opens) the declaration of a class. Re-opening an
    /// already declared class is an error reported at `finish`.
    pub fn class(&mut self, name: &str) -> &mut ClassDecl {
        match self.by_name.entry(name.to_string()) {
            Entry::Occupied(e) => {
                self.duplicate.get_or_insert_with(|| name.to_string());
                let i = *e.get();
                &mut self.decls[i]
            }
            Entry::Vacant(e) => {
                e.insert(self.decls.len());
                self.decls.push(ClassDecl {
                    name: name.to_string(),
                    parents: Vec::new(),
                    fields: Vec::new(),
                    methods: Vec::new(),
                });
                self.decls.last_mut().expect("just pushed")
            }
        }
    }

    /// Validates everything and produces the immutable [`Schema`].
    pub fn finish(self) -> Result<Schema, ModelError> {
        if let Some(dup) = self.duplicate {
            return Err(ModelError::DuplicateClass(dup));
        }
        let n = self.decls.len();

        // Resolve parent names.
        let mut parents: Vec<Vec<ClassId>> = Vec::with_capacity(n);
        for d in &self.decls {
            let mut ps = Vec::with_capacity(d.parents.len());
            for p in &d.parents {
                let pid = self
                    .by_name
                    .get(p)
                    .ok_or_else(|| ModelError::UnknownParent {
                        class: d.name.clone(),
                        parent: p.clone(),
                    })?;
                let pid = ClassId::from_index(*pid);
                if ps.contains(&pid) {
                    // Repeating a direct parent is harmless but sloppy;
                    // treat as hierarchy inconsistency.
                    return Err(ModelError::InconsistentHierarchy(d.name.clone()));
                }
                ps.push(pid);
            }
            parents.push(ps);
        }

        // Cycle check + topological order (parents before children).
        let topo = toposort(&parents)
            .map_err(|cid| ModelError::InheritanceCycle(self.decls[cid.index()].name.clone()))?;

        // C3 linearizations, computed in topological order.
        let mut linearizations: Vec<Vec<ClassId>> = vec![Vec::new(); n];
        for &c in &topo {
            let ps = &parents[c.index()];
            let inputs: Vec<&[ClassId]> = ps
                .iter()
                .map(|p| linearizations[p.index()].as_slice())
                .collect();
            let lin = c3_merge(c, &inputs, ps).ok_or_else(|| {
                ModelError::InconsistentHierarchy(self.decls[c.index()].name.clone())
            })?;
            linearizations[c.index()] = lin;
        }

        // Fields: assign global ids, in topological order so that a parent's
        // ids exist before a child collects them. Visibility and ambiguity
        // are checked per class over FIELDS(C).
        let mut fields: Vec<FieldInfo> = Vec::new();
        let mut own_fields: Vec<Vec<FieldId>> = vec![Vec::new(); n];
        for &c in &topo {
            let d = &self.decls[c.index()];
            let mut seen: HashMap<&str, ()> = HashMap::new();
            for (fname, rty) in &d.fields {
                if seen.insert(fname.as_str(), ()).is_some() {
                    return Err(ModelError::DuplicateField {
                        class: d.name.clone(),
                        field: fname.clone(),
                    });
                }
                let ty = match rty {
                    RawTy::Base(t) => *t,
                    RawTy::RefByName(cls) => {
                        let target = self
                            .by_name
                            .get(cls)
                            .ok_or_else(|| ModelError::UnknownClass(cls.clone()))?;
                        FieldType::Ref(ClassId::from_index(*target))
                    }
                };
                let id = FieldId::from_index(fields.len());
                fields.push(FieldInfo {
                    id,
                    owner: c,
                    name: fname.clone(),
                    ty,
                });
                own_fields[c.index()].push(id);
            }
        }

        // FIELDS(C) with ambiguity detection.
        let mut all_fields: Vec<Vec<FieldId>> = vec![Vec::new(); n];
        for &c in &topo {
            let mut acc: Vec<FieldId> = Vec::new();
            let mut names: HashMap<&str, FieldId> = HashMap::new();
            for &a in linearizations[c.index()].iter().rev() {
                for &f in &own_fields[a.index()] {
                    let fi = &fields[f.index()];
                    if let Some(prev) = names.insert(fi.name.as_str(), f) {
                        if prev != f {
                            return Err(ModelError::AmbiguousField {
                                class: self.decls[c.index()].name.clone(),
                                field: fi.name.clone(),
                            });
                        }
                    } else {
                        acc.push(f);
                    }
                }
            }
            all_fields[c.index()] = acc;
        }

        // Methods: definition sites get ids in topological order;
        // METHODS(C) resolves each visible name to the nearest definition.
        let mut methods: Vec<MethodInfo> = Vec::new();
        let mut own_methods: Vec<Vec<MethodId>> = vec![Vec::new(); n];
        let mut own_by_name: Vec<HashMap<String, MethodId>> = vec![HashMap::new(); n];
        for &c in &topo {
            let d = &self.decls[c.index()];
            for sig in &d.methods {
                if own_by_name[c.index()].contains_key(&sig.name) {
                    return Err(ModelError::DuplicateMethod {
                        class: d.name.clone(),
                        method: sig.name.clone(),
                    });
                }
                let id = MethodId::from_index(methods.len());
                methods.push(MethodInfo {
                    id,
                    owner: c,
                    sig: sig.clone(),
                    overrides: None, // fixed up below
                });
                own_by_name[c.index()].insert(sig.name.clone(), id);
                own_methods[c.index()].push(id);
            }
        }

        let mut resolved: Vec<Vec<(String, MethodId)>> = vec![Vec::new(); n];
        let mut resolved_map: Vec<HashMap<String, MethodId>> = vec![HashMap::new(); n];
        for &c in &topo {
            let mut map: HashMap<String, MethodId> = HashMap::new();
            // Walk the linearization nearest-first; first definition wins.
            for &a in &linearizations[c.index()] {
                for (name, &mid) in &own_by_name[a.index()] {
                    map.entry(name.clone()).or_insert(mid);
                }
            }
            let mut list: Vec<(String, MethodId)> =
                map.iter().map(|(k, v)| (k.clone(), *v)).collect();
            list.sort_by(|a, b| a.0.cmp(&b.0));
            resolved[c.index()] = list;
            resolved_map[c.index()] = map;
        }

        // `overrides` fix-up: a definition in C overrides the resolution of
        // the same name in the remainder of C's linearization.
        for c in 0..n {
            let lin = &linearizations[c];
            let own: Vec<MethodId> = own_methods[c].clone();
            for mid in own {
                let name = methods[mid.index()].sig.name.clone();
                let mut over = None;
                for &a in lin.iter().skip(1) {
                    if let Some(&prev) = own_by_name[a.index()].get(&name) {
                        over = Some(prev);
                        break;
                    }
                }
                methods[mid.index()].overrides = over;
            }
        }

        // Subclasses and domains.
        let mut subclasses: Vec<Vec<ClassId>> = vec![Vec::new(); n];
        for (c, ps) in parents.iter().enumerate() {
            for p in ps {
                subclasses[p.index()].push(ClassId::from_index(c));
            }
        }
        // Domain: reverse-topological accumulation of subclass domains.
        let mut domains: Vec<Vec<ClassId>> = vec![Vec::new(); n];
        for &c in topo.iter().rev() {
            let mut dom = vec![c];
            for &s in &subclasses[c.index()] {
                dom.extend_from_slice(&domains[s.index()]);
            }
            dom.sort_unstable();
            dom.dedup();
            domains[c.index()] = dom;
        }

        // Assemble.
        let mut classes = Vec::with_capacity(n);
        for (i, d) in self.decls.iter().enumerate() {
            let id = ClassId::from_index(i);
            let lin = linearizations[i].clone();
            let visible_ids = all_fields[i].iter().map(|f| f.index() + 1).max();
            let mut field_pos = vec![None; visible_ids.unwrap_or(0)];
            for (p, &f) in all_fields[i].iter().enumerate() {
                field_pos[f.index()] = Some(p as u32);
            }
            classes.push(ClassInfo {
                id,
                name: d.name.clone(),
                parents: parents[i].clone(),
                ancestors: lin[1..].to_vec(),
                linearization: lin,
                own_fields: own_fields[i].clone(),
                all_fields: all_fields[i].clone(),
                own_methods: own_methods[i].clone(),
                methods: resolved[i].clone(),
                subclasses: subclasses[i].clone(),
                domain: domains[i].clone(),
                field_pos,
                method_by_name: resolved_map[i].clone(),
            });
        }

        Ok(Schema {
            classes,
            fields,
            methods,
            class_by_name: self
                .by_name
                .into_iter()
                .map(|(k, v)| (k, ClassId::from_index(v)))
                .collect(),
        })
    }
}

/// Kahn toposort over the "parent → child" relation; returns parents before
/// children, or the id of a class on a cycle.
fn toposort(parents: &[Vec<ClassId>]) -> Result<Vec<ClassId>, ClassId> {
    let n = parents.len();
    let mut indeg: Vec<usize> = parents.iter().map(Vec::len).collect();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (c, ps) in parents.iter().enumerate() {
        for p in ps {
            children[p.index()].push(c);
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    // Process in declaration order for determinism.
    queue.sort_unstable();
    let mut out = Vec::with_capacity(n);
    let mut head = 0;
    while head < queue.len() {
        let c = queue[head];
        head += 1;
        out.push(ClassId::from_index(c));
        for &ch in &children[c] {
            indeg[ch] -= 1;
            if indeg[ch] == 0 {
                queue.push(ch);
            }
        }
    }
    if out.len() == n {
        Ok(out)
    } else {
        let bad = (0..n).find(|&i| indeg[i] > 0).expect("cycle exists");
        Err(ClassId::from_index(bad))
    }
}

/// C3 linearization: `c` followed by the monotonic merge of the parents'
/// linearizations and the parent list itself. Returns `None` if no
/// consistent order exists.
fn c3_merge(c: ClassId, parent_lins: &[&[ClassId]], parents: &[ClassId]) -> Option<Vec<ClassId>> {
    let mut seqs: Vec<Vec<ClassId>> = parent_lins.iter().map(|s| s.to_vec()).collect();
    if !parents.is_empty() {
        seqs.push(parents.to_vec());
    }
    let mut out = vec![c];
    loop {
        seqs.retain(|s| !s.is_empty());
        if seqs.is_empty() {
            return Some(out);
        }
        // Find a candidate: the head of some sequence that appears in no
        // other sequence's tail.
        let mut chosen: Option<ClassId> = None;
        'cand: for s in &seqs {
            let head = s[0];
            for t in &seqs {
                if t[1..].contains(&head) {
                    continue 'cand;
                }
            }
            chosen = Some(head);
            break;
        }
        let head = chosen?;
        out.push(head);
        for s in &mut seqs {
            if s.first() == Some(&head) {
                s.remove(0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1_schema() -> Schema {
        let mut b = SchemaBuilder::new();
        {
            let c1 = b.class("c1");
            c1.field("f1", FieldType::Int)
                .field("f2", FieldType::Bool)
                .ref_field("f3", "c3")
                .method("m1", &["p1"])
                .method("m2", &["p1"])
                .method("m3", &[]);
        }
        {
            let c2 = b.class("c2");
            c2.inherits("c1")
                .field("f4", FieldType::Int)
                .field("f5", FieldType::Int)
                .field("f6", FieldType::Str)
                .method("m2", &["p1"])
                .method("m4", &["p1", "p2"]);
        }
        {
            let c3 = b.class("c3");
            c3.method("m", &[]);
        }
        b.finish().expect("figure 1 schema is valid")
    }

    #[test]
    fn figure1_shape() {
        let s = figure1_schema();
        let c1 = s.class_by_name("c1").unwrap();
        let c2 = s.class_by_name("c2").unwrap();
        let c3 = s.class_by_name("c3").unwrap();

        assert_eq!(s.class(c1).all_fields.len(), 3);
        assert_eq!(s.class(c2).all_fields.len(), 6);
        assert_eq!(s.class(c2).ancestors, vec![c1]);
        assert_eq!(s.class(c1).ancestors, Vec::<ClassId>::new());
        assert_eq!(s.domain(c1), &[c1, c2]);
        assert_eq!(s.domain(c2), &[c2]);
        assert_eq!(s.domain(c3), &[c3]);

        // FIELDS(c2) starts with the inherited c1 fields, same ids.
        assert_eq!(s.class(c2).all_fields[..3], s.class(c1).all_fields[..]);

        // METHODS(c1) = {m1, m2, m3}; METHODS(c2) = {m1, m2, m3, m4}.
        let names = |c: ClassId| {
            s.class(c)
                .methods
                .iter()
                .map(|(n, _)| n.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(names(c1), ["m1", "m2", "m3"]);
        assert_eq!(names(c2), ["m1", "m2", "m3", "m4"]);
    }

    #[test]
    fn late_binding_resolution() {
        let s = figure1_schema();
        let c1 = s.class_by_name("c1").unwrap();
        let c2 = s.class_by_name("c2").unwrap();

        let m2_in_c1 = s.resolve_method(c1, "m2").unwrap();
        let m2_in_c2 = s.resolve_method(c2, "m2").unwrap();
        assert_ne!(m2_in_c1, m2_in_c2, "c2 overrides m2");
        assert_eq!(s.method(m2_in_c2).overrides, Some(m2_in_c1));
        assert_eq!(s.method(m2_in_c1).overrides, None);

        // m1 and m3 are inherited: same definition site.
        assert_eq!(s.resolve_method(c1, "m1"), s.resolve_method(c2, "m1"));
        assert_eq!(s.resolve_method(c1, "m3"), s.resolve_method(c2, "m3"));
        assert_eq!(s.resolve_method(c1, "m4"), None);
        assert!(s.resolve_method(c2, "m4").is_some());
    }

    #[test]
    fn field_resolution() {
        let s = figure1_schema();
        let c1 = s.class_by_name("c1").unwrap();
        let c2 = s.class_by_name("c2").unwrap();
        assert_eq!(s.resolve_field(c1, "f1"), s.resolve_field(c2, "f1"));
        assert_eq!(s.resolve_field(c1, "f4"), None);
        let f4 = s.resolve_field(c2, "f4").unwrap();
        assert_eq!(s.field(f4).owner, c2);
        let pos = s.class(c2).field_pos(f4).unwrap();
        assert_eq!(pos, 3, "f4 sits right after the inherited c1 fields");
    }

    #[test]
    fn method_index_is_sorted_position() {
        let s = figure1_schema();
        let c2 = s.class_by_name("c2").unwrap();
        assert_eq!(s.class(c2).method_index("m1"), Some(0));
        assert_eq!(s.class(c2).method_index("m4"), Some(3));
        assert_eq!(s.class(c2).method_index("nope"), None);
    }

    #[test]
    fn duplicate_class_rejected() {
        let mut b = SchemaBuilder::new();
        b.class("a");
        b.class("a");
        assert_eq!(
            b.finish().unwrap_err(),
            ModelError::DuplicateClass("a".into())
        );
    }

    #[test]
    fn unknown_parent_rejected() {
        let mut b = SchemaBuilder::new();
        b.class("a").inherits("ghost");
        assert!(matches!(b.finish(), Err(ModelError::UnknownParent { .. })));
    }

    #[test]
    fn cycle_rejected() {
        let mut b = SchemaBuilder::new();
        b.class("a").inherits("b");
        b.class("b").inherits("a");
        assert!(matches!(b.finish(), Err(ModelError::InheritanceCycle(_))));
    }

    #[test]
    fn self_cycle_rejected() {
        let mut b = SchemaBuilder::new();
        b.class("a").inherits("a");
        assert!(matches!(b.finish(), Err(ModelError::InheritanceCycle(_))));
    }

    #[test]
    fn diamond_linearizes() {
        // a <- b, a <- c, (b,c) <- d : classic diamond.
        let mut b = SchemaBuilder::new();
        b.class("a").field("fa", FieldType::Int).method("m", &[]);
        b.class("b").inherits("a").method("m", &[]);
        b.class("c").inherits("a").method("m", &[]);
        b.class("d").inherits("b").inherits("c");
        let s = b.finish().unwrap();
        let d = s.class_by_name("d").unwrap();
        let lin: Vec<String> = s
            .class(d)
            .linearization
            .iter()
            .map(|&c| s.class(c).name.clone())
            .collect();
        assert_eq!(lin, ["d", "b", "c", "a"]);
        // Diamond field is inherited once.
        assert_eq!(s.class(d).all_fields.len(), 1);
        // d's `m` resolves to b's definition (nearest in MRO).
        let m = s.resolve_method(d, "m").unwrap();
        assert_eq!(s.class(s.method(m).owner).name, "b");
    }

    #[test]
    fn inconsistent_hierarchy_rejected() {
        // Classic C3 failure: order conflict between (a,b) and (b,a).
        let mut b = SchemaBuilder::new();
        b.class("a");
        b.class("b");
        b.class("x").inherits("a").inherits("b");
        b.class("y").inherits("b").inherits("a");
        b.class("z").inherits("x").inherits("y");
        assert!(matches!(
            b.finish(),
            Err(ModelError::InconsistentHierarchy(_))
        ));
    }

    #[test]
    fn ambiguous_field_rejected() {
        let mut b = SchemaBuilder::new();
        b.class("a").field("f", FieldType::Int);
        b.class("b").field("f", FieldType::Int);
        b.class("c").inherits("a").inherits("b");
        assert!(matches!(b.finish(), Err(ModelError::AmbiguousField { .. })));
    }

    #[test]
    fn shadowing_own_field_rejected() {
        let mut b = SchemaBuilder::new();
        b.class("a").field("f", FieldType::Int);
        b.class("b").inherits("a").field("f", FieldType::Bool);
        assert!(matches!(b.finish(), Err(ModelError::AmbiguousField { .. })));
    }

    #[test]
    fn duplicate_method_in_class_rejected() {
        let mut b = SchemaBuilder::new();
        b.class("a").method("m", &[]).method("m", &["p"]);
        assert!(matches!(
            b.finish(),
            Err(ModelError::DuplicateMethod { .. })
        ));
    }

    #[test]
    fn duplicate_field_in_class_rejected() {
        let mut b = SchemaBuilder::new();
        b.class("a")
            .field("f", FieldType::Int)
            .field("f", FieldType::Int);
        assert!(matches!(b.finish(), Err(ModelError::DuplicateField { .. })));
    }

    #[test]
    fn unknown_ref_class_rejected() {
        let mut b = SchemaBuilder::new();
        b.class("a").ref_field("f", "ghost");
        assert_eq!(
            b.finish().unwrap_err(),
            ModelError::UnknownClass("ghost".into())
        );
    }

    #[test]
    fn forward_reference_parent_ok() {
        // Child declared before parent.
        let mut b = SchemaBuilder::new();
        b.class("child").inherits("parent");
        b.class("parent").field("f", FieldType::Int);
        let s = b.finish().unwrap();
        let child = s.class_by_name("child").unwrap();
        assert_eq!(s.class(child).all_fields.len(), 1);
    }

    #[test]
    fn deep_chain_linearization() {
        let mut b = SchemaBuilder::new();
        b.class("k0").field("g0", FieldType::Int);
        for i in 1..50 {
            let name = format!("k{i}");
            let parent = format!("k{}", i - 1);
            let decl = b.class(&name);
            decl.field(&format!("g{i}"), FieldType::Int);
            decl.inherits(&parent);
        }
        let s = b.finish().unwrap();
        let leaf = s.class_by_name("k49").unwrap();
        assert_eq!(s.class(leaf).linearization.len(), 50);
        assert_eq!(s.class(leaf).all_fields.len(), 50);
        let root = s.class_by_name("k0").unwrap();
        assert_eq!(s.domain(root).len(), 50);
    }

    #[test]
    fn domain_with_branches() {
        let mut b = SchemaBuilder::new();
        b.class("root");
        b.class("l").inherits("root");
        b.class("r").inherits("root");
        b.class("ll").inherits("l");
        let s = b.finish().unwrap();
        let root = s.class_by_name("root").unwrap();
        assert_eq!(s.domain(root).len(), 4);
        let l = s.class_by_name("l").unwrap();
        assert_eq!(s.domain(l).len(), 2);
        assert_eq!(s.class(root).subclasses.len(), 2);
    }
}
