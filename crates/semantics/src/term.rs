//! String interning for compact graph terms.

use std::collections::HashMap;

/// A compact identifier for an interned term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

/// A bidirectional string ↔ id table.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    by_name: HashMap<String, TermId>,
    names: Vec<String>,
}

impl Interner {
    /// New empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a term, returning its id (idempotent).
    pub fn intern(&mut self, name: &str) -> TermId {
        if let Some(id) = self.by_name.get(name) {
            return *id;
        }
        let id = TermId(self.names.len() as u32);
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Look up an already-interned term.
    pub fn get(&self, name: &str) -> Option<TermId> {
        self.by_name.get(name).copied()
    }

    /// The string for an id.
    pub fn name(&self, id: TermId) -> Option<&str> {
        self.names.get(id.0 as usize).map(String::as_str)
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern(":vessel/227000001");
        let b = i.intern(":vessel/227000001");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn round_trip() {
        let mut i = Interner::new();
        let id = i.intern(":inZone");
        assert_eq!(i.name(id), Some(":inZone"));
        assert_eq!(i.get(":inZone"), Some(id));
        assert_eq!(i.get(":missing"), None);
        assert_eq!(i.name(TermId(99)), None);
    }

    #[test]
    fn ids_are_dense() {
        let mut i = Interner::new();
        let ids: Vec<TermId> = (0..10).map(|n| i.intern(&format!("t{n}"))).collect();
        for (n, id) in ids.iter().enumerate() {
            assert_eq!(id.0 as usize, n);
        }
    }
}
