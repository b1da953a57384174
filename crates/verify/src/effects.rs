//! Effect analysis: the exact tables a program reads and writes.
//!
//! The analysis first computes *liveness* (statements reachable from the
//! returns or from a side-effecting `Persist`) and only then collects
//! table names, so a dead `Load` is not a read. The result is the exact
//! set of tables whose state can influence (reads) or be influenced by
//! (writes) an execution, which is what plan-cache freshness and view
//! change capture must be keyed on.

use voodoo_core::{Op, Program};

/// The exact tables a program reads and writes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Effects {
    /// Tables a live `Load` reads, sorted and deduplicated.
    pub reads: Vec<String>,
    /// Tables a `Persist` writes, sorted and deduplicated.
    pub writes: Vec<String>,
}

impl Effects {
    /// The union of reads and writes, sorted and deduplicated — the
    /// table set a cached plan's freshness must be keyed on.
    pub fn tables(&self) -> Vec<&str> {
        let mut all: Vec<&str> = self
            .reads
            .iter()
            .chain(self.writes.iter())
            .map(|s| s.as_str())
            .collect();
        all.sort_unstable();
        all.dedup();
        all
    }
}

/// Which statements can influence an execution's observable outcome:
/// everything reachable backwards from a return or from a side-effecting
/// statement (`Persist` executes unconditionally on every backend).
pub fn live_statements(program: &Program) -> Vec<bool> {
    let n = program.len();
    let mut live = vec![false; n];
    let mut work: Vec<usize> = Vec::new();
    for r in program.returns() {
        if r.index() < n && !live[r.index()] {
            live[r.index()] = true;
            work.push(r.index());
        }
    }
    for (i, stmt) in program.stmts().iter().enumerate() {
        if stmt.op.has_side_effect() && !live[i] {
            live[i] = true;
            work.push(i);
        }
    }
    while let Some(i) = work.pop() {
        for input in program.stmts()[i].op.inputs() {
            let j = input.index();
            if j < i && !live[j] {
                live[j] = true;
                work.push(j);
            }
        }
    }
    live
}

/// Compute the exact per-program table read/write sets.
///
/// Pure in the program (no catalog needed), so it is cheap enough to run
/// on every plan-cache lookup.
pub fn effects(program: &Program) -> Effects {
    let live = live_statements(program);
    let mut reads: Vec<String> = Vec::new();
    let mut writes: Vec<String> = Vec::new();
    for (i, stmt) in program.stmts().iter().enumerate() {
        if !live[i] {
            continue;
        }
        match &stmt.op {
            Op::Load { name } => reads.push(name.clone()),
            Op::Persist { name, .. } => writes.push(name.clone()),
            _ => {}
        }
    }
    reads.sort_unstable();
    reads.dedup();
    writes.sort_unstable();
    writes.dedup();
    Effects { reads, writes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_loads_only() {
        let mut p = Program::new();
        let a = p.load("used");
        let _dead = p.load("dead");
        let b = p.add_const(a, 1i64);
        p.ret(b);
        let fx = effects(&p);
        assert_eq!(fx.reads, vec!["used".to_string()]);
        assert!(fx.writes.is_empty());
    }

    #[test]
    fn persist_roots_liveness() {
        let mut p = Program::new();
        let a = p.load("src");
        let b = p.mul_const(a, 2i64);
        p.persist("dst", b);
        let c = p.constant(1i64);
        p.ret(c);
        let fx = effects(&p);
        // `src` feeds only the persist, but the persist executes
        // unconditionally — so `src` is read.
        assert_eq!(fx.reads, vec!["src".to_string()]);
        assert_eq!(fx.writes, vec!["dst".to_string()]);
        assert_eq!(fx.tables(), vec!["dst", "src"]);
    }

    #[test]
    fn reads_sorted_and_deduplicated() {
        let mut p = Program::new();
        let a = p.load("b_table");
        let b = p.load("a_table");
        let c = p.load("b_table");
        let s = p.add(a, b);
        let s2 = p.add(s, c);
        p.ret(s2);
        assert_eq!(
            effects(&p).reads,
            vec!["a_table".to_string(), "b_table".to_string()]
        );
    }
}
