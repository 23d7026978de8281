//! Flat per-run lookup tables shared by the serve and fleet engines.
//!
//! Both event loops ask two questions per request — which queue does
//! this network kind use, and what does a batch of it cost — and both
//! answers are pure in small integer keys. A trace answers the first
//! when it is built (each request word carries [`KindIndex`]'s answer),
//! and a run answers the second by index in a [`CostTable`] instead of
//! asking the cost model again.

use crate::error::Result;
use tango_nets::NetworkKind;

/// Maps a [`NetworkKind`] to its index in a trace's kind list (the
/// first occurrence, when a list names a kind twice).
#[derive(Debug, Clone)]
pub struct KindIndex {
    /// `kind as usize` → index into the list, `usize::MAX` when absent.
    slots: Vec<usize>,
}

impl KindIndex {
    /// Indexes `kinds`.
    pub fn new(kinds: &[NetworkKind]) -> Self {
        let mut slots = Vec::new();
        for (i, &kind) in kinds.iter().enumerate() {
            let code = kind as usize;
            if slots.len() <= code {
                slots.resize(code + 1, usize::MAX);
            }
            if slots[code] == usize::MAX {
                slots[code] = i;
            }
        }
        KindIndex { slots }
    }

    /// Index of `kind` in the list, or `None` when it is not in it.
    pub fn get(&self, kind: NetworkKind) -> Option<usize> {
        self.slots.get(kind as usize).copied().filter(|&i| i != usize::MAX)
    }
}

/// Batch costs already asked for in this run, by `(row, batch)`. A row
/// is whatever shares one cost curve — a kind in serve, a `(pool,
/// kind)` pair in the fleet. Each cost model is consulted once per
/// distinct query, in first-use order, so a store-backed model sees the
/// calls (and raises the errors) it would without the table.
#[derive(Debug, Clone)]
pub struct CostTable<C> {
    rows: Vec<Vec<Option<C>>>,
}

impl<C: Copy> CostTable<C> {
    /// An empty table of `rows` cost curves.
    pub fn new(rows: usize) -> Self {
        CostTable {
            rows: vec![Vec::new(); rows],
        }
    }

    /// The cost of `batch` on `row`, computed by `ask` the first time.
    ///
    /// # Errors
    ///
    /// Propagates `ask`'s failure; nothing is stored then.
    #[inline]
    pub fn get(&mut self, row: usize, batch: u32, ask: impl FnOnce() -> Result<C>) -> Result<C> {
        match self.rows[row].get(batch as usize) {
            Some(&Some(cost)) => Ok(cost),
            _ => self.ask_and_keep(row, batch as usize, ask),
        }
    }

    #[cold]
    fn ask_and_keep(&mut self, row: usize, batch: usize, ask: impl FnOnce() -> Result<C>) -> Result<C> {
        let cost = ask()?;
        let costs = &mut self.rows[row];
        if costs.len() <= batch {
            costs.resize(batch + 1, None);
        }
        costs[batch] = Some(cost);
        Ok(cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ServeError;

    #[test]
    fn kind_index_is_position_with_first_occurrence_winning() {
        let kinds = [NetworkKind::Gru, NetworkKind::CifarNet, NetworkKind::Gru];
        let index = KindIndex::new(&kinds);
        for kind in NetworkKind::EXTENDED {
            assert_eq!(index.get(kind), kinds.iter().position(|&k| k == kind), "{kind:?}");
        }
        assert_eq!(KindIndex::new(&[]).get(NetworkKind::CifarNet), None);
    }

    #[test]
    fn cost_table_asks_once_per_query_and_keeps_no_failure() {
        let mut table: CostTable<u64> = CostTable::new(2);
        let mut asked = 0;
        for _ in 0..3 {
            let cost = table.get(1, 4, || {
                asked += 1;
                Ok(40)
            });
            assert_eq!(cost.unwrap(), 40);
        }
        assert_eq!(asked, 1);
        let failed = table.get(0, 4, || Err(ServeError::Config("no".into())));
        assert!(failed.is_err());
        assert_eq!(table.get(0, 4, || Ok(7)).unwrap(), 7, "a failure is not remembered");
        assert_eq!(
            table.get(1, 1, || Ok(9)).unwrap(),
            9,
            "a smaller batch after a larger one"
        );
    }
}
