//! Per-window cells of one series, in window order.
//!
//! A metric stream mostly stays in the window it touched last: events
//! arrive in time order, give or take the completions an engine stamps
//! a batch ahead, which near a boundary alternate between a window and
//! the next. [`Windows`] keeps the touched windows in a sorted `Vec`
//! and remembers its last update: a timestamp inside that window finds
//! its cell by one range test (no division, no search), a touched
//! neighbour of it by a comparison or two, and any other window by a
//! binary search (plus a shifting insert the first time it is touched).

/// Cells keyed by window index, ascending. Only touched windows exist.
#[derive(Debug, Clone)]
pub(crate) struct Windows<T> {
    /// Window width in clock units (at least 1).
    width: u64,
    cells: Vec<(u64, T)>,
    /// Index of the cell updated last (0 while empty) and the first
    /// timestamp of its window.
    last: usize,
    last_start: u64,
}

impl<T> Windows<T> {
    pub(crate) fn new(width: u64) -> Self {
        Windows {
            width: width.max(1),
            cells: Vec::new(),
            last: 0,
            last_start: 0,
        }
    }

    /// The cell of the window containing `ts`, made by `init` on its
    /// first touch.
    #[inline]
    pub(crate) fn at(&mut self, ts: u64, init: impl FnOnce() -> T) -> &mut T {
        if self.cells.is_empty() || ts.wrapping_sub(self.last_start) >= self.width {
            return self.window(ts / self.width, init);
        }
        &mut self.cells[self.last].1
    }

    /// The cell of window `w`, made by `init` on its first touch.
    pub(crate) fn window(&mut self, w: u64, init: impl FnOnce() -> T) -> &mut T {
        let holds = |i: usize| self.cells.get(i).is_some_and(|c| c.0 == w);
        if !holds(self.last) {
            let toward = match self.cells.get(self.last) {
                Some(c) if c.0 < w => self.last + 1,
                _ => self.last.wrapping_sub(1),
            };
            self.last = match holds(toward) {
                true => toward,
                false => self.find_or_insert(w, init),
            };
        }
        self.last_start = w.saturating_mul(self.width);
        &mut self.cells[self.last].1
    }

    fn find_or_insert(&mut self, w: u64, init: impl FnOnce() -> T) -> usize {
        match self.cells.binary_search_by_key(&w, |c| c.0) {
            Ok(i) => i,
            Err(i) => {
                self.cells.insert(i, (w, init()));
                i
            }
        }
    }

    /// The cell of window `w`, if touched.
    pub(crate) fn get(&self, w: u64) -> Option<&T> {
        let i = self.cells.binary_search_by_key(&w, |c| c.0).ok()?;
        Some(&self.cells[i].1)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// `(first, last)` touched window indices.
    pub(crate) fn span(&self) -> Option<(u64, u64)> {
        Some((self.cells.first()?.0, self.cells.last()?.0))
    }

    /// Every touched `(window, cell)`, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.cells.iter().map(|(w, cell)| (*w, cell))
    }

    /// The touched cells of windows `lo..=hi`, ascending.
    pub(crate) fn range(&self, lo: u64, hi: u64) -> impl Iterator<Item = &T> {
        let start = self.cells.partition_point(|c| c.0 < lo);
        self.cells[start..].iter().take_while(move |c| c.0 <= hi).map(|c| &c.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_stay_sorted_whatever_the_touch_order() {
        let mut w: Windows<u32> = Windows::new(10);
        assert_eq!(w.span(), None);
        // By timestamp and by window index, on both edges of a window.
        for (ts, add) in [(50u64, 1u32), (59, 1), (70, 1), (60, 1)] {
            *w.at(ts, || 0) += add;
        }
        for (window, add) in [(5u64, 1u32), (0, 1)] {
            *w.window(window, || 0) += add;
        }
        *w.at(9, || 0) += 0;
        *w.at(79, || 0) += 1;
        let cells: Vec<(u64, u32)> = w.iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(cells, vec![(0, 1), (5, 3), (6, 1), (7, 2)]);
        assert_eq!(w.span(), Some((0, 7)));
        assert_eq!(w.get(6), Some(&1));
        assert_eq!(w.get(4), None);
        assert_eq!(w.range(1, 6).copied().collect::<Vec<_>>(), vec![3, 1]);
        assert_eq!(w.range(8, 9).count(), 0);
    }
}
