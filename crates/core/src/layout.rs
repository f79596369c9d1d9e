//! Physical layout of an encrypted table in NDP-attached memory.
//!
//! The paper indexes pads by the *physical byte address* of each cipher
//! block (Alg 1 line 6), so the layout — base address, shape, element width
//! — determines every pad. Rows are stored contiguously, row-major, exactly
//! as an embedding table lives in DRAM.

use crate::error::Error;
use secndp_arith::ring::RingWord;
use secndp_cipher::otp::MAX_ADDR;

/// Shape and placement of an `n × m` matrix of `wₑ`-bit elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableLayout {
    base_addr: u64,
    rows: usize,
    cols: usize,
    elem_bytes: usize,
}

impl TableLayout {
    /// Describes a `rows × cols` table of elements of `W` starting at byte
    /// address `base_addr`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::AddressOverflow`] if the table extent would exceed
    /// the 62-bit address field of the counter block, and
    /// [`Error::ShapeMismatch`] for an empty shape.
    pub fn new<W: RingWord>(base_addr: u64, rows: usize, cols: usize) -> Result<Self, Error> {
        if rows == 0 || cols == 0 {
            return Err(Error::ShapeMismatch {
                got: 0,
                expected: 1,
            });
        }
        let size = (rows as u64)
            .checked_mul(cols as u64)
            .and_then(|e| e.checked_mul(W::BYTES as u64))
            .ok_or(Error::AddressOverflow)?;
        let end = base_addr.checked_add(size).ok_or(Error::AddressOverflow)?;
        if end > MAX_ADDR {
            return Err(Error::AddressOverflow);
        }
        Ok(Self {
            base_addr,
            rows,
            cols,
            elem_bytes: W::BYTES,
        })
    }

    /// Base byte address of the table (`paddr(P)` in the paper).
    #[inline]
    pub fn base_addr(&self) -> u64 {
        self.base_addr
    }

    /// Number of rows `n`.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns `m` (the vector dimension).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element width in bytes (`wₑ / 8`).
    #[inline]
    pub fn elem_bytes(&self) -> usize {
        self.elem_bytes
    }

    /// Bytes in one row.
    #[inline]
    pub fn row_bytes(&self) -> usize {
        self.cols * self.elem_bytes
    }

    /// Total table size in bytes.
    #[inline]
    pub fn size_bytes(&self) -> usize {
        self.rows * self.row_bytes()
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// True iff the table has no elements (never true for a constructed
    /// layout).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Byte address of row `i` (`paddr(P_i)`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row_addr(&self, i: usize) -> u64 {
        assert!(i < self.rows, "row {i} out of bounds ({} rows)", self.rows);
        self.base_addr + (i * self.row_bytes()) as u64
    }

    /// Byte address of element `(i, j)` (`paddr(P_{i,j})`).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn element_addr(&self, i: usize, j: usize) -> u64 {
        assert!(j < self.cols, "col {j} out of bounds ({} cols)", self.cols);
        self.row_addr(i) + (j * self.elem_bytes) as u64
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn addressing_is_row_major() {
        let l = TableLayout::new::<u32>(0x1000, 4, 8).unwrap();
        assert_eq!(l.row_bytes(), 32);
        assert_eq!(l.row_addr(0), 0x1000);
        assert_eq!(l.row_addr(1), 0x1020);
        assert_eq!(l.element_addr(1, 2), 0x1028);
        assert_eq!(l.size_bytes(), 128);
        assert_eq!(l.len(), 32);
        assert!(!l.is_empty());
    }

    #[test]
    fn eight_bit_elements() {
        let l = TableLayout::new::<u8>(0, 2, 3).unwrap();
        assert_eq!(l.elem_bytes(), 1);
        assert_eq!(l.element_addr(1, 1), 4);
    }

    #[test]
    fn extent_overflow_rejected() {
        assert_eq!(
            TableLayout::new::<u64>(MAX_ADDR - 8, 2, 2),
            Err(Error::AddressOverflow)
        );
    }

    #[test]
    fn empty_shape_rejected() {
        assert!(TableLayout::new::<u32>(0, 0, 4).is_err());
        assert!(TableLayout::new::<u32>(0, 4, 0).is_err());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_bounds_checked() {
        TableLayout::new::<u32>(0, 2, 2).unwrap().row_addr(2);
    }
}
