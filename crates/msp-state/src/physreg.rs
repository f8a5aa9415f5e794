//! Physical register naming.

use msp_isa::ArchReg;
use std::fmt;

/// A physical register in the MSP's banked register file.
///
/// The paper writes physical registers as `R.x`: the logical register `R`
/// names the bank (each logical register owns a private bank) and `x` is the
/// slot within that bank. Because allocation within a bank is strictly in
/// order, `(bank, slot)` fully identifies the register — no global free list
/// or alias table is needed (Section 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhysReg {
    bank: u16,
    slot: u16,
}

impl PhysReg {
    /// Creates a physical register identifier.
    pub fn new(bank: usize, slot: usize) -> Self {
        PhysReg {
            bank: bank as u16,
            slot: slot as u16,
        }
    }

    /// The bank index, equal to the flat index of the owning logical register.
    pub fn bank(&self) -> usize {
        self.bank as usize
    }

    /// The slot within the bank (the SCT entry index).
    pub fn slot(&self) -> usize {
        self.slot as usize
    }

    /// The logical register that owns this bank.
    pub fn logical(&self) -> ArchReg {
        ArchReg::from_flat_index(self.bank as usize)
    }
}

impl fmt::Display for PhysReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.logical(), self.slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_roundtrip() {
        let p = PhysReg::new(3, 7);
        assert_eq!(p.bank(), 3);
        assert_eq!(p.slot(), 7);
        assert_eq!(p.logical(), ArchReg::int(3));
    }

    #[test]
    fn display_uses_paper_notation() {
        // The paper writes "R2.1" for the second renaming of logical r2.
        assert_eq!(PhysReg::new(2, 1).to_string(), "r2.1");
        assert_eq!(PhysReg::new(32, 0).to_string(), "f0.0");
    }

    #[test]
    fn ordering_is_bank_major() {
        assert!(PhysReg::new(1, 5) < PhysReg::new(2, 0));
        assert!(PhysReg::new(2, 0) < PhysReg::new(2, 1));
    }
}
