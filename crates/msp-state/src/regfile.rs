//! Port arbitration for the banked physical register file (Section 5.1).
//!
//! Because a bank holds only the renamings of a single logical register, an
//! instruction never needs two source operands from the same bank, so one
//! read and one write port per bank suffice. Several instructions issued in
//! the same cycle *can* collide on a bank's single port; the MSP adds an
//! arbitration stage to the pipeline to resolve those conflicts, and the
//! timing simulator charges the conflict as an extra cycle.

/// Per-cycle arbiter for the single read and single write port of each bank.
#[derive(Debug, Clone)]
pub struct PortArbiter {
    read_busy: Vec<bool>,
    write_busy: Vec<bool>,
}

impl PortArbiter {
    /// Creates an arbiter for `banks` register banks.
    pub fn new(banks: usize) -> Self {
        PortArbiter {
            read_busy: vec![false; banks],
            write_busy: vec![false; banks],
        }
    }

    /// Starts a new cycle: all ports become free again.
    pub fn begin_cycle(&mut self) {
        self.read_busy.fill(false);
        self.write_busy.fill(false);
    }

    /// Requests the read port of `bank` for this cycle. Returns whether it
    /// was granted; on `false` the port is already in use this cycle and the
    /// requester must retry next cycle (an arbitration stall).
    pub fn request_read(&mut self, bank: usize) -> bool {
        !std::mem::replace(&mut self.read_busy[bank], true)
    }

    /// Requests the write port of `bank` for this cycle, with the same
    /// result as [`PortArbiter::request_read`].
    pub fn request_write(&mut self, bank: usize) -> bool {
        !std::mem::replace(&mut self.write_busy[bank], true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arbiter_grants_one_access_per_bank_per_cycle() {
        let mut arb = PortArbiter::new(4);
        assert!(arb.request_read(1));
        assert!(!arb.request_read(1), "the read port of bank 1 is taken");
        assert!(arb.request_read(2));
        assert!(arb.request_write(1), "read and write ports are independent");
        assert!(!arb.request_write(1), "the write port of bank 1 is taken");
    }

    #[test]
    fn arbiter_resets_each_cycle() {
        let mut arb = PortArbiter::new(2);
        assert!(arb.request_read(0));
        assert!(arb.request_write(0));
        arb.begin_cycle();
        assert!(arb.request_read(0));
        assert!(arb.request_write(0));
    }
}
