//! A return-address stack (RAS) for call/return target prediction.

/// A fixed-depth return-address stack.
///
/// Calls push their fall-through address; returns pop the predicted target.
/// When the stack overflows the oldest entry is overwritten (circular), which
/// matches typical hardware behaviour.
#[derive(Debug, Clone)]
pub struct ReturnStack {
    entries: Vec<u64>,
    top: usize,
    depth: usize,
}

impl ReturnStack {
    /// Creates a return stack holding `capacity` addresses.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "return stack capacity must be non-zero");
        ReturnStack {
            entries: vec![0; capacity],
            top: 0,
            depth: 0,
        }
    }

    /// Maximum number of return addresses held.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Current number of valid entries.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Pushes a return address (on a predicted call).
    pub fn push(&mut self, return_address: u64) {
        self.top = (self.top + 1) % self.entries.len();
        self.entries[self.top] = return_address;
        self.depth = (self.depth + 1).min(self.entries.len());
    }

    /// Pops the predicted return target (on a predicted return). Returns
    /// `None` when the stack is empty (an underflow).
    pub fn pop(&mut self) -> Option<u64> {
        if self.depth == 0 {
            return None;
        }
        let value = self.entries[self.top];
        self.top = (self.top + self.entries.len() - 1) % self.entries.len();
        self.depth -= 1;
        Some(value)
    }

    /// Clears the stack (used on deep recovery when the speculative stack is
    /// unrecoverable).
    pub fn clear(&mut self) {
        self.depth = 0;
        self.top = 0;
    }
}

impl Default for ReturnStack {
    fn default() -> Self {
        ReturnStack::new(32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let mut ras = ReturnStack::new(8);
        ras.push(0x100);
        ras.push(0x200);
        ras.push(0x300);
        assert_eq!(ras.depth(), 3);
        assert_eq!(ras.pop(), Some(0x300));
        assert_eq!(ras.pop(), Some(0x200));
        assert_eq!(ras.pop(), Some(0x100));
        // Three pushes, three pops: the fourth pop underflows.
        assert_eq!(ras.depth(), 0);
        assert_eq!(ras.pop(), None);
        assert_eq!(ras.depth(), 0);
    }

    #[test]
    fn overflow_wraps_and_keeps_recent_entries() {
        let mut ras = ReturnStack::new(2);
        ras.push(1);
        ras.push(2);
        ras.push(3); // overwrites the oldest
        assert_eq!(ras.depth(), 2);
        assert_eq!(ras.pop(), Some(3));
        assert_eq!(ras.pop(), Some(2));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn clear_empties_the_stack() {
        let mut ras = ReturnStack::default();
        ras.push(42);
        ras.clear();
        assert_eq!(ras.depth(), 0);
        assert_eq!(ras.pop(), None);
        assert_eq!(ras.capacity(), 32);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = ReturnStack::new(0);
    }
}
