//! Functional execution of instructions.
//!
//! The functional executor is the *oracle* for the timing simulator: it runs
//! the program in order, producing one [`ExecutedInst`] record per dynamic
//! instruction. Timing models consume these records for correct-path
//! execution and use [`crate::Program::fetch_or_halt`] for wrong-path fetch.

use crate::inst::{BranchCond, Instruction, Opcode};
use crate::program::Program;
use crate::reg::ArchReg;
use crate::state::ArchState;
use std::error::Error;
use std::fmt;

/// Error returned when functional execution cannot proceed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// The program has already executed a halt instruction.
    Halted,
    /// The program counter points outside the text segment.
    OutOfRange(u64),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Halted => write!(f, "program has halted"),
            ExecError::OutOfRange(pc) => write!(f, "pc {pc:#x} is outside the text segment"),
        }
    }
}

impl Error for ExecError {}

/// Record of one dynamically executed instruction.
///
/// A record carries what the timing simulator reads: the resolved
/// control-flow outcome and the effective address of a memory operation.
/// Result values are not recorded. [`execute_step`] commits them to the
/// [`ArchState`], and no timing structure depends on them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutedInst {
    /// Address the instruction was fetched from.
    pub pc: u64,
    /// The static instruction.
    pub inst: Instruction,
    /// Address of the next instruction on the correct path.
    pub next_pc: u64,
    /// For control-flow instructions, whether the transfer was taken.
    pub taken: bool,
    /// Effective address of a load or store.
    pub mem_addr: Option<u64>,
    /// Whether this instruction halted the program.
    pub halted: bool,
}

// The Lab's trace-streaming threshold and `Trace::footprint_bytes` are
// computed from this size.
const _: () = assert!(std::mem::size_of::<ExecutedInst>() == 72);

impl ExecutedInst {
    /// Destination logical register, if the instruction allocates one.
    pub fn dest(&self) -> Option<ArchReg> {
        self.inst.dest()
    }

    /// Whether the executed instruction was a control transfer.
    pub fn is_control(&self) -> bool {
        self.inst.is_control()
    }
}

fn eval_cond(cond: BranchCond, a: u64, b: u64) -> bool {
    match cond {
        BranchCond::Eq => a == b,
        BranchCond::Ne => a != b,
        BranchCond::Lt => (a as i64) < (b as i64),
        BranchCond::Ge => (a as i64) >= (b as i64),
        BranchCond::Ltu => a < b,
        BranchCond::Geu => a >= b,
    }
}

/// Functionally executes the instruction at the current PC, committing its
/// effects (registers, memory, PC) to `state`.
///
/// # Errors
///
/// Returns [`ExecError::Halted`] if the program already halted, or
/// [`ExecError::OutOfRange`] if the PC left the text segment (which indicates
/// a malformed program — well-formed workloads end in a `halt`).
pub fn execute_step(state: &mut ArchState, program: &Program) -> Result<ExecutedInst, ExecError> {
    if state.is_halted() {
        return Err(ExecError::Halted);
    }
    let pc = state.pc();
    let inst = program.fetch(pc).ok_or(ExecError::OutOfRange(pc))?;
    let fallthrough = pc.wrapping_add(4);

    let ri = |r: Option<ArchReg>| -> u64 { r.map(|r| state.read_reg_bits(r)).unwrap_or(0) };
    let rf = |r: Option<ArchReg>| -> f64 { f64::from_bits(ri(r)) };

    let mut rec = ExecutedInst {
        pc,
        inst,
        next_pc: fallthrough,
        taken: false,
        mem_addr: None,
        halted: false,
    };
    let mut dest_value = None;
    let mut store_value = None;

    let s1 = inst.src1();
    let s2 = inst.src2();

    match inst.opcode() {
        Opcode::Add => dest_value = Some(ri(s1).wrapping_add(ri(s2))),
        Opcode::Sub => dest_value = Some(ri(s1).wrapping_sub(ri(s2))),
        Opcode::And => dest_value = Some(ri(s1) & ri(s2)),
        Opcode::Or => dest_value = Some(ri(s1) | ri(s2)),
        Opcode::Xor => dest_value = Some(ri(s1) ^ ri(s2)),
        Opcode::Sll => dest_value = Some(ri(s1).wrapping_shl((ri(s2) & 63) as u32)),
        Opcode::Srl => dest_value = Some(ri(s1).wrapping_shr((ri(s2) & 63) as u32)),
        Opcode::Slt => dest_value = Some(u64::from((ri(s1) as i64) < (ri(s2) as i64))),
        Opcode::AddI => dest_value = Some(ri(s1).wrapping_add(inst.imm() as u64)),
        Opcode::AndI => dest_value = Some(ri(s1) & inst.imm() as u64),
        Opcode::OrI => dest_value = Some(ri(s1) | inst.imm() as u64),
        Opcode::XorI => dest_value = Some(ri(s1) ^ inst.imm() as u64),
        Opcode::SllI => dest_value = Some(ri(s1).wrapping_shl((inst.imm() & 63) as u32)),
        Opcode::SrlI => dest_value = Some(ri(s1).wrapping_shr((inst.imm() & 63) as u32)),
        Opcode::SltI => dest_value = Some(u64::from((ri(s1) as i64) < inst.imm())),
        Opcode::Mul => dest_value = Some(ri(s1).wrapping_mul(ri(s2))),
        Opcode::Div => {
            let d = ri(s2);
            dest_value = Some(if d == 0 { 0 } else { ri(s1).wrapping_div(d) });
        }
        Opcode::FAdd => dest_value = Some((rf(s1) + rf(s2)).to_bits()),
        Opcode::FSub => dest_value = Some((rf(s1) - rf(s2)).to_bits()),
        Opcode::FMul => dest_value = Some((rf(s1) * rf(s2)).to_bits()),
        Opcode::FDiv => {
            let d = rf(s2);
            let v = if d == 0.0 { 0.0 } else { rf(s1) / d };
            dest_value = Some(v.to_bits());
        }
        Opcode::FCmpLt => dest_value = Some(u64::from(rf(s1) < rf(s2))),
        Opcode::CvtIntFp => dest_value = Some((ri(s1) as i64 as f64).to_bits()),
        Opcode::CvtFpInt => dest_value = Some(rf(s1) as i64 as u64),
        Opcode::Load => {
            let addr = ri(s1).wrapping_add(inst.imm() as u64);
            rec.mem_addr = Some(addr);
            dest_value = Some(state.memory().read_le(addr, inst.width().bytes()));
        }
        Opcode::Store => {
            let addr = ri(s1).wrapping_add(inst.imm() as u64);
            rec.mem_addr = Some(addr);
            store_value = Some(ri(s2));
        }
        Opcode::Branch(cond) => {
            rec.taken = eval_cond(cond, ri(s1), ri(s2));
            if rec.taken {
                rec.next_pc = inst.target().expect("conditional branches carry a target");
            }
        }
        Opcode::Jump => {
            rec.taken = true;
            rec.next_pc = inst.target().expect("jumps carry a target");
        }
        Opcode::JumpIndirect | Opcode::Ret => {
            rec.taken = true;
            rec.next_pc = ri(s1);
        }
        Opcode::Call => {
            rec.taken = true;
            dest_value = Some(fallthrough);
            rec.next_pc = inst.target().expect("calls carry a target");
        }
        Opcode::Nop => {}
        Opcode::Halt => {
            rec.halted = true;
            rec.next_pc = pc; // halted programs spin in place
        }
    }

    // Writes to the zero register are architecturally discarded: `dest()`
    // is `None` for them.
    if let (Some(dest), Some(value)) = (inst.dest(), dest_value) {
        state.write_reg_bits(dest, value);
    }
    if let (Some(addr), Some(value)) = (rec.mem_addr, store_value) {
        state
            .memory_mut()
            .write_le(addr, value, inst.width().bytes());
    }
    state.set_pc(rec.next_pc);
    state.count_retired();
    if rec.halted {
        state.set_halted();
    }

    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::ArchReg;

    fn run_to_halt(program: &Program, max: usize) -> (ArchState, Vec<ExecutedInst>) {
        let mut state = ArchState::new(program);
        let mut trace = Vec::new();
        for _ in 0..max {
            match execute_step(&mut state, program) {
                Ok(rec) => {
                    let halted = rec.halted;
                    trace.push(rec);
                    if halted {
                        break;
                    }
                }
                Err(e) => panic!("unexpected exec error: {e}"),
            }
        }
        (state, trace)
    }

    #[test]
    fn arithmetic_and_registers() {
        let p = Program::new(vec![
            Instruction::li(ArchReg::int(1), 6),
            Instruction::li(ArchReg::int(2), 7),
            Instruction::mul(ArchReg::int(3), ArchReg::int(1), ArchReg::int(2)),
            Instruction::sub(ArchReg::int(4), ArchReg::int(3), ArchReg::int(1)),
            Instruction::halt(),
        ]);
        let (state, trace) = run_to_halt(&p, 10);
        assert_eq!(state.read_int(3), 42);
        assert_eq!(state.read_int(4), 36);
        assert_eq!(trace.len(), 5);
        assert!(trace.last().unwrap().halted);
    }

    #[test]
    fn loads_and_stores() {
        let mut p = Program::new(vec![
            Instruction::li(ArchReg::int(1), 0x8000),
            Instruction::load(ArchReg::int(2), ArchReg::int(1), 0),
            Instruction::addi(ArchReg::int(2), ArchReg::int(2), 1),
            Instruction::store(ArchReg::int(2), ArchReg::int(1), 8),
            Instruction::load(ArchReg::int(3), ArchReg::int(1), 8),
            Instruction::halt(),
        ]);
        p.add_data(0x8000, 41);
        let (state, trace) = run_to_halt(&p, 10);
        assert_eq!(state.read_int(2), 42);
        assert_eq!(state.read_int(3), 42);
        assert_eq!(state.memory().read_u64(0x8008), 42);
        assert_eq!(trace[1].mem_addr, Some(0x8000));
        assert_eq!(trace[3].mem_addr, Some(0x8008));
    }

    #[test]
    fn branch_loop_executes_correct_count() {
        // r1 = 5; loop: r2 += 1; r1 -= 1; bne r1, r0, loop; halt
        let p = Program::new(vec![
            Instruction::li(ArchReg::int(1), 5),
            Instruction::addi(ArchReg::int(2), ArchReg::int(2), 1),
            Instruction::addi(ArchReg::int(1), ArchReg::int(1), -1),
            Instruction::bne(ArchReg::int(1), ArchReg::int(0), crate::TEXT_BASE + 4),
            Instruction::halt(),
        ]);
        let (state, trace) = run_to_halt(&p, 100);
        assert_eq!(state.read_int(2), 5);
        // 1 li + 5*(3 loop insts) + 1 halt
        assert_eq!(trace.len(), 1 + 15 + 1);
        // The branch is taken 4 times and not taken once.
        let taken = trace
            .iter()
            .filter(|r| r.inst.is_conditional_branch() && r.taken)
            .count();
        assert_eq!(taken, 4);
    }

    #[test]
    fn call_and_return() {
        // call writes the link register and ret jumps back through it.
        let p = Program::new(vec![
            Instruction::call(ArchReg::int(31), crate::TEXT_BASE + 12), // 0: call fn
            Instruction::li(ArchReg::int(5), 1),                        // 1: after return
            Instruction::halt(),                                        // 2
            Instruction::li(ArchReg::int(6), 2),                        // 3: fn body
            Instruction::ret(ArchReg::int(31)),                         // 4
        ]);
        let (state, trace) = run_to_halt(&p, 10);
        assert_eq!(state.read_int(5), 1);
        assert_eq!(state.read_int(6), 2);
        assert_eq!(state.read_int(31), crate::TEXT_BASE + 4);
        assert!(trace[0].taken);
        assert_eq!(trace.len(), 5);
    }

    #[test]
    fn fp_operations() {
        let mut p = Program::new(vec![
            Instruction::li(ArchReg::int(1), 0x8000),
            Instruction::load(ArchReg::fp(1), ArchReg::int(1), 0),
            Instruction::load(ArchReg::fp(2), ArchReg::int(1), 8),
            Instruction::fadd(ArchReg::fp(3), ArchReg::fp(1), ArchReg::fp(2)),
            Instruction::fmul(ArchReg::fp(4), ArchReg::fp(3), ArchReg::fp(2)),
            Instruction::fcmplt(ArchReg::int(2), ArchReg::fp(1), ArchReg::fp(2)),
            Instruction::cvt_fp_int(ArchReg::int(3), ArchReg::fp(4)),
            Instruction::halt(),
        ]);
        p.add_data(0x8000, 1.5f64.to_bits());
        p.add_data(0x8008, 2.0f64.to_bits());
        let (state, _) = run_to_halt(&p, 10);
        assert_eq!(state.read_fp(3), 3.5);
        assert_eq!(state.read_fp(4), 7.0);
        assert_eq!(state.read_int(2), 1);
        assert_eq!(state.read_int(3), 7);
    }

    #[test]
    fn division_by_zero_yields_zero() {
        let p = Program::new(vec![
            Instruction::li(ArchReg::int(1), 10),
            Instruction::div(ArchReg::int(2), ArchReg::int(1), ArchReg::int(3)),
            Instruction::halt(),
        ]);
        let (state, _) = run_to_halt(&p, 10);
        assert_eq!(state.read_int(2), 0);
    }

    #[test]
    fn halted_program_reports_error() {
        let p = Program::new(vec![Instruction::halt()]);
        let mut state = ArchState::new(&p);
        assert!(execute_step(&mut state, &p).is_ok());
        assert!(state.is_halted());
        assert_eq!(execute_step(&mut state, &p), Err(ExecError::Halted));
    }

    #[test]
    fn out_of_range_pc_reports_error() {
        let p = Program::new(vec![Instruction::jump(0x9999_0000), Instruction::halt()]);
        let mut state = ArchState::new(&p);
        execute_step(&mut state, &p).unwrap();
        assert_eq!(
            execute_step(&mut state, &p),
            Err(ExecError::OutOfRange(0x9999_0000))
        );
    }

    #[test]
    fn error_display() {
        assert!(ExecError::Halted.to_string().contains("halted"));
        assert!(ExecError::OutOfRange(0x20).to_string().contains("0x20"));
    }
}
