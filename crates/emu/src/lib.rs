//! Functional (architectural) emulator for the RVP reproduction.
//!
//! The emulator executes [`rvp_isa::Program`]s at architectural
//! granularity and emits one [`Committed`] record per retired instruction.
//! That trace is the single source of architectural truth for every other
//! component:
//!
//! * the **profiler** replays it to measure register-value reuse;
//! * the **timing simulator** consumes it execution-driven, using
//!   [`Committed::old_value`] — the value the destination register held
//!   *before* the instruction executed — as the register-value-prediction
//!   oracle, and [`Committed::new_value`] as the truth it is checked
//!   against.
//!
//! # Examples
//!
//! ```
//! use rvp_isa::{ProgramBuilder, Reg};
//! use rvp_emu::Emulator;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let r = Reg::int(1);
//! let mut b = ProgramBuilder::new();
//! b.li(r, 2);
//! b.add(r, r, 40);
//! b.halt();
//! let program = b.build()?;
//!
//! let mut emu = Emulator::new(&program);
//! while let Some(c) = emu.step()? {
//!     if c.dst == Some(r) {
//!         println!("r1: {} -> {}", c.old_value, c.new_value);
//!     }
//! }
//! assert_eq!(emu.reg(r), 42);
//! # Ok(())
//! # }
//! ```

mod emulator;
mod hash;
mod memory;

pub use emulator::{Committed, EmuError, Emulator, RunSummary, STACK_TOP};
pub use hash::{U64Hasher, U64Map};
pub use memory::Memory;
