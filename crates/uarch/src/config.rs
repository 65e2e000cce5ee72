use rvp_bpred::BpredConfig;
use rvp_mem::MemConfig;

/// Execution latencies by functional-unit class, in cycles from issue to
/// result broadcast. (The paper does not tabulate latencies; these are
/// Alpha 21264-era values.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Latencies {
    /// Simple integer ALU ops, moves, branches.
    pub int_alu: u64,
    /// Integer multiply.
    pub int_mul: u64,
    /// Integer divide / remainder.
    pub int_div: u64,
    /// FP add/sub/compare/convert.
    pub fp_add: u64,
    /// FP multiply.
    pub fp_mul: u64,
    /// FP divide.
    pub fp_div: u64,
    /// Load L1-hit latency (cache penalties are added on top).
    pub load: u64,
    /// Store (address generation; data is written at/after commit).
    pub store: u64,
}

impl Default for Latencies {
    fn default() -> Latencies {
        Latencies {
            int_alu: 1,
            int_mul: 8,
            int_div: 20,
            fp_add: 4,
            fp_mul: 4,
            fp_div: 16,
            load: 2,
            store: 1,
        }
    }
}

/// Full machine configuration.
///
/// [`UarchConfig::table1`] reproduces the paper's baseline processor;
/// [`UarchConfig::wide16`] the aggressive 16-wide machine of Figure 8
/// ("double the instruction queue entries, functional units, renaming
/// registers, and fetch bandwidth ... up to three basic blocks per
/// cycle").
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct UarchConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Basic blocks (taken transfers) fetch may cross per cycle.
    pub fetch_blocks: usize,
    /// Front-end stages between fetch and queue insertion; the branch
    /// mispredict penalty is `frontend_depth + 1` (the paper's 7 cycles
    /// for its 9-stage pipeline).
    pub frontend_depth: u64,
    /// Instructions renamed/dispatched per cycle.
    pub dispatch_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Integer instruction-queue entries.
    pub iq_int: usize,
    /// FP instruction-queue entries.
    pub iq_fp: usize,
    /// Reorder-buffer entries.
    pub rob_size: usize,
    /// Renaming registers per class beyond the architectural 32.
    pub rename_regs: usize,
    /// Integer functional units.
    pub int_units: usize,
    /// How many of the integer units can perform loads/stores.
    pub ldst_ports: usize,
    /// FP functional units.
    pub fp_units: usize,
    /// Branch predictor configuration (BTB/RAS geometry, and the
    /// default gshare direction predictor when `bpred_spec` is unset).
    pub bpred: BpredConfig,
    /// Optional direction-predictor override as a registry config
    /// string (e.g. `"gshare:pht=4096,hist=12"` or `"bimodal"`); see
    /// [`rvp_bpred::new_branch_predictor`]. `None` keeps the paper's
    /// gshare built from `bpred`.
    pub bpred_spec: Option<String>,
    /// Memory hierarchy configuration.
    pub mem: MemConfig,
    /// Execution latencies.
    pub lat: Latencies,
    /// Extra register read ports available for verifying predicted
    /// *non-load* instructions, limiting such predictions per cycle
    /// (paper Section 4.2: "one or two extra read ports would limit the
    /// number of predictions per cycle, but place no limit on the number
    /// of instructions that can use predicted values"). `None` = no
    /// limit; the paper argues a single port suffices because dRVP
    /// averages 0.2–0.5 predictions per cycle.
    pub pred_ports: Option<usize>,
    /// Fetched-instruction buffer entries between fetch and dispatch.
    /// Fetch stops (backpressure) when the buffer is full. Sized far
    /// above the deepest dispatch stall observed on the paper's
    /// workloads, so on the nominal configurations it bounds memory
    /// without ever altering timing; it also fixes the frontend queue's
    /// ring-buffer capacity once, keeping the cycle loop allocation-free.
    pub fetch_buffer: usize,
}

impl UarchConfig {
    /// The paper's Table 1 baseline: 8-wide fetch of one basic block,
    /// 32+32 IQ entries, 6 integer (4 load/store) + 3 FP units, 9-stage
    /// pipeline with a 7-cycle mispredict penalty.
    pub fn table1() -> UarchConfig {
        UarchConfig {
            fetch_width: 8,
            fetch_blocks: 1,
            frontend_depth: 6,
            dispatch_width: 8,
            commit_width: 8,
            iq_int: 32,
            iq_fp: 32,
            rob_size: 128,
            rename_regs: 64,
            int_units: 6,
            ldst_ports: 4,
            fp_units: 3,
            bpred: BpredConfig::table1(),
            bpred_spec: None,
            mem: MemConfig::table1(),
            lat: Latencies::default(),
            pred_ports: None,
            fetch_buffer: 4096,
        }
    }

    /// The Figure 8 16-wide machine: doubled queues, units, renaming
    /// registers and fetch bandwidth, fetching up to three basic blocks
    /// per cycle.
    pub fn wide16() -> UarchConfig {
        UarchConfig {
            fetch_width: 16,
            fetch_blocks: 3,
            dispatch_width: 16,
            commit_width: 16,
            iq_int: 64,
            iq_fp: 64,
            rob_size: 256,
            rename_regs: 128,
            int_units: 12,
            ldst_ports: 8,
            fp_units: 6,
            ..UarchConfig::table1()
        }
    }
}

impl Default for UarchConfig {
    fn default() -> UarchConfig {
        UarchConfig::table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wide16_doubles_resources() {
        let base = UarchConfig::table1();
        let wide = UarchConfig::wide16();
        assert_eq!(wide.fetch_width, 2 * base.fetch_width);
        assert_eq!(wide.iq_int, 2 * base.iq_int);
        assert_eq!(wide.int_units, 2 * base.int_units);
        assert_eq!(wide.fetch_blocks, 3);
        // Same memory system and predictor.
        assert_eq!(wide.mem, base.mem);
        assert_eq!(wide.bpred, base.bpred);
    }

    #[test]
    fn mispredict_penalty_is_seven() {
        let c = UarchConfig::table1();
        assert_eq!(c.frontend_depth + 1, 7);
    }
}
