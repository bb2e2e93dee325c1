//! The cycle-approximate timing model.
//!
//! The model is a dataflow timing approximation: the interpreter supplies
//! the dynamic instruction stream and this module assigns each instruction
//! a fetch time (front end: 16-byte decode lines, decode width, branch
//! redirects, the Loop Stream Detector), an issue time (operand readiness,
//! reservation-station capacity, execution ports) and a completion time
//! (latency, cache, forwarding bandwidth). Total cycles = the maximum
//! completion time.
//!
//! Each structure reproduces a specific effect from the paper:
//!
//! * decode lines → §III.C.e short-loop alignment;
//! * LSD window → §III.C.f / Figs. 4–5;
//! * `PC >> 5` predictor indexing → §III.C.g and Fig. 1;
//! * forwarding bandwidth + RS occupancy → §III.F
//!   (`RESOURCE_STALLS:RS_FULL`);
//! * non-temporal fills → §III.E.k inverse prefetching.

use std::collections::BTreeMap;

use mao_x86::{def_use, Instruction};

use crate::config::UarchConfig;
use crate::machine::ExecInfo;
use crate::memory::{Access, Cache};
use crate::pmu::Pmu;

/// Two-bit saturating counter branch predictor with configurable index
/// shift (the aliasing mechanism) and optional global history.
struct Predictor {
    table: Vec<u8>,
    shift: u32,
    mask: u64,
    history: u64,
    history_bits: u32,
}

impl Predictor {
    fn new(config: &UarchConfig) -> Predictor {
        Predictor {
            table: vec![1; config.predictor_entries()], // weakly not-taken
            shift: config.predictor.index_shift,
            mask: (config.predictor_entries() - 1) as u64,
            history: 0,
            history_bits: config.predictor.history_bits,
        }
    }

    fn index(&self, va: u64) -> usize {
        let hist_mask = (1u64 << self.history_bits).wrapping_sub(1);
        (((va >> self.shift) ^ (self.history & hist_mask)) & self.mask) as usize
    }

    /// Predict and update; returns `true` if the prediction was correct.
    fn observe(&mut self, va: u64, taken: bool) -> bool {
        let idx = self.index(va);
        let counter = &mut self.table[idx];
        let predicted_taken = *counter >= 2;
        if taken {
            *counter = (*counter + 1).min(3);
        } else {
            *counter = counter.saturating_sub(1);
        }
        if self.history_bits > 0 {
            self.history = (self.history << 1) | u64::from(taken);
        }
        predicted_taken == taken
    }
}

/// Loop Stream Detector state machine.
struct Lsd {
    enabled: bool,
    max_lines: u64,
    min_iterations: u64,
    line: u64,
    /// Current candidate back edge (branch VA, target VA).
    key: Option<(u64, u64)>,
    iterations: u64,
    streaming: bool,
}

impl Lsd {
    fn new(config: &UarchConfig) -> Lsd {
        Lsd {
            enabled: config.lsd.enabled,
            max_lines: config.lsd.max_lines,
            min_iterations: config.lsd.min_iterations,
            line: config.decode_line,
            key: None,
            iterations: 0,
            streaming: false,
        }
    }

    /// Observe a conditional branch; returns whether the *next* iteration
    /// streams from the LSD.
    ///
    /// Forward branches *within* the captured loop body are permitted (the
    /// Figure 4 loop has one); only leaving the body — the back edge
    /// falling through, or a branch jumping outside — ends the capture.
    fn observe_branch(&mut self, va: u64, end_va: u64, target: Option<u64>, taken: bool) -> bool {
        if !self.enabled {
            return false;
        }
        let backward = taken && target.is_some_and(|t| t < va);
        if backward {
            let t = target.expect("backward implies target");
            let key = (va, t);
            if self.key == Some(key) {
                self.iterations += 1;
            } else if let Some((bva, tva)) = self.key {
                if va < tva || va > bva {
                    // A different loop altogether: restart capture.
                    self.key = Some(key);
                    self.iterations = 1;
                    self.streaming = false;
                } else {
                    // A nested backward branch inside the body: the body is
                    // not a simple loop; give up on it.
                    self.key = None;
                    self.iterations = 0;
                    self.streaming = false;
                    return false;
                }
            } else {
                self.key = Some(key);
                self.iterations = 1;
            }
            let body_lines = if end_va > t {
                (end_va - 1) / self.line - t / self.line + 1
            } else {
                u64::MAX
            };
            if body_lines > self.max_lines {
                self.streaming = false;
            } else if self.iterations >= self.min_iterations {
                self.streaming = true;
            }
        } else {
            // A forward branch inside the captured body keeps the capture;
            // leaving the body (back edge fall-through, or a taken branch
            // whose target is outside) ends it.
            let Some((bva, tva)) = self.key else {
                return false;
            };
            let in_body = va >= tva && va <= bva;
            let leaves = taken && !target.is_some_and(|t| t >= tva && t <= bva);
            if !in_body || leaves || (!taken && va == bva) {
                self.key = None;
                self.iterations = 0;
                self.streaming = false;
            }
        }
        self.streaming
    }
}

/// Pipeline times assigned to one retired instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetireTimes {
    /// Cycle the front end delivered the instruction.
    pub fetch: u64,
    /// Cycle it issued to a port.
    pub issue: u64,
    /// Cycle its result completed.
    pub done: u64,
    /// Was it streamed from the LSD?
    pub streaming: bool,
}

/// The timing pipeline. Feed [`ExecInfo`] events in dynamic order; read the
/// accumulated [`Pmu`] at the end.
pub struct Timing<'a> {
    config: &'a UarchConfig,
    pmu: Pmu,
    predictor: Predictor,
    lsd: Lsd,
    cache: Cache,
    /// Lines marked non-temporal by an executed prefetchnta.
    nt_lines: std::collections::HashSet<u64>,
    // Front end.
    current_line: Option<u64>,
    next_line_cycle: u64,
    delivered_at: u64,
    delivered_count: usize,
    // Backend.
    reg_ready: [u64; 33],
    /// Registers whose current value was delayed by a forwarding conflict
    /// (directly or transitively) — the RS_FULL propagation taint.
    reg_late: [bool; 33],
    flags_ready: u64,
    last_store_done: u64,
    port_free: Vec<u64>,
    /// Completion times of the last `rs_size` instructions (ring buffer).
    rs_ring: Vec<u64>,
    rs_pos: usize,
    /// Issue times of the last `fetch_queue` instructions: the front end
    /// cannot fetch instruction i before instruction i - fetch_queue issued
    /// (the decode queue has bounded depth).
    fq_ring: Vec<u64>,
    fq_pos: usize,
    /// Forwarding-bandwidth accounting: consumers served per (producer
    /// completion cycle, register). The §III.F hypothesis is a limit on how
    /// many *dependents* can receive a just-produced value in one cycle.
    forwards: BTreeMap<(u64, usize), usize>,
    /// Highest completion time seen.
    horizon: u64,
}

impl<'a> Timing<'a> {
    /// Fresh pipeline for one run.
    pub fn new(config: &'a UarchConfig) -> Timing<'a> {
        Timing {
            config,
            pmu: Pmu::default(),
            predictor: Predictor::new(config),
            lsd: Lsd::new(config),
            cache: Cache::new(config.l1d.clone()),
            nt_lines: std::collections::HashSet::new(),
            current_line: None,
            next_line_cycle: 0,
            delivered_at: 0,
            delivered_count: 0,
            reg_ready: [0; 33],
            reg_late: [false; 33],
            flags_ready: 0,
            last_store_done: 0,
            port_free: vec![0; config.backend.num_ports],
            rs_ring: vec![0; config.backend.rs_size],
            rs_pos: 0,
            fq_ring: vec![0; config.backend.fetch_queue.max(1)],
            fq_pos: 0,
            forwards: BTreeMap::new(),
            horizon: 0,
        }
    }

    /// Front-end delivery time of an instruction at `va` of length `len`.
    fn fetch_time(&mut self, va: u64, len: u32, streaming: bool) -> u64 {
        // Decode-queue back-pressure: cannot run ahead of issue.
        let floor = self.fq_ring[self.fq_pos];
        if floor > self.delivered_at {
            self.delivered_at = floor;
            self.delivered_count = 0;
            self.next_line_cycle = self.next_line_cycle.max(floor);
        }
        let mut t = self.delivered_at;
        if streaming {
            self.pmu.lsd_instructions += 1;
        } else {
            let line_size = self.config.decode_line;
            let first = va / line_size;
            let last = (va + u64::from(len).max(1) - 1) / line_size;
            let start = match self.current_line {
                Some(cur) if cur >= first => cur + 1,
                _ => first,
            };
            for _ in start..=last.max(start).min(last) {
                // Each new line costs one front-end slot.
                self.pmu.decode_lines_fetched += 1;
                self.next_line_cycle += 1;
            }
            if last >= start {
                t = t.max(self.next_line_cycle.saturating_sub(1));
            }
            self.current_line = Some(last.max(self.current_line.unwrap_or(first)));
            t = t.max(self.next_line_cycle.saturating_sub(1));
        }
        // Decode width: at most N instructions per cycle.
        if t > self.delivered_at {
            self.delivered_at = t;
            self.delivered_count = 1;
        } else {
            self.delivered_count += 1;
            if self.delivered_count > self.config.backend.decode_width {
                self.delivered_at += 1;
                self.delivered_count = 1;
            }
        }
        self.delivered_at
    }

    /// Redirect the front end (taken branch or mispredict recovery).
    fn redirect(&mut self, cycle: u64) {
        self.current_line = None;
        self.next_line_cycle = self.next_line_cycle.max(cycle);
        if self.delivered_at < cycle {
            self.delivered_at = cycle;
            self.delivered_count = 0;
        }
    }

    /// A consumer wants register `reg` whose producer completes at `avail`.
    /// At most `forward_bandwidth` consumers can be served off the bypass
    /// network in the cycle a value is produced; extra consumers wait in the
    /// reservation stations (counted as RS_FULL pressure, matching the
    /// §III.F correlation).
    fn forward_ready(&mut self, reg: usize, avail: u64) -> u64 {
        let bw = self.config.backend.forward_bandwidth.max(1);
        let used = self.forwards.entry((avail, reg)).or_insert(0);
        if *used < bw {
            *used += 1;
            if self.forwards.len() > 8192 {
                let cutoff = avail.saturating_sub(4096);
                self.forwards = self.forwards.split_off(&(cutoff, 0));
            }
            return avail;
        }
        // One extra cycle: the value is read from the register file instead
        // of the bypass network, backing the consumer up in the RS. The
        // caller decides whether this actually delayed issue (and counts it).
        avail + 1
    }

    /// Process one executed instruction. Returns the assigned pipeline
    /// times (useful for tests and for debugging timing anomalies).
    pub fn retire(&mut self, insn: &Instruction, info: &ExecInfo) -> RetireTimes {
        self.pmu.instructions += 1;
        let streaming = self.lsd.streaming;
        if streaming && info.entry == 0 {
            // (entry 0 cannot be inside a loop body in practice; no-op.)
        }
        let fetch = self.fetch_time(info.va, info.len, streaming);

        // Operand readiness, through the bandwidth-limited bypass network.
        let du = def_use(insn);
        let mut ready = fetch;
        let mut late_binding = false;
        for u in &du.reg_uses {
            let avail = self.reg_ready[u.id.index()];
            let mut late = self.reg_late[u.id.index()];
            let got = if avail > fetch {
                // The value is still in flight: this consumer competes for a
                // forwarding slot in the producer's completion cycle.
                let t = self.forward_ready(u.id.index(), avail);
                if t > avail {
                    late = true;
                }
                t
            } else {
                avail
            };
            if got > ready {
                ready = got;
                late_binding = late;
            } else if got == ready {
                late_binding = late_binding || (late && got > fetch);
            }
        }
        if !du.flags_use.is_empty() {
            if self.flags_ready > ready {
                ready = self.flags_ready;
                late_binding = false;
            }
        }
        if du.mem_read && self.last_store_done > ready {
            ready = self.last_store_done;
            late_binding = false;
        }
        // RESOURCE_STALLS:RS_FULL semantics (§III.F): count when a value
        // that lost the forwarding race — directly or transitively — is what
        // holds this consumer in the reservation stations. The taint
        // propagates down the dependence chain, so a delayed critical path
        // shows proportionally more stalls than a delayed side chain.
        if late_binding && ready > fetch {
            self.pmu.rs_full_stalls += 1;
        }

        // Reservation-station admission.
        let admit = self.rs_ring[self.rs_pos];
        // The instruction leaves the decode queue once an RS entry is free —
        // waiting for *operands* happens inside the RS and must not hold a
        // decode-queue slot.
        let entered_rs = fetch.max(admit);
        if admit > ready {
            self.pmu.rs_admit_stalls += admit - ready;
            ready = admit;
        }

        // Port selection, from the profile's cost table (§III.F anecdote:
        // lea on port 0 only, shifts on ports 0 and 5; symmetric machines
        // and machines with three or fewer ports issue anywhere).
        let mask = self.config.cost.ports_with(
            insn,
            &du,
            self.config.backend.num_ports,
            self.config.backend.symmetric_ports,
        );
        let mut best_port = 0usize;
        let mut best_time = u64::MAX;
        for p in 0..self.config.backend.num_ports {
            if mask & (1 << p) != 0 {
                let t = self.port_free[p].max(ready);
                if t < best_time {
                    best_time = t;
                    best_port = p;
                }
            }
        }
        let issue = best_time;
        self.port_free[best_port] = issue + 1;

        // Memory access latency.
        let mut extra = 0u64;
        if let Some(nt) = info.prefetch_nta {
            let line = nt / self.config.l1d.line_size;
            self.nt_lines.insert(line);
            // The prefetch performs a non-temporal fill itself.
            let _ = self.cache.access(nt, true);
        }
        if let Some((addr, _)) = info.load {
            self.pmu.loads += 1;
            let line = addr / self.config.l1d.line_size;
            let nt = self.nt_lines.remove(&line);
            match self.cache.access(addr, nt) {
                Access::Hit => {
                    self.pmu.l1d_hits += 1;
                    extra += self.config.l1d.hit_latency;
                }
                Access::Miss => {
                    self.pmu.l1d_misses += 1;
                    extra += self.config.l1d.miss_latency;
                }
            }
        }
        if let Some((addr, _)) = info.store {
            self.pmu.stores += 1;
            let line = addr / self.config.l1d.line_size;
            let nt = self.nt_lines.remove(&line);
            let _ = self.cache.access(addr, nt);
        }

        let done = issue + self.config.cost.latency(insn) + extra;

        // Writeback.
        for d in &du.reg_defs {
            self.reg_ready[d.id.index()] = done;
            self.reg_late[d.id.index()] = late_binding;
        }
        if !du.flags_killed().is_empty() {
            self.flags_ready = done;
        }
        if du.mem_write {
            self.last_store_done = done;
        }
        // RS entry frees at completion.
        self.rs_ring[self.rs_pos] = done;
        self.rs_pos = (self.rs_pos + 1) % self.rs_ring.len();
        // Decode-queue slot frees when the instruction enters the RS.
        self.fq_ring[self.fq_pos] = entered_rs;
        self.fq_pos = (self.fq_pos + 1) % self.fq_ring.len();
        self.horizon = self.horizon.max(done);

        let times = RetireTimes {
            fetch,
            issue,
            done,
            streaming,
        };

        // Branches: predictor + front-end redirect + LSD.
        if info.cond_branch {
            self.pmu.branches += 1;
            let correct = self.predictor.observe(info.va, info.taken);
            let was_streaming = self.lsd.streaming;
            let now_streaming = self.lsd.observe_branch(
                info.va,
                info.va + u64::from(info.len),
                info.target_va.or_else(|| {
                    // Not-taken branches still have a static target; for LSD
                    // purposes only taken-backward matters, so None is fine.
                    None
                }),
                info.taken,
            );
            if now_streaming && !was_streaming {
                // LSD lock-on.
            }
            if now_streaming {
                self.pmu.lsd_iterations += 1;
            }
            if !correct {
                self.pmu.branch_mispredictions += 1;
                let resume = done + self.config.predictor.mispredict_penalty;
                self.redirect(resume);
            } else if info.taken && !now_streaming {
                // Taken branches refetch from the target line, paying the
                // redirect bubble the LSD exists to remove.
                self.redirect(self.delivered_at + self.config.taken_branch_bubble);
            }
        } else if info.taken {
            self.pmu.branches += 1;
            if !self.lsd.streaming {
                self.redirect(self.delivered_at + self.config.taken_branch_bubble);
            }
        }
        times
    }

    /// Final counters (consumes accumulated state).
    pub fn finish(mut self) -> Pmu {
        self.pmu.cycles = self.horizon.max(self.delivered_at) + 1;
        self.pmu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UarchConfig;

    #[test]
    fn predictor_learns_loop() {
        let config = UarchConfig::core2();
        let mut p = Predictor::new(&config);
        let mut wrong = 0;
        for _ in 0..100 {
            if !p.observe(0x1000, true) {
                wrong += 1;
            }
        }
        assert!(wrong <= 2, "steady taken branch learned: {wrong} wrong");
    }

    #[test]
    fn predictor_aliasing_in_same_bucket() {
        let config = UarchConfig::core2();
        // Two branches 8 bytes apart: same PC>>5 bucket -> they fight.
        let mut p = Predictor::new(&config);
        let mut wrong_aliased = 0;
        for _ in 0..200 {
            if !p.observe(0x1000, true) {
                wrong_aliased += 1;
            }
            if !p.observe(0x1008, false) {
                wrong_aliased += 1;
            }
        }
        // Same two branches 32 bytes apart: distinct buckets.
        let mut p = Predictor::new(&config);
        let mut wrong_separate = 0;
        for _ in 0..200 {
            if !p.observe(0x1000, true) {
                wrong_separate += 1;
            }
            if !p.observe(0x1020, false) {
                wrong_separate += 1;
            }
        }
        assert!(
            wrong_aliased > wrong_separate * 5,
            "aliased {wrong_aliased} vs separate {wrong_separate}"
        );
    }

    #[test]
    fn lsd_locks_after_min_iterations() {
        let config = UarchConfig::core2();
        let mut lsd = Lsd::new(&config);
        // 30-byte body: 2-3 lines, qualifies.
        for i in 0..100 {
            let streaming = lsd.observe_branch(0x1030, 0x1032, Some(0x1010), true);
            if i + 1 >= config.lsd.min_iterations {
                assert!(streaming, "iteration {i}");
            } else {
                assert!(!streaming, "iteration {i}");
            }
        }
        // Loop exit (not taken) drops streaming.
        assert!(!lsd.observe_branch(0x1030, 0x1032, None, false));
    }

    #[test]
    fn lsd_rejects_wide_loops() {
        let config = UarchConfig::core2();
        let mut lsd = Lsd::new(&config);
        // 90-byte body: 6+ lines, never qualifies.
        for _ in 0..200 {
            assert!(!lsd.observe_branch(0x1060, 0x1062, Some(0x1008), true));
        }
    }

    #[test]
    fn port_masks_come_from_the_cost_table() {
        let cost = UarchConfig::core2().cost;
        let lea = mao::MaoUnit::parse("leal (%rax), %ebx\n").unwrap();
        assert_eq!(cost.ports_for(lea.insn(0).unwrap(), 6, false), 0b00_0001);
        let sar = mao::MaoUnit::parse("sarl %eax\n").unwrap();
        assert_eq!(cost.ports_for(sar.insn(0).unwrap(), 6, false), 0b10_0001);
        // Clipping to fewer ports keeps a nonempty mask.
        assert_ne!(cost.ports_for(sar.insn(0).unwrap(), 3, false), 0);
    }

    #[test]
    fn latency_ranks() {
        let cost = UarchConfig::core2().cost;
        let mul = mao::MaoUnit::parse("imull %ecx, %eax\n").unwrap();
        let add = mao::MaoUnit::parse("addl %ecx, %eax\n").unwrap();
        assert!(cost.latency(mul.insn(0).unwrap()) > cost.latency(add.insn(0).unwrap()));
    }
}
