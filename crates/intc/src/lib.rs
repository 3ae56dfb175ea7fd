//! # mpdp-intc — the multiprocessor interrupt controller
//!
//! Register-level behavioural model of the interrupt controller the paper
//! builds (§3.2, and its companion paper "An Interrupt Controller for
//! FPGA-based Multiprocessors", SAMOS 2007). The stock Xilinx controller can
//! only forward multiple interrupts to a *single* MicroBlaze; this design
//! adds the five features the paper lists:
//!
//! 1. **Distribution** — a peripheral interrupt goes to a *free* processor
//!    (one not already handling an interrupt), so concurrent ISRs run in
//!    parallel;
//! 2. **Fixed priority with timeout** — the signaled processor has a
//!    deadline to acknowledge; on timeout the signal is withdrawn and the
//!    interrupt is propagated to the next processor in the priority list;
//! 3. **Booking** — a peripheral can be booked by a processor, which then
//!    becomes the only receiver of its interrupts (IP-core read-back);
//! 4. **Multicast / broadcast** — one signal propagated to several or all
//!    processors (e.g. a global timer);
//! 5. **Inter-processor interrupts** — any processor can interrupt any
//!    other (context-switch kick-off, synchronization).
//!
//! Register accesses are serialized by mutual exclusion on the real device
//! ("controller management is sequential, but the execution of the interrupt
//! handlers is parallel"); the kernel models that cost via the
//! [`mpdp_hw::sync::SyncEngine`] plus [`REGISTER_ACCESS_CYCLES`].
//!
//! ## Examples
//!
//! ```
//! use mpdp_intc::{MpInterruptController, InterruptSource};
//! use mpdp_core::ids::{PeripheralId, ProcId};
//! use mpdp_core::time::Cycles;
//!
//! let mut intc = MpInterruptController::new(2, 4, Cycles::new(100));
//! intc.raise_peripheral(PeripheralId::new(0), Cycles::ZERO);
//! // Delivered to the first free processor:
//! assert_eq!(
//!     intc.signaled(ProcId::new(0)).map(|s| s.source),
//!     Some(InterruptSource::Peripheral(PeripheralId::new(0)))
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;

use mpdp_core::ids::{PeripheralId, ProcId};
use mpdp_core::time::Cycles;

/// Cycles per controller register access (configuration, acknowledge, end of
/// interrupt), charged by the kernel on top of the mutual-exclusion cost.
pub const REGISTER_ACCESS_CYCLES: u32 = 6;

/// What raised an interrupt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterruptSource {
    /// The system timer (starts a scheduling cycle).
    Timer,
    /// An inter-processor interrupt with a small payload word.
    Ipi {
        /// The sending processor.
        from: ProcId,
        /// Payload (the kernel encodes the switch command here).
        payload: u32,
    },
    /// An external peripheral (CAN interface, camera, sensor hub, ...).
    Peripheral(PeripheralId),
}

impl InterruptSource {
    /// Routing priority class: IPIs outrank the timer, which outranks
    /// peripherals; peripherals rank by ascending id (fixed priority).
    fn priority_key(self) -> (u8, u32) {
        match self {
            InterruptSource::Ipi { .. } => (0, 0),
            InterruptSource::Timer => (1, 0),
            InterruptSource::Peripheral(p) => (2, p.as_u32()),
        }
    }
}

/// An interrupt currently signaled to a processor (its INT line is high),
/// waiting to be acknowledged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignaledInterrupt {
    /// The source being delivered.
    pub source: InterruptSource,
    /// When the line was raised to this processor.
    pub signaled_at: Cycles,
    /// Acknowledge deadline; missing it re-routes the interrupt.
    pub deadline: Cycles,
}

/// Per-processor interrupt interface state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcState {
    /// Interrupt reception enabled, no line raised.
    Free,
    /// Line raised, waiting for acknowledge.
    Signaled,
    /// Inside an ISR; reception disabled.
    Handling,
    /// Fail-stopped: the processor never acknowledges again and is skipped
    /// by all routing (fault-injection support).
    Dead,
}

/// A pending interrupt not yet signaled (its target set is busy).
#[derive(Debug, Clone, Copy)]
struct Pending {
    source: InterruptSource,
    /// Routing constraint: `None` = any free processor; `Some(proc)` =
    /// only that one (a booking, a directed IPI or timer, or one target of
    /// a multicast, which enqueues once per target).
    target: Option<ProcId>,
    /// Index of the next processor to try in the priority list (for timeout
    /// rotation).
    next_try: usize,
}

/// Delivery statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IntcStats {
    /// Interrupts raised (broadcast counts once per target).
    pub raised: u64,
    /// Lines raised to processors.
    pub signaled: u64,
    /// Acknowledges received.
    pub acknowledged: u64,
    /// Acknowledge timeouts (re-routes).
    pub timeouts: u64,
    /// Register accesses performed.
    pub register_accesses: u64,
    /// Total cycles between line-raise and acknowledge, summed over all
    /// acknowledged interrupts.
    pub total_ack_latency: u64,
}

impl IntcStats {
    /// Mean cycles from line-raise to acknowledge.
    pub fn mean_ack_latency(&self) -> f64 {
        if self.acknowledged == 0 {
            0.0
        } else {
            self.total_ack_latency as f64 / self.acknowledged as f64
        }
    }
}

/// The multiprocessor interrupt controller.
#[derive(Debug, Clone)]
pub struct MpInterruptController {
    n_procs: usize,
    ack_timeout: Cycles,
    proc_state: Vec<ProcState>,
    signal: Vec<Option<SignaledInterrupt>>,
    /// Routing constraint of each raised signal (needed to re-route on
    /// timeout without widening a booked/directed delivery).
    signal_targets: Vec<Option<ProcId>>,
    /// Peripheral bookings: `booking[p]` restricts peripheral `p`'s
    /// interrupts to one processor.
    booking: Vec<Option<ProcId>>,
    /// Peripheral multicast masks: when set, the peripheral's interrupt is
    /// delivered to every processor in the mask (bit `i` = processor `i`).
    multicast: Vec<Option<u32>>,
    pending: VecDeque<Pending>,
    stats: IntcStats,
}

impl MpInterruptController {
    /// Creates a controller for `n_procs` processors and `n_peripherals`
    /// peripheral lines, with the given acknowledge timeout.
    ///
    /// # Panics
    ///
    /// Panics if `n_procs` is zero or the timeout is zero.
    pub fn new(n_procs: usize, n_peripherals: usize, ack_timeout: Cycles) -> Self {
        assert!(n_procs > 0, "at least one processor");
        assert!(
            !ack_timeout.is_zero(),
            "acknowledge timeout must be non-zero"
        );
        MpInterruptController {
            n_procs,
            ack_timeout,
            proc_state: vec![ProcState::Free; n_procs],
            signal: vec![None; n_procs],
            signal_targets: vec![None; n_procs],
            booking: vec![None; n_peripherals],
            multicast: vec![None; n_peripherals],
            pending: VecDeque::new(),
            stats: IntcStats::default(),
        }
    }

    /// Number of processors connected.
    pub fn n_procs(&self) -> usize {
        self.n_procs
    }

    /// Statistics so far.
    pub fn stats(&self) -> IntcStats {
        self.stats
    }

    /// Books peripheral `p` so only `proc` receives its interrupts; `None`
    /// clears the booking.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `proc` is out of range.
    pub fn book(&mut self, p: PeripheralId, proc: Option<ProcId>) {
        if let Some(pr) = proc {
            assert!(pr.index() < self.n_procs, "processor out of range");
        }
        self.booking[p.index()] = proc;
        self.stats.register_accesses += 1;
    }

    /// The current booking of peripheral `p`.
    pub fn booking(&self, p: PeripheralId) -> Option<ProcId> {
        self.booking[p.index()]
    }

    /// Sets a multicast mask for peripheral `p` (bit `i` = processor `i`);
    /// `None` restores single-target distribution. A mask of all ones is a
    /// broadcast.
    ///
    /// # Panics
    ///
    /// Panics if the mask selects no in-range processor.
    pub fn set_multicast(&mut self, p: PeripheralId, mask: Option<u32>) {
        if let Some(m) = mask {
            let valid = m & ((1u32 << self.n_procs) - 1);
            assert!(valid != 0, "multicast mask selects no processor");
        }
        self.multicast[p.index()] = mask;
        self.stats.register_accesses += 1;
    }

    /// Raises a peripheral interrupt at `now`, routing it according to the
    /// peripheral's booking/multicast configuration.
    pub fn raise_peripheral(&mut self, p: PeripheralId, now: Cycles) {
        let source = InterruptSource::Peripheral(p);
        if let Some(mask) = self.multicast[p.index()] {
            for i in 0..self.n_procs {
                if mask & (1 << i) != 0 {
                    self.enqueue(source, now, Some(ProcId::new(i as u32)));
                }
            }
        } else if let Some(proc) = self.booking[p.index()] {
            self.enqueue(source, now, Some(proc));
        } else {
            self.enqueue(source, now, None);
        }
    }

    /// Raises the system-timer interrupt at `now`; it is distributed to a
    /// free processor like an unbooked peripheral, but outranks peripherals.
    pub fn raise_timer(&mut self, now: Cycles) {
        self.enqueue(InterruptSource::Timer, now, None);
    }

    /// Raises the system-timer interrupt directed at one processor — the
    /// behaviour of the stock single-target Xilinx controller the paper
    /// criticizes ("the standard interrupt controller integrated in the
    /// Xilinx Embedded Developer Kit is ineffective, since it only permits
    /// to propagate multiple interrupts to a single processor"). Used by the
    /// `ablate_intc` experiment.
    pub fn raise_timer_to(&mut self, proc: ProcId, now: Cycles) {
        assert!(proc.index() < self.n_procs, "processor out of range");
        self.enqueue(InterruptSource::Timer, now, Some(proc));
    }

    /// Raises the timer as a broadcast to every processor (the alternative
    /// global-tick configuration the paper mentions).
    pub fn raise_timer_broadcast(&mut self, now: Cycles) {
        for i in 0..self.n_procs {
            self.enqueue(InterruptSource::Timer, now, Some(ProcId::new(i as u32)));
        }
    }

    /// Raises an inter-processor interrupt from `from` to `to` carrying
    /// `payload`.
    ///
    /// # Panics
    ///
    /// Panics if either processor is out of range.
    pub fn raise_ipi(&mut self, from: ProcId, to: ProcId, payload: u32, now: Cycles) {
        assert!(from.index() < self.n_procs && to.index() < self.n_procs);
        self.enqueue(InterruptSource::Ipi { from, payload }, now, Some(to));
    }

    fn enqueue(&mut self, source: InterruptSource, now: Cycles, target: Option<ProcId>) {
        self.stats.raised += 1;
        self.pending.push_back(Pending {
            source,
            target,
            next_try: 0,
        });
        self.route(now);
    }

    /// Attempts to signal pending interrupts to free processors. Higher
    /// priority sources route first; FIFO within a source class.
    fn route(&mut self, now: Cycles) {
        // Stable sort by priority class, preserving arrival order within;
        // what cannot be signaled stays queued in that order. Sorting and
        // filtering in place keeps the queue's buffer.
        let mut pending = std::mem::take(&mut self.pending);
        pending
            .make_contiguous()
            .sort_by_key(|p| p.source.priority_key());
        pending.retain_mut(|item| !self.try_signal(item, now));
        self.pending = pending;
    }

    /// Tries to raise the line for one pending interrupt; returns `true` if
    /// signaled.
    fn try_signal(&mut self, item: &mut Pending, now: Cycles) -> bool {
        // Rotation: start from next_try and wrap (fixed priority list with
        // timeout advance). A single target is its own whole list.
        let n = if item.target.is_some() {
            1
        } else {
            self.n_procs
        };
        for off in 0..n {
            let proc = item
                .target
                .unwrap_or_else(|| ProcId::new(((item.next_try + off) % n) as u32));
            if self.proc_state[proc.index()] == ProcState::Free {
                self.proc_state[proc.index()] = ProcState::Signaled;
                self.signal[proc.index()] = Some(SignaledInterrupt {
                    source: item.source,
                    signaled_at: now,
                    deadline: now + self.ack_timeout,
                });
                self.signal_targets[proc.index()] = item.target;
                self.stats.signaled += 1;
                return true;
            }
        }
        false
    }

    /// The interrupt currently signaled to `proc`, if its line is high.
    pub fn signaled(&self, proc: ProcId) -> Option<SignaledInterrupt> {
        self.signal[proc.index()]
    }

    /// Acknowledges the interrupt signaled to `proc`: the processor enters
    /// its ISR and its reception is disabled until
    /// [`MpInterruptController::end_of_interrupt`].
    ///
    /// # Panics
    ///
    /// Panics if no interrupt is signaled to `proc`.
    pub fn acknowledge(&mut self, proc: ProcId, now: Cycles) -> SignaledInterrupt {
        let sig = self.signal[proc.index()]
            .take()
            .expect("acknowledge with no signaled interrupt");
        self.proc_state[proc.index()] = ProcState::Handling;
        self.stats.acknowledged += 1;
        self.stats.register_accesses += 1;
        self.stats.total_ack_latency += now.saturating_sub(sig.signaled_at).as_u64();
        sig
    }

    /// Signals completion of `proc`'s ISR, re-enabling its reception and
    /// routing any pending interrupts.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is not inside an ISR.
    pub fn end_of_interrupt(&mut self, proc: ProcId, now: Cycles) {
        assert_eq!(
            self.proc_state[proc.index()],
            ProcState::Handling,
            "end_of_interrupt outside an ISR on {proc}"
        );
        self.proc_state[proc.index()] = ProcState::Free;
        self.stats.register_accesses += 1;
        self.route(now);
    }

    /// Whether `proc` is free to receive an interrupt.
    pub fn is_free(&self, proc: ProcId) -> bool {
        self.proc_state[proc.index()] == ProcState::Free
    }

    /// The earliest acknowledge deadline among raised lines, if any.
    pub fn next_timeout(&self) -> Option<Cycles> {
        self.signal.iter().flatten().map(|s| s.deadline).min()
    }

    /// Withdraws every signal whose acknowledge deadline has passed and
    /// re-routes those interrupts to the next processor in the priority
    /// list. Returns the processors whose line was withdrawn.
    pub fn expire_timeouts(&mut self, now: Cycles) -> Vec<ProcId> {
        let mut expired = Vec::new();
        for i in 0..self.n_procs {
            if let Some(sig) = self.signal[i] {
                if sig.deadline <= now {
                    self.signal[i] = None;
                    self.proc_state[i] = ProcState::Free;
                    self.stats.timeouts += 1;
                    expired.push(ProcId::new(i as u32));
                    self.pending.push_back(Pending {
                        source: sig.source,
                        target: self.signal_targets[i].take(),
                        next_try: i + 1, // subsequent processor in the list
                    });
                }
            }
        }
        if !expired.is_empty() {
            self.route(now);
        }
        expired
    }

    /// Number of interrupts waiting for a free processor.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Fail-stops `proc`: it never acknowledges or receives an interrupt
    /// again. A line currently raised to it is withdrawn immediately and
    /// re-routed to the next processor in the priority list (the same
    /// rotation an acknowledge timeout performs, without waiting for the
    /// deadline). If the processor dies *inside* an ISR, that handler — and
    /// only that handler — is lost with it; interrupts still waiting for
    /// acknowledge are never lost.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range.
    pub fn fail_stop(&mut self, proc: ProcId, now: Cycles) {
        let i = proc.index();
        assert!(i < self.n_procs, "processor out of range");
        if self.proc_state[i] == ProcState::Dead {
            return;
        }
        if let Some(sig) = self.signal[i].take() {
            self.stats.timeouts += 1;
            self.pending.push_back(Pending {
                source: sig.source,
                target: self.signal_targets[i].take(),
                next_try: i + 1,
            });
        }
        self.proc_state[i] = ProcState::Dead;
        self.route(now);
    }

    /// Whether `proc` is still alive (has not fail-stopped).
    pub fn is_alive(&self, proc: ProcId) -> bool {
        self.proc_state[proc.index()] != ProcState::Dead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn intc(n_procs: usize) -> MpInterruptController {
        MpInterruptController::new(n_procs, 4, Cycles::new(100))
    }

    #[test]
    fn distributes_to_first_free_processor() {
        let mut c = intc(3);
        c.raise_peripheral(PeripheralId::new(2), Cycles::ZERO);
        assert!(c.signaled(ProcId::new(0)).is_some());
        assert!(c.signaled(ProcId::new(1)).is_none());
    }

    #[test]
    fn concurrent_interrupts_go_to_different_processors() {
        let mut c = intc(3);
        c.raise_peripheral(PeripheralId::new(0), Cycles::ZERO);
        c.raise_peripheral(PeripheralId::new(1), Cycles::ZERO);
        c.raise_peripheral(PeripheralId::new(2), Cycles::ZERO);
        for i in 0..3 {
            assert!(
                c.signaled(ProcId::new(i)).is_some(),
                "P{i} must be signaled"
            );
        }
        // A fourth interrupt has nowhere to go yet.
        c.raise_peripheral(PeripheralId::new(3), Cycles::ZERO);
        assert_eq!(c.pending_count(), 1);
    }

    #[test]
    fn busy_processor_is_skipped() {
        let mut c = intc(2);
        c.raise_peripheral(PeripheralId::new(0), Cycles::ZERO);
        c.acknowledge(ProcId::new(0), Cycles::new(1));
        // P0 is in an ISR: the next interrupt must go to P1.
        c.raise_peripheral(PeripheralId::new(1), Cycles::new(2));
        assert!(c.signaled(ProcId::new(1)).is_some());
        assert!(!c.is_free(ProcId::new(0)));
    }

    #[test]
    fn pending_interrupt_delivered_after_eoi() {
        let mut c = intc(1);
        c.raise_peripheral(PeripheralId::new(0), Cycles::ZERO);
        c.acknowledge(ProcId::new(0), Cycles::new(1));
        c.raise_peripheral(PeripheralId::new(1), Cycles::new(2));
        assert_eq!(c.pending_count(), 1);
        c.end_of_interrupt(ProcId::new(0), Cycles::new(50));
        let sig = c
            .signaled(ProcId::new(0))
            .expect("pending delivered on EOI");
        assert_eq!(
            sig.source,
            InterruptSource::Peripheral(PeripheralId::new(1))
        );
        assert_eq!(c.pending_count(), 0);
    }

    #[test]
    fn timeout_rotates_to_next_processor() {
        let mut c = intc(2);
        c.raise_peripheral(PeripheralId::new(0), Cycles::ZERO);
        assert_eq!(c.next_timeout(), Some(Cycles::new(100)));
        // P0 never acknowledges; at the deadline the line moves to P1.
        let expired = c.expire_timeouts(Cycles::new(100));
        assert_eq!(expired, vec![ProcId::new(0)]);
        assert!(c.signaled(ProcId::new(0)).is_none());
        let sig = c.signaled(ProcId::new(1)).expect("rotated to P1");
        assert_eq!(sig.signaled_at, Cycles::new(100));
        assert_eq!(c.stats().timeouts, 1);
    }

    #[test]
    fn booking_restricts_delivery() {
        let mut c = intc(2);
        c.book(PeripheralId::new(0), Some(ProcId::new(1)));
        assert_eq!(c.booking(PeripheralId::new(0)), Some(ProcId::new(1)));
        c.raise_peripheral(PeripheralId::new(0), Cycles::ZERO);
        assert!(c.signaled(ProcId::new(0)).is_none());
        assert!(c.signaled(ProcId::new(1)).is_some());
    }

    #[test]
    fn booked_interrupt_waits_for_its_processor() {
        let mut c = intc(2);
        c.book(PeripheralId::new(0), Some(ProcId::new(1)));
        // Occupy both processors with unbooked interrupts.
        c.raise_peripheral(PeripheralId::new(1), Cycles::ZERO);
        c.raise_peripheral(PeripheralId::new(2), Cycles::ZERO);
        c.acknowledge(ProcId::new(1), Cycles::new(1));
        // Booked interrupt: P1 busy → stays pending even though routing to
        // P0 would be possible for an unbooked line.
        c.raise_peripheral(PeripheralId::new(0), Cycles::new(2));
        assert_eq!(c.pending_count(), 1);
        c.end_of_interrupt(ProcId::new(1), Cycles::new(10));
        assert_eq!(
            c.signaled(ProcId::new(1)).map(|s| s.source),
            Some(InterruptSource::Peripheral(PeripheralId::new(0)))
        );
    }

    #[test]
    fn broadcast_reaches_every_processor() {
        let mut c = intc(3);
        c.raise_timer_broadcast(Cycles::ZERO);
        for i in 0..3 {
            assert_eq!(
                c.signaled(ProcId::new(i)).map(|s| s.source),
                Some(InterruptSource::Timer)
            );
        }
    }

    #[test]
    fn multicast_mask_selects_subset() {
        let mut c = intc(3);
        c.set_multicast(PeripheralId::new(0), Some(0b101));
        c.raise_peripheral(PeripheralId::new(0), Cycles::ZERO);
        assert!(c.signaled(ProcId::new(0)).is_some());
        assert!(c.signaled(ProcId::new(1)).is_none());
        assert!(c.signaled(ProcId::new(2)).is_some());
    }

    #[test]
    fn ipi_is_directed_and_outranks_peripherals() {
        let mut c = intc(2);
        // Occupy both processors.
        c.raise_peripheral(PeripheralId::new(0), Cycles::ZERO);
        c.raise_peripheral(PeripheralId::new(1), Cycles::ZERO);
        c.acknowledge(ProcId::new(0), Cycles::new(1));
        c.acknowledge(ProcId::new(1), Cycles::new(1));
        c.raise_peripheral(PeripheralId::new(2), Cycles::new(2));
        c.raise_ipi(ProcId::new(0), ProcId::new(1), 0x42, Cycles::new(3));
        assert_eq!(c.pending_count(), 2);
        // P1 finishes its ISR: the IPI must win over the older peripheral.
        c.end_of_interrupt(ProcId::new(1), Cycles::new(10));
        match c.signaled(ProcId::new(1)).map(|s| s.source) {
            Some(InterruptSource::Ipi { from, payload }) => {
                assert_eq!(from, ProcId::new(0));
                assert_eq!(payload, 0x42);
            }
            other => panic!("expected IPI, got {other:?}"),
        }
    }

    #[test]
    fn timer_distributed_to_free_processor() {
        let mut c = intc(2);
        c.raise_peripheral(PeripheralId::new(0), Cycles::ZERO);
        c.acknowledge(ProcId::new(0), Cycles::new(1));
        c.raise_timer(Cycles::new(5));
        assert_eq!(
            c.signaled(ProcId::new(1)).map(|s| s.source),
            Some(InterruptSource::Timer)
        );
    }

    #[test]
    fn no_interrupt_is_ever_lost() {
        let mut c = intc(2);
        for i in 0..8 {
            c.raise_peripheral(PeripheralId::new(i % 4), Cycles::new(u64::from(i)));
        }
        let mut handled = 0;
        let mut now = Cycles::new(100);
        // Repeatedly ack + EOI until everything drains.
        loop {
            let mut progressed = false;
            for p in 0..2 {
                let proc = ProcId::new(p);
                if c.signaled(proc).is_some() {
                    c.acknowledge(proc, now);
                    c.end_of_interrupt(proc, now + Cycles::new(10));
                    handled += 1;
                    progressed = true;
                }
            }
            now += Cycles::new(20);
            if !progressed {
                break;
            }
        }
        assert_eq!(handled, 8);
        assert_eq!(c.pending_count(), 0);
        assert_eq!(c.stats().acknowledged, 8);
    }

    #[test]
    #[should_panic(expected = "no signaled interrupt")]
    fn acknowledge_without_signal_panics() {
        let mut c = intc(1);
        c.acknowledge(ProcId::new(0), Cycles::ZERO);
    }

    #[test]
    #[should_panic(expected = "outside an ISR")]
    fn eoi_outside_isr_panics() {
        let mut c = intc(1);
        c.end_of_interrupt(ProcId::new(0), Cycles::ZERO);
    }
}
