//! Further verifiable locks from the paper's Table 5 list: Anderson's
//! array lock, the TWA lock (ticket + waiting array), a recursive CAS
//! lock, and Drepper's 3-state futex mutex.
//!
//! Futexes are modeled with await instructions: `futex_wait(addr, v)` is
//! "poll until the word differs from `v`" (the kernel wakeup is exactly a
//! value change making the poll succeed), and `futex_wake` needs no event
//! at all. This keeps the 3-state mutex fully checkable by AMC.

use vsync_graph::Mode;
use vsync_lang::{Addr, AluOp, Program, ProgramBuilder, Reg, Test, ThreadBuilder};

use super::common::{emit_counter_increment, LockModel, COUNTER, LOCK, LOCK2};

/// Base address of the Anderson-lock slots (4 slots, 16 bytes apart).
pub const ARRAY_BASE: u64 = 0x800;
/// Base address of the TWA waiting array.
pub const TWA_WA_BASE: u64 = 0x900;
/// Slot-count mask (4 slots; enough for the model-checked thread counts).
const SLOT_MASK: u64 = 3;

/// Anderson's array-based queue lock: each waiter spins on its own slot;
/// the releaser opens the next one.
#[derive(Debug, Clone, Copy)]
pub struct ArrayLock {
    /// Mode of the ticket-drawing fetch-add. `acq_rel` by default: with
    /// three threads and two rounds a slot is reused, and a relaxed draw
    /// lets the reusing holder's critical section overlap the previous
    /// one (`vsync optimize arraylock --threads 3 --acquires 2` keeps it
    /// at `acq_rel`).
    pub fai_mode: Mode,
    /// Mode of the slot-polling read.
    pub await_mode: Mode,
    /// Mode of the slot-opening store in release.
    pub release_mode: Mode,
}

impl Default for ArrayLock {
    fn default() -> Self {
        ArrayLock { fai_mode: Mode::AcqRel, await_mode: Mode::Acq, release_mode: Mode::Rel }
    }
}

const MY_TICKET: Reg = Reg(12);

impl ArrayLock {
    fn slot_addr(t: &mut ThreadBuilder, dst: Reg, ticket: Reg) {
        t.op(dst, AluOp::And, ticket, SLOT_MASK);
        t.op(dst, AluOp::Shl, dst, 4u64);
        t.op(dst, AluOp::Add, dst, ARRAY_BASE);
    }
}

impl LockModel for ArrayLock {
    fn name(&self) -> &'static str {
        "arraylock"
    }

    fn emit_init(&self, pb: &mut ProgramBuilder) {
        pb.init(ARRAY_BASE, 1); // slot 0 starts open
    }

    fn emit_acquire(&self, t: &mut ThreadBuilder) {
        t.fetch_add(MY_TICKET, LOCK, 1u64, ("array.acquire.fai", self.fai_mode));
        ArrayLock::slot_addr(t, Reg(0), MY_TICKET);
        t.await_eq(Reg(1), Addr::Reg(Reg(0)), 1u64, ("array.acquire.await", self.await_mode));
        // Reset our slot for wrap-around reuse.
        t.store(Addr::Reg(Reg(0)), 0u64, ("array.acquire.clear", Mode::Rlx));
    }

    fn emit_release(&self, t: &mut ThreadBuilder) {
        t.add(Reg(2), MY_TICKET, 1u64);
        ArrayLock::slot_addr(t, Reg(3), Reg(2));
        t.store(Addr::Reg(Reg(3)), 1u64, ("array.release.open", self.release_mode));
    }
}

/// TWA: a ticket lock whose far-from-the-head waiters park on a hashed
/// waiting-array slot before joining the owner spin (Dice & Kogan).
#[derive(Debug, Clone, Copy)]
pub struct TwaLock {
    /// Mode of the ticket fetch-add.
    pub fai_mode: Mode,
    /// Mode of the owner polls.
    pub await_mode: Mode,
    /// Mode of the owner-bump store.
    pub release_mode: Mode,
}

impl Default for TwaLock {
    fn default() -> Self {
        TwaLock { fai_mode: Mode::Rlx, await_mode: Mode::Acq, release_mode: Mode::Rel }
    }
}

impl TwaLock {
    fn wa_addr(t: &mut ThreadBuilder, dst: Reg, ticket: Reg) {
        t.op(dst, AluOp::And, ticket, SLOT_MASK);
        t.op(dst, AluOp::Shl, dst, 4u64);
        t.op(dst, AluOp::Add, dst, TWA_WA_BASE);
    }
}

impl LockModel for TwaLock {
    fn name(&self) -> &'static str {
        "twalock"
    }

    fn emit_acquire(&self, t: &mut ThreadBuilder) {
        let direct = t.label();
        // my = fetch_add(next); LOCK = next dispenser, LOCK2 = owner.
        t.fetch_add(MY_TICKET, LOCK, 1u64, ("twa.acquire.fai", self.fai_mode));
        t.load(Reg(0), LOCK2, ("twa.acquire.read_owner", self.await_mode));
        t.op(Reg(1), AluOp::Sub, MY_TICKET, Reg(0));
        t.jmp_if(Reg(1), Test::cmp(vsync_lang::Cmp::Le, 1u64), direct);
        // Long-term waiting: park on the hashed waiting-array slot until
        // the releaser posts our ticket.
        TwaLock::wa_addr(t, Reg(2), MY_TICKET);
        t.await_eq(Reg(3), Addr::Reg(Reg(2)), MY_TICKET, ("twa.acquire.await_wa", Mode::Rlx));
        t.bind(direct);
        t.await_eq(Reg(4), LOCK2, MY_TICKET, ("twa.acquire.await_owner", self.await_mode));
    }

    fn emit_release(&self, t: &mut ThreadBuilder) {
        t.load(Reg(5), LOCK2, ("twa.release.read", Mode::Rlx));
        t.add(Reg(6), Reg(5), 1u64);
        t.store(LOCK2, Reg(6), ("twa.release.store", self.release_mode));
        // Post the wakeup for the ticket after the new owner.
        t.add(Reg(7), Reg(6), 1u64);
        TwaLock::wa_addr(t, Reg(8), Reg(7));
        t.store(Addr::Reg(Reg(8)), Reg(7), ("twa.release.post", self.release_mode));
    }
}

/// A recursive CAS lock: an owner word (thread id + 1) plus a depth
/// counter; re-entry by the owner only bumps the depth.
#[derive(Debug, Clone, Copy)]
pub struct RecursiveLock {
    /// Mode of the acquiring CAS.
    pub acquire_mode: Mode,
    /// Mode of the releasing store.
    pub release_mode: Mode,
}

impl Default for RecursiveLock {
    fn default() -> Self {
        RecursiveLock { acquire_mode: Mode::Acq, release_mode: Mode::Rel }
    }
}

impl LockModel for RecursiveLock {
    fn name(&self) -> &'static str {
        "recursive"
    }

    fn emit_acquire(&self, t: &mut ThreadBuilder) {
        let me = t.id() as u64 + 1;
        let have_it = t.label();
        // Owner check: only the owner can observe its own id here.
        t.load(Reg(0), LOCK, ("rec.acquire.read_owner", Mode::Rlx));
        t.jmp_if(Reg(0), Test::eq(me), have_it);
        t.await_cas(Reg(1), LOCK, 0u64, me, ("rec.acquire.cas", self.acquire_mode));
        t.bind(have_it);
        // depth++ (LOCK2 is only ever touched by the owner).
        t.load(Reg(2), LOCK2, ("rec.acquire.read_depth", Mode::Rlx));
        t.add(Reg(3), Reg(2), 1u64);
        t.store(LOCK2, Reg(3), ("rec.acquire.write_depth", Mode::Rlx));
    }

    fn emit_release(&self, t: &mut ThreadBuilder) {
        let done = t.label();
        let full = t.label();
        t.load(Reg(4), LOCK2, ("rec.release.read_depth", Mode::Rlx));
        t.op(Reg(5), AluOp::Sub, Reg(4), 1u64);
        t.store(LOCK2, Reg(5), ("rec.release.write_depth", Mode::Rlx));
        t.jmp_if(Reg(5), Test::eq(0u64), full);
        t.jmp(done);
        t.bind(full);
        t.store(LOCK, 0u64, ("rec.release.store_owner", self.release_mode));
        t.bind(done);
    }
}

/// Drepper's 3-state futex mutex: 0 free, 1 locked, 2 locked-with-waiters.
/// `futex_wait(l, 2)` is modeled as `await_neq(l, 2)`.
#[derive(Debug, Clone, Copy)]
pub struct FutexMutex {
    /// Mode of the fast-path CAS and the slow-path exchanges.
    pub acquire_mode: Mode,
    /// Mode of the releasing exchange.
    pub release_mode: Mode,
}

impl Default for FutexMutex {
    fn default() -> Self {
        FutexMutex { acquire_mode: Mode::Acq, release_mode: Mode::Rel }
    }
}

impl LockModel for FutexMutex {
    fn name(&self) -> &'static str {
        "futex-mutex"
    }

    fn emit_acquire(&self, t: &mut ThreadBuilder) {
        let done = t.label();
        t.cas(Reg(0), LOCK, 0u64, 1u64, ("futex.acquire.cas", self.acquire_mode));
        t.jmp_if(Reg(0), Test::eq(0u64), done);
        // Contended: publish waiters (state 2) and sleep until it changes.
        let retry = t.here_label();
        t.xchg(Reg(1), LOCK, 2u64, ("futex.acquire.xchg", self.acquire_mode));
        t.jmp_if(Reg(1), Test::eq(0u64), done);
        t.await_neq(Reg(2), LOCK, 2u64, ("futex.acquire.wait", Mode::Rlx));
        t.jmp(retry);
        t.bind(done);
    }

    fn emit_release(&self, t: &mut ThreadBuilder) {
        // xchg(0); a woken waiter polls the word, so the wake is implicit.
        t.xchg(Reg(3), LOCK, 0u64, ("futex.release.xchg", self.release_mode));
    }
}

/// A nested-acquisition scenario for the recursive lock: thread 0 takes the
/// lock twice (recursively) around its increment while thread 1 contends.
pub fn recursive_scenario(lock: RecursiveLock) -> Program {
    let mut pb = ProgramBuilder::new("recursive-nested");
    pb.init(COUNTER, 0);
    pb.thread(move |t| {
        lock.emit_acquire(t);
        lock.emit_acquire(t); // re-entry
        emit_counter_increment(t);
        lock.emit_release(t); // depth 2 -> 1: still owned
        emit_counter_increment(t);
        lock.emit_release(t); // depth 1 -> 0: released
    });
    pb.thread(move |t| {
        lock.emit_acquire(t);
        emit_counter_increment(t);
        lock.emit_release(t);
    });
    pb.final_check(COUNTER, Test::eq(3u64), "nested critical sections stay exclusive");
    pb.build().expect("scenario is well-formed")
}

#[cfg(test)]
mod tests {
    use super::super::common::mutex_client;
    use super::*;
    use vsync_core::{verify, AmcConfig, Verdict};
    use vsync_model::ModelKind;

    fn vmm() -> AmcConfig {
        AmcConfig::with_model(ModelKind::Vmm)
    }

    #[test]
    fn array_lock_verifies() {
        let v = verify(&mutex_client(&ArrayLock::default(), 2, 1), &vmm());
        assert!(v.is_verified(), "{v}");
    }

    #[test]
    fn array_lock_relaxed_open_fails() {
        let lock = ArrayLock { release_mode: Mode::Rlx, ..ArrayLock::default() };
        let v = verify(&mutex_client(&lock, 2, 1), &vmm());
        assert!(matches!(v, Verdict::Safety(_)), "{v}");
    }

    #[test]
    fn array_lock_two_rounds_wraps_slots() {
        let v = verify(&mutex_client(&ArrayLock::default(), 2, 2), &vmm());
        assert!(v.is_verified(), "{v}");
    }

    /// Three threads drawing two tickets each reuse a slot; with a relaxed
    /// ticket draw the final counter could read 5.
    #[test]
    fn array_lock_three_threads_two_rounds() {
        for model in [ModelKind::Sc, ModelKind::Tso, ModelKind::Vmm] {
            let v =
                verify(&mutex_client(&ArrayLock::default(), 3, 2), &AmcConfig::with_model(model));
            assert!(v.is_verified(), "{model:?}: {v}");
        }
        let relaxed = ArrayLock { fai_mode: Mode::Rlx, ..ArrayLock::default() };
        let v = verify(&mutex_client(&relaxed, 3, 2), &vmm());
        assert!(matches!(v, Verdict::Safety(_)), "{v}");
    }

    #[test]
    fn twa_lock_verifies() {
        let v = verify(&mutex_client(&TwaLock::default(), 2, 1), &vmm());
        assert!(v.is_verified(), "{v}");
    }

    #[test]
    fn twa_long_term_path_verifies_three_threads() {
        // Three tickets: the last waiter takes the waiting-array path.
        let v = verify(&mutex_client(&TwaLock::default(), 3, 1), &vmm());
        assert!(v.is_verified(), "{v}");
    }

    #[test]
    fn recursive_lock_verifies() {
        let v = verify(&mutex_client(&RecursiveLock::default(), 2, 1), &vmm());
        assert!(v.is_verified(), "{v}");
    }

    #[test]
    fn recursive_nesting_verifies() {
        let v = verify(&recursive_scenario(RecursiveLock::default()), &vmm());
        assert!(v.is_verified(), "{v}");
    }

    #[test]
    fn recursive_relaxed_release_fails() {
        let lock = RecursiveLock { release_mode: Mode::Rlx, ..RecursiveLock::default() };
        let v = verify(&mutex_client(&lock, 2, 1), &vmm());
        assert!(matches!(v, Verdict::Safety(_)), "{v}");
    }

    #[test]
    fn futex_mutex_verifies() {
        let v = verify(&mutex_client(&FutexMutex::default(), 2, 1), &vmm());
        assert!(v.is_verified(), "{v}");
    }

    #[test]
    fn futex_mutex_two_rounds_verifies() {
        let v = verify(&mutex_client(&FutexMutex::default(), 2, 2), &vmm());
        assert!(v.is_verified(), "{v}");
    }

    #[test]
    fn futex_mutex_relaxed_release_fails() {
        let lock = FutexMutex { release_mode: Mode::Rlx, ..FutexMutex::default() };
        let v = verify(&mutex_client(&lock, 2, 1), &vmm());
        assert!(matches!(v, Verdict::Safety(_)), "{v}");
    }

    #[test]
    fn futex_mutex_relaxed_acquire_fails() {
        let lock = FutexMutex { acquire_mode: Mode::Rlx, ..FutexMutex::default() };
        let v = verify(&mutex_client(&lock, 2, 1), &vmm());
        assert!(matches!(v, Verdict::Safety(_)), "{v}");
    }
}
