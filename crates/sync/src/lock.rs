//! The engine's mutex, reader–writer lock and condition variable: `std`'s,
//! with poison made loud.
//!
//! A `std` lock is poisoned when a thread panics while holding it, because
//! the data it guards may be half-updated. Every acquire here panics at once
//! on a poisoned lock, naming the acquire site and the guarded type, instead
//! of handing that state to the next caller. The exception is a thread that
//! is already unwinding: it gets the state. `Txn::drop` rolls back through
//! the heap, the WAL and the lock table while a panic unwinds, and a second
//! panic there would abort the process before the first one is reported.
//!
//! An acquire is one `std` call and a branch on its result; only the
//! poisoned arm, which is `#[cold]`, differs from `std`'s own.

use std::ops::{Deref, DerefMut};
use std::sync::{PoisonError, TryLockError, WaitTimeoutResult};
use std::time::Duration;

/// The cold arm of every acquire: the lock's holder panicked.
#[cold]
#[inline(never)]
#[track_caller]
fn poisoned<T: ?Sized, G>(err: PoisonError<G>) -> G {
    if std::thread::panicking() {
        return err.into_inner();
    }
    poison_panic(std::any::type_name::<T>())
}

/// Not generic, so the panic's formatting is compiled once, not per type.
#[cold]
#[inline(never)]
#[track_caller]
fn poison_panic(guarded: &str) -> ! {
    panic!(
        "lock over `{guarded}` poisoned (acquired at {}): a thread panicked while holding it",
        std::panic::Location::caller()
    )
}

/// Mutual exclusion over `T`; see the module doc for poisoning.
#[derive(Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// Guard returned by [`Mutex::lock`]; releases on drop.
pub struct MutexGuard<'a, T: ?Sized>(std::sync::MutexGuard<'a, T>);

impl<T> Mutex<T> {
    /// Creates an unlocked mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, blocking until it is free.
    #[inline]
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match self.0.lock() {
            Ok(g) => MutexGuard(g),
            Err(e) => MutexGuard(poisoned::<T, _>(e)),
        }
    }

    /// Acquires the mutex if it is free, without blocking.
    #[inline]
    #[track_caller]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard(g)),
            Err(TryLockError::WouldBlock) => None,
            Err(TryLockError::Poisoned(e)) => Some(MutexGuard(poisoned::<T, _>(e))),
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// Reader–writer lock over `T`; see the module doc for poisoning.
#[derive(Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

/// Shared guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized>(std::sync::RwLockReadGuard<'a, T>);

/// Exclusive guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized>(std::sync::RwLockWriteGuard<'a, T>);

impl<T> RwLock<T> {
    /// Creates an unlocked lock holding `value`.
    pub const fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared access, blocking while a writer holds the lock.
    #[inline]
    #[track_caller]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        match self.0.read() {
            Ok(g) => RwLockReadGuard(g),
            Err(e) => RwLockReadGuard(poisoned::<T, _>(e)),
        }
    }

    /// Acquires exclusive access, blocking while anyone holds the lock.
    #[inline]
    #[track_caller]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        match self.0.write() {
            Ok(g) => RwLockWriteGuard(g),
            Err(e) => RwLockWriteGuard(poisoned::<T, _>(e)),
        }
    }
}

/// Names the type without taking the lock, so formatting never blocks and
/// never meets poison.
impl<T: ?Sized> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RwLock<{}> {{ .. }}", std::any::type_name::<T>())
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// A condition variable that waits on a [`MutexGuard`].
#[derive(Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// Creates a condition variable with no waiters.
    pub const fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    /// Releases `guard`'s mutex, sleeps until notified (or spuriously), and
    /// reacquires it.
    #[track_caller]
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        match self.0.wait(guard.0) {
            Ok(g) => MutexGuard(g),
            Err(e) => MutexGuard(poisoned::<T, _>(e)),
        }
    }

    /// As [`Condvar::wait`], but gives up after `timeout`.
    #[track_caller]
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        let (g, timed_out) = match self.0.wait_timeout(guard.0, timeout) {
            Ok(pair) => pair,
            Err(e) => poisoned::<T, _>(e),
        };
        (MutexGuard(g), timed_out)
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::{type_name, Any};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    fn message(payload: Box<dyn Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p.downcast_ref::<&str>().map(|s| s.to_string()).unwrap_or_default(),
        }
    }

    /// Runs `f`, which must panic, and returns its panic message.
    fn panic_of(f: impl FnOnce()) -> String {
        message(catch_unwind(AssertUnwindSafe(f)).expect_err("the acquire must panic"))
    }

    /// Panics while holding `guard`, which poisons its lock.
    fn die_holding<G>(guard: G) {
        let _guard = guard;
        panic!("holder died");
    }

    /// Runs `hold`, which must die holding a guard.
    fn poison(hold: impl FnOnce()) {
        assert_eq!(panic_of(hold), "holder died");
    }

    #[derive(Default)]
    struct Pair {
        waiting: bool,
        woken: u64,
    }

    #[test]
    fn every_acquire_panics_on_poison_and_names_the_type_and_site() {
        let expect = |msg: String| {
            assert!(msg.contains(type_name::<Pair>()), "{msg}");
            assert!(msg.contains(file!()), "{msg}");
        };
        let m = Mutex::new(Pair::default());
        poison(|| die_holding(m.lock()));
        expect(panic_of(|| drop(m.lock())));
        expect(panic_of(|| drop(m.try_lock())));

        let l = RwLock::new(Pair::default());
        poison(|| die_holding(l.write()));
        expect(panic_of(|| drop(l.read())));
        expect(panic_of(|| drop(l.write())));
    }

    #[test]
    fn condvar_wait_panics_when_the_mutex_is_poisoned_while_it_sleeps() {
        let shared = Arc::new((Mutex::new(Pair::default()), Condvar::new()));
        let s = Arc::clone(&shared);
        let waiter = std::thread::spawn(move || {
            let (m, cv) = &*s;
            let mut g = m.lock();
            g.waiting = true;
            while g.woken == 0 {
                g = cv.wait(g);
            }
        });
        let s = Arc::clone(&shared);
        let poisoner = std::thread::spawn(move || loop {
            let (m, cv) = &*s;
            let g = m.lock();
            // The waiter set its flag under the lock and released it only
            // inside `wait`, so it is asleep now: wake it, then die holding
            // the lock it must take back.
            if g.waiting {
                cv.notify_all();
                panic!("holder died");
            }
            drop(g);
            std::thread::yield_now();
        });
        assert_eq!(message(poisoner.join().expect_err("the poisoner panics")), "holder died");
        let msg = message(waiter.join().expect_err("the woken waiter must panic"));
        assert!(msg.contains(type_name::<Pair>()), "{msg}");
    }

    #[test]
    fn a_drop_that_locks_a_poisoned_mutex_while_unwinding_does_not_abort() {
        struct LocksOnDrop<'a>(&'a Mutex<Pair>);
        impl Drop for LocksOnDrop<'_> {
            fn drop(&mut self) {
                // A rollback during unwinding: it gets the state.
                self.0.lock().woken += 1;
            }
        }
        let m = Mutex::new(Pair::default());
        poison(|| die_holding(m.lock()));
        let first = panic_of(|| {
            let _rollback = LocksOnDrop(&m);
            panic!("the first panic");
        });
        assert_eq!(first, "the first panic", "the first panic's payload comes back");
        // Outside unwinding, the lock is still loud.
        assert!(panic_of(|| drop(m.lock())).contains(type_name::<Pair>()));
    }

    #[test]
    fn try_lock_fails_while_held() {
        let m = Mutex::new(());
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }
}
