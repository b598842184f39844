//! `std::sync` locks with the poison flag ignored.
//!
//! Every lock in the workspace guards state that is valid after each
//! individual update (counters, tables, a PRNG), so a panic on one
//! thread must not turn every later `lock()` on another into a second
//! panic. `lock`/`read`/`write` therefore return std's own guards
//! directly, recovering the guard from a poisoned lock.

use std::sync::PoisonError;
pub use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// A mutex whose `lock` cannot fail.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// A mutex holding `value`.
    pub fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Block until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A reader-writer lock whose `read` and `write` cannot fail.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// A lock holding `value`.
    pub fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Block until shared access is held.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Block until exclusive access is held.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_poisoned_lock_still_locks() {
        let m = Arc::new(Mutex::new(1));
        let rw = Arc::new(RwLock::new(1));
        let (m2, rw2) = (m.clone(), rw.clone());
        let died = std::thread::spawn(move || {
            let _g = m2.lock();
            let _w = rw2.write();
            panic!("poison both");
        })
        .join();
        assert!(died.is_err());
        *m.lock() += 1;
        *rw.write() += 1;
        assert_eq!((*m.lock(), *rw.read()), (2, 2));
    }
}
