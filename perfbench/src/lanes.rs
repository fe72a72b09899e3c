//! Per-thread buffers shared with a collector.
//!
//! Observer hooks fire concurrently on every client thread. Each thread
//! appends to its own lane (an uncontended mutex), and the collector
//! drains every lane once the run is over, so recording never serialises
//! the clients on one lock.

use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

static NEXT_ID: AtomicUsize = AtomicUsize::new(0);

type AnyLane = Arc<dyn Any + Send + Sync>;

thread_local! {
    static LANES: RefCell<HashMap<usize, AnyLane>> = RefCell::new(HashMap::new());
}

/// One `T` per thread that touches it, all reachable from the owner.
pub struct Lanes<T> {
    id: usize,
    all: Mutex<Vec<Arc<Mutex<T>>>>,
}

impl<T: Default + Send + 'static> Default for Lanes<T> {
    fn default() -> Self {
        Self {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            all: Mutex::new(Vec::new()),
        }
    }
}

impl<T: Default + Send + 'static> Lanes<T> {
    /// Runs `f` on the calling thread's lane, creating it on first use.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let lane = LANES.with(|map| {
            let mut map = map.borrow_mut();
            if let Some(lane) = map.get(&self.id) {
                return Arc::clone(lane);
            }
            let lane = Arc::new(Mutex::new(T::default()));
            self.all.lock().expect("lanes").push(Arc::clone(&lane));
            let lane: AnyLane = lane;
            map.insert(self.id, Arc::clone(&lane));
            lane
        });
        let lane = lane.downcast::<Mutex<T>>().expect("one lane type per id");
        let mut guard = lane.lock().expect("lane");
        f(&mut guard)
    }

    /// Takes every lane's contents, leaving defaults behind.
    pub fn drain(&self) -> Vec<T> {
        self.all
            .lock()
            .expect("lanes")
            .iter()
            .map(|lane| std::mem::take(&mut *lane.lock().expect("lane")))
            .collect()
    }
}
