//! Singleflight request coalescing: at most one engine run per cache key.
//!
//! The response cache only helps *after* the first answer lands. A popular
//! cold query — everyone exploring the same degree deadline at
//! registration time — stampedes the engine N times before the first
//! completion can be cached. Coalescing closes that window: the first
//! worker to miss on a key becomes the **leader** and computes; concurrent
//! workers with the same key become **followers** and block on the
//! leader's completion instead of recomputing.
//!
//! Protocol (the caller is the buffered driver in `routes/buffered.rs`,
//! for `/v1/explore`, `/v1/advise` and `/v1/whatif` alike):
//!
//! 1. [`Singleflight::begin`] under a key returns [`Role::Leader`] for the
//!    first caller and [`Role::Follower`] for everyone who arrives while
//!    the leader is in flight.
//! 2. The leader computes, inserts the cacheable answer into the response
//!    cache, and then calls [`Leader::publish`]. Ordering matters: the
//!    cache is populated *before* the flight is retired, so a request
//!    racing past `publish` either hits the cache or joins the flight —
//!    there is no window in which it would recompute.
//! 3. Followers call [`Follower::wait`] with their *own* deadline. A
//!    follower whose budget expires first gives up on the leader and
//!    computes with its already-expired deadline, which returns a
//!    202-style truncated partial almost immediately — it never waits
//!    past its budget for someone else's computation.
//!
//! A leader that panics (or otherwise drops its [`Leader`] guard without
//! publishing) marks the flight [`Published::Abandoned`]; followers then
//! compute for themselves rather than inheriting a phantom answer.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

use crate::http::Response;

/// What a flight's leader left behind for its followers.
#[derive(Debug, Clone)]
pub enum Published {
    /// The leader's finished response, shared verbatim.
    Done(Response),
    /// The leader dropped without publishing (panic, early return);
    /// followers must compute for themselves.
    Abandoned,
}

/// One in-flight computation: a slot the leader fills exactly once and a
/// condvar the followers sleep on.
#[derive(Default)]
struct Flight {
    slot: Mutex<Option<Published>>,
    cond: Condvar,
}

type FlightMap = Mutex<HashMap<String, Arc<Flight>>>;

/// The coalescing table, keyed on canonical cache keys.
#[derive(Default)]
pub struct Singleflight {
    flights: Arc<FlightMap>,
}

/// What [`Singleflight::begin`] made this caller.
pub enum Role {
    /// First in: compute, then [`Leader::publish`].
    Leader(Leader),
    /// Someone else is computing this key: [`Follower::wait`].
    Follower(Follower),
}

/// The leader's obligation to publish. Dropping it without calling
/// [`Leader::publish`] (a panicking handler) abandons the flight so
/// followers never deadlock.
pub struct Leader {
    key: String,
    flight: Arc<Flight>,
    flights: Arc<FlightMap>,
    published: bool,
}

/// A follower's handle on the leader's in-flight computation.
pub struct Follower {
    flight: Arc<Flight>,
}

impl Singleflight {
    /// An empty table.
    pub fn new() -> Singleflight {
        Singleflight::default()
    }

    /// Joins (or starts) the flight for `key`.
    pub fn begin(&self, key: &str) -> Role {
        let mut flights = self.flights.lock();
        match flights.get(key) {
            Some(flight) => Role::Follower(Follower {
                flight: Arc::clone(flight),
            }),
            None => {
                let flight = Arc::new(Flight::default());
                flights.insert(key.to_string(), Arc::clone(&flight));
                Role::Leader(Leader {
                    key: key.to_string(),
                    flight,
                    flights: Arc::clone(&self.flights),
                    published: false,
                })
            }
        }
    }

    /// In-flight computations right now (for tests and introspection).
    pub fn in_flight(&self) -> usize {
        self.flights.lock().len()
    }
}

impl Leader {
    /// Publishes `response` to every follower and retires the flight. The
    /// caller must have inserted a cacheable `response` into the response
    /// cache *before* calling this (see the module docs for why).
    pub fn publish(mut self, response: Response) {
        self.finish(Published::Done(response));
    }

    fn finish(&mut self, outcome: Published) {
        self.published = true;
        // Retire the flight first so new arrivals start fresh (or hit the
        // cache the caller just filled), then wake the followers.
        self.flights.lock().remove(&self.key);
        *self.flight.slot.lock() = Some(outcome);
        self.flight.cond.notify_all();
    }
}

impl Drop for Leader {
    fn drop(&mut self) {
        if !self.published {
            self.finish(Published::Abandoned);
        }
    }
}

impl Follower {
    /// Blocks until the leader publishes or `deadline` passes, whichever
    /// comes first. `None` means the follower's own budget ran out — it
    /// should compute for itself (the expired deadline makes that a fast
    /// truncated partial).
    pub fn wait(&self, deadline: Option<Instant>) -> Option<Published> {
        let mut slot = self.flight.slot.lock();
        loop {
            if let Some(outcome) = slot.as_ref() {
                return Some(outcome.clone());
            }
            match deadline {
                None => self.flight.cond.wait(&mut slot),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return None;
                    }
                    let _ = self.flight.cond.wait_for(&mut slot, d - now);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn resp(body: &str) -> Response {
        Response::json(200, body.to_string())
    }

    #[test]
    fn first_caller_leads_concurrents_follow() {
        let sf = Singleflight::new();
        let leader = match sf.begin("k") {
            Role::Leader(l) => l,
            Role::Follower(_) => panic!("first caller must lead"),
        };
        let follower = match sf.begin("k") {
            Role::Follower(f) => f,
            Role::Leader(_) => panic!("second caller must follow"),
        };
        assert_eq!(sf.in_flight(), 1, "one flight, not two");

        let waited = std::thread::scope(|scope| {
            let handle = scope.spawn(move || follower.wait(None));
            leader.publish(resp("{\"answer\":42}"));
            handle.join().unwrap()
        });
        match waited {
            Some(Published::Done(r)) => assert_eq!(r.body, b"{\"answer\":42}"),
            other => panic!("expected the leader's response, got {other:?}"),
        }
        assert_eq!(sf.in_flight(), 0, "publish retires the flight");
    }

    #[test]
    fn distinct_keys_fly_independently() {
        let sf = Singleflight::new();
        // Hold the guards: dropping a Leader retires its flight.
        let a = sf.begin("a");
        let b = sf.begin("b");
        assert!(matches!(a, Role::Leader(_)));
        assert!(matches!(b, Role::Leader(_)));
        assert_eq!(sf.in_flight(), 2);
        drop(a);
        drop(b);
        assert_eq!(sf.in_flight(), 0, "dropped leaders retire their flights");
    }

    #[test]
    fn late_follower_still_sees_the_published_slot() {
        // A follower that grabbed its handle before publish but only waits
        // after must not sleep forever: the slot, not the notification,
        // carries the answer.
        let sf = Singleflight::new();
        let Role::Leader(leader) = sf.begin("k") else {
            panic!("lead")
        };
        let Role::Follower(follower) = sf.begin("k") else {
            panic!("follow")
        };
        leader.publish(resp("{}"));
        assert!(matches!(follower.wait(None), Some(Published::Done(_))));
    }

    #[test]
    fn dropped_leader_abandons_for_its_followers() {
        let sf = Singleflight::new();
        let Role::Leader(leader) = sf.begin("k") else {
            panic!("lead")
        };
        let Role::Follower(follower) = sf.begin("k") else {
            panic!("follow")
        };
        drop(leader); // a panicking handler unwinds through this
        assert!(matches!(follower.wait(None), Some(Published::Abandoned)));
        // The key is free again: the next arrival leads a fresh flight.
        assert!(matches!(sf.begin("k"), Role::Leader(_)));
    }

    #[test]
    fn follower_deadline_beats_a_slow_leader() {
        let sf = Singleflight::new();
        let Role::Leader(leader) = sf.begin("k") else {
            panic!("lead")
        };
        let Role::Follower(follower) = sf.begin("k") else {
            panic!("follow")
        };
        let t0 = Instant::now();
        let outcome = follower.wait(Some(t0 + Duration::from_millis(30)));
        assert!(outcome.is_none(), "budget expired before the leader");
        assert!(t0.elapsed() >= Duration::from_millis(30));
        leader.publish(resp("{}"));
    }

    #[test]
    fn stampede_coalesces_to_one_leader() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let sf = Arc::new(Singleflight::new());
        let leaders = Arc::new(AtomicUsize::new(0));
        let entered = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let sf = Arc::clone(&sf);
                let leaders = Arc::clone(&leaders);
                let entered = Arc::clone(&entered);
                scope.spawn(move || {
                    let role = sf.begin("hot");
                    entered.fetch_add(1, Ordering::SeqCst);
                    match role {
                        Role::Leader(l) => {
                            leaders.fetch_add(1, Ordering::SeqCst);
                            // Hold the flight open until every thread has a
                            // role, so no late arrival can start a second one.
                            while entered.load(Ordering::SeqCst) < 8 {
                                std::thread::sleep(Duration::from_millis(1));
                            }
                            l.publish(resp("{}"));
                        }
                        Role::Follower(f) => {
                            assert!(matches!(f.wait(None), Some(Published::Done(_))));
                        }
                    }
                });
            }
        });
        assert_eq!(
            leaders.load(std::sync::atomic::Ordering::SeqCst),
            1,
            "exactly one leader per key per flight"
        );
    }
}
