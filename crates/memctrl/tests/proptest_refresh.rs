//! Property tests for the refresh bookkeeping's fast paths: the refresh
//! manager's floor (a lower bound on every slot's next due, deadline or
//! completion, with an exactness flag) and DARP's due-ordered walks.
//! Random operation sequences drive the real manager and the
//! all-bank, DARP, SARP and RAIDR mechanisms; after each step the fast path must
//! agree with a from-scratch walk over every slot written here: the
//! same polled slots, the same slot states, the same hint, and a floor
//! never above the true minimum (equal to it while flagged exact).

use proptest::prelude::*;

use rop_memctrl::mechanism::{AllBank, Darp, Raidr, Sarp};
use rop_memctrl::{Cycle, RefreshManager, RefreshMechanism, RefreshState, RoundShape};

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Time moves on.
    Advance(u64),
    /// Due poll under a busy mask and write-drain flag.
    PollDue { busy: u32, write_drain: bool },
    /// Completion poll.
    PollComplete,
    /// Issue the `pick`-th Draining slot's refresh, `len` cycles long.
    Issue { pick: usize, len: u64 },
    /// A demand arrival on slot `slot % slots`.
    Activity(usize),
    /// Start a drain on slot `slot % slots` (manager only: mechanisms
    /// start their own).
    StartDrain(usize),
    /// Ask for the hint at `now + ahead`.
    Hint(u64),
    /// Jump to the hint, as the event engine does.
    Jump,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..300).prop_map(Op::Advance),
        (0u64..4_000).prop_map(Op::Advance),
        (any::<u32>(), any::<bool>())
            .prop_map(|(busy, write_drain)| Op::PollDue { busy, write_drain }),
        (any::<u32>(), any::<bool>())
            .prop_map(|(busy, write_drain)| Op::PollDue { busy, write_drain }),
        Just(Op::PollComplete),
        Just(Op::PollComplete),
        (0usize..8, 0u64..400).prop_map(|(pick, len)| Op::Issue { pick, len }),
        (0usize..64).prop_map(Op::Activity),
        (0usize..64).prop_map(Op::StartDrain),
        (0u64..5_000).prop_map(Op::Hint),
        Just(Op::Jump),
        Just(Op::Jump),
    ]
}

/// A slot's event cycle, from scratch.
fn event_of(m: &RefreshManager, max_postpone: Cycle, slot: usize) -> Cycle {
    match m.state(slot) {
        RefreshState::Idle => m.next_due(slot),
        RefreshState::Draining { due } => due + max_postpone,
        RefreshState::Refreshing { until } => until,
    }
}

/// The manager's hint, walking every slot.
fn walk_next_event(m: &RefreshManager, max_postpone: Cycle, now: Cycle) -> Option<Cycle> {
    (0..m.ranks())
        .filter(|&slot| m.next_due(slot) != Cycle::MAX)
        .map(|slot| match m.state(slot) {
            RefreshState::Refreshing { until } => until.max(now + 1),
            _ => event_of(m, max_postpone, slot),
        })
        .filter(|&c| c > now)
        .min()
}

/// The slots a due poll must move, walking every slot.
fn walk_due(m: &RefreshManager, now: Cycle) -> Vec<usize> {
    (0..m.ranks())
        .filter(|&s| m.state(s) == RefreshState::Idle && now >= m.next_due(s))
        .collect()
}

/// The slots a completion poll must thaw, walking every slot.
fn walk_complete(m: &RefreshManager, now: Cycle) -> Vec<usize> {
    (0..m.ranks())
        .filter(|&s| matches!(m.state(s), RefreshState::Refreshing { until } if now >= until))
        .collect()
}

/// The floor is a lower bound on every event, and the minimum itself
/// while flagged exact.
fn check_floor(m: &RefreshManager, max_postpone: Cycle) -> Result<(), TestCaseError> {
    let min = (0..m.ranks())
        .map(|s| event_of(m, max_postpone, s))
        .min()
        .unwrap_or(Cycle::MAX);
    prop_assert!(
        m.floor() <= min,
        "floor {} above the minimum {min}",
        m.floor()
    );
    if m.floor_exact() {
        prop_assert_eq!(m.floor(), min);
    }
    Ok(())
}

fn draining(m: &RefreshManager) -> Vec<usize> {
    (0..m.ranks())
        .filter(|&s| matches!(m.state(s), RefreshState::Draining { .. }))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The manager alone: every poll, drain start, issue and hint at a
    /// random cycle agrees with a walk over every slot.
    #[test]
    fn manager_fast_paths_match_a_walk(
        slots in 1usize..10,
        max_postpone in 50u64..3_000,
        ops in proptest::collection::vec(op(), 1..160),
    ) {
        let t_refi = 800;
        let mut m = RefreshManager::new(slots, t_refi, max_postpone, true);
        let mut now: Cycle = 0;
        let mut out = Vec::new();
        for op in ops {
            match op {
                Op::Advance(dt) => now += dt,
                Op::PollDue { .. } => {
                    let want = walk_due(&m, now);
                    out.clear();
                    m.poll_due_into(now, &mut out);
                    prop_assert_eq!(&out, &want);
                }
                Op::PollComplete => {
                    let want = walk_complete(&m, now);
                    out.clear();
                    m.poll_complete_into(now, &mut out);
                    prop_assert_eq!(&out, &want);
                }
                Op::Issue { pick, len } => {
                    let d = draining(&m);
                    if !d.is_empty() {
                        m.refresh_issued(d[pick % d.len()], now + len);
                    }
                }
                Op::StartDrain(slot) => {
                    let slot = slot % slots;
                    let idle = m.state(slot) == RefreshState::Idle;
                    prop_assert_eq!(m.start_drain(slot, m.next_due(slot).min(now)), idle);
                }
                Op::Activity(_) => {
                    m.settle_floor();
                    prop_assert!(m.floor_exact());
                }
                Op::Jump => now = m.next_event(now).unwrap_or(now),
                Op::Hint(ahead) => {
                    for at in [now + ahead, now.saturating_sub(ahead)] {
                        prop_assert_eq!(m.next_event(at), walk_next_event(&m, max_postpone, at));
                    }
                }
            }
            check_floor(&m, max_postpone)?;
        }
    }

    /// Each mechanism against its from-scratch walk, on twin managers.
    #[test]
    fn mechanism_fast_paths_match_a_walk(
        kind in 0usize..4,
        ranks in 1usize..3,
        banks in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
        max_postpone in 50u64..3_000,
        ops in proptest::collection::vec(op(), 1..200),
    ) {
        let t_refi = 800;
        let per_bank = kind == 1 || kind == 2;
        let slots = if per_bank { ranks * banks } else { ranks };
        let mut fast_mgr = RefreshManager::new(slots, t_refi, max_postpone, true);
        let mut walk_mgr = fast_mgr.clone();
        let mut fast: Box<dyn RefreshMechanism> = match kind {
            0 => Box::new(AllBank),
            1 => Box::new(Darp::new(slots, banks, t_refi)),
            2 => Box::new(Sarp::new(4)),
            _ => Box::new(Raidr::new(slots, 9, 2 * t_refi, t_refi, 280, 1 << 10)),
        };
        let mut walk = match kind {
            1 => Walk::Darp {
                banks,
                // As `Darp::new` sets them.
                lookahead: t_refi / banks as u64,
                drain_lookahead: t_refi / 2,
                idle_window: 64,
                last_activity: vec![0; slots],
                pulled_in: 0,
            },
            _ => Walk::Plain,
        };
        let mut now: Cycle = 0;
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for op in ops {
            match op {
                Op::Advance(dt) => now += dt,
                Op::PollDue { busy, write_drain } => {
                    let busy = move |s: usize| busy >> (s % 32) & 1 == 1;
                    a.clear();
                    b.clear();
                    fast.poll_due(&mut fast_mgr, now, &busy, write_drain, &mut a);
                    walk.poll_due(&mut walk_mgr, now, &busy, write_drain, &mut b);
                    prop_assert_eq!(&a, &b, "due poll at {}", now);
                }
                Op::PollComplete => {
                    a.clear();
                    b.clear();
                    fast_mgr.poll_complete_into(now, &mut a);
                    walk_mgr.poll_complete_into(now, &mut b);
                    prop_assert_eq!(&a, &b);
                }
                Op::Issue { pick, len } => {
                    let d = draining(&fast_mgr);
                    if !d.is_empty() {
                        let slot = d[pick % d.len()];
                        if matches!(fast.round_shape(&fast_mgr, slot), RoundShape::Skip { .. }) {
                            fast.on_refresh_skipped(&mut fast_mgr, slot, now);
                            walk_mgr.refresh_issued(slot, now);
                        } else {
                            fast.on_refresh_issued(&mut fast_mgr, slot, now, now + len);
                            walk_mgr.refresh_issued(slot, now + len);
                        }
                    }
                }
                Op::Activity(slot) => {
                    let slot = slot % slots;
                    fast.on_bank_activity(slot, now);
                    walk.activity(slot, now);
                }
                Op::StartDrain(_) => {}
                Op::Jump => {
                    fast_mgr.settle_floor();
                    now = fast.next_event(&fast_mgr, now).unwrap_or(now);
                }
                Op::Hint(ahead) => {
                    // The controller settles the floor before it asks.
                    fast_mgr.settle_floor();
                    for at in [now, now + ahead] {
                        prop_assert_eq!(
                            fast.next_event(&fast_mgr, at),
                            walk.next_event(&walk_mgr, max_postpone, at),
                            "hint at {}", at
                        );
                    }
                }
            }
            for s in 0..slots {
                prop_assert_eq!(fast_mgr.state(s), walk_mgr.state(s), "slot {}", s);
                prop_assert_eq!(fast_mgr.next_due(s), walk_mgr.next_due(s));
            }
            prop_assert_eq!(fast.refreshes_pulled_in(), walk.pulled_in());
            check_floor(&fast_mgr, max_postpone)?;
        }
    }
}

/// The mechanisms' hooks as a walk over every slot: DARP as it read
/// before its fast paths, and the plain due rule of all-bank, SARP and
/// RAIDR.
enum Walk {
    Plain,
    Darp {
        banks: usize,
        lookahead: Cycle,
        drain_lookahead: Cycle,
        idle_window: Cycle,
        last_activity: Vec<Cycle>,
        pulled_in: u64,
    },
}

impl Walk {
    fn poll_due(
        &mut self,
        m: &mut RefreshManager,
        now: Cycle,
        busy: &dyn Fn(usize) -> bool,
        write_drain: bool,
        out: &mut Vec<usize>,
    ) {
        match self {
            Walk::Plain => {}
            Walk::Darp {
                banks,
                lookahead,
                drain_lookahead,
                idle_window,
                last_activity,
                pulled_in,
            } => {
                let look = if write_drain {
                    *drain_lookahead
                } else {
                    *lookahead
                };
                for (slot, &last) in last_activity.iter().enumerate() {
                    if m.state(slot) != RefreshState::Idle {
                        continue;
                    }
                    let due = m.next_due(slot);
                    if due == Cycle::MAX || due <= now || due - now > look {
                        continue;
                    }
                    if busy(slot) || now < last + *idle_window {
                        continue;
                    }
                    let first = (slot / *banks) * *banks;
                    if (first..first + *banks).any(|s| m.state(s) != RefreshState::Idle) {
                        continue;
                    }
                    if m.start_drain(slot, due) {
                        *pulled_in += 1;
                        out.push(slot);
                    }
                }
            }
        }
        for slot in walk_due(m, now) {
            assert!(m.start_drain(slot, m.next_due(slot)));
            out.push(slot);
        }
    }

    fn activity(&mut self, slot: usize, now: Cycle) {
        if let Walk::Darp { last_activity, .. } = self {
            last_activity[slot] = now;
        }
    }

    fn pulled_in(&self) -> u64 {
        match self {
            Walk::Darp { pulled_in, .. } => *pulled_in,
            _ => 0,
        }
    }

    fn next_event(&self, m: &RefreshManager, max_postpone: Cycle, now: Cycle) -> Option<Cycle> {
        let base = walk_next_event(m, max_postpone, now);
        match self {
            Walk::Plain => base,
            Walk::Darp {
                lookahead,
                drain_lookahead,
                idle_window,
                last_activity,
                ..
            } => {
                let mut next = base;
                for (slot, &last) in last_activity.iter().enumerate() {
                    if m.state(slot) != RefreshState::Idle || m.next_due(slot) == Cycle::MAX {
                        continue;
                    }
                    let due = m.next_due(slot);
                    let idle_ok = last + *idle_window;
                    for look in [*lookahead, *drain_lookahead] {
                        let t = due.saturating_sub(look).max(idle_ok);
                        if t < due && t > now {
                            next = Some(next.map_or(t, |n| n.min(t)));
                        }
                    }
                }
                next
            }
        }
    }
}
