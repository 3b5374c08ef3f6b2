//! The reservation book: a conservative-backfilling availability profile.
//!
//! The paper's scheduler is "FCFS with backfilling" in which "jobs that have
//! already been scheduled for later execution retain their scheduled
//! partition" (§3.3) — i.e. every job is given a concrete
//! `(partition, time interval)` commitment when it is scheduled, and later
//! jobs may slot into earlier holes only where they fit without disturbing
//! existing commitments. That is *conservative* backfilling: the book below
//! is the profile of commitments, and [`ReservationBook::earliest_slots`]
//! enumerates the candidate start times a new job could take.
//!
//! # Data structure
//!
//! [`ReservationBook`] maintains the availability profile *incrementally*:
//! a piecewise-constant timeline of busy-node bitmasks keyed by change
//! point (`BTreeMap<SimTime, Segment>`). A segment at key `t` records the
//! union of all committed partitions over `[t, next key)`, plus a refcount
//! of how many live reservation endpoints sit exactly at `t` (so the key
//! is dropped when the last reservation touching it is released). With `R`
//! live reservations and `W = ⌈cluster/64⌉` mask words:
//!
//! * `add`/`remove`/`truncate` — `O(log R + K·W)` where `K` is the number
//!   of segments the interval overlaps;
//! * `free_nodes_during` — `O(log R + K·W)` instead of a full `O(R·P)`
//!   scan;
//! * `change_points` — `O(log R + K)` (a range read of the key set);
//! * `slot_cursor` (and `earliest_slots`, its first `max_slots` items) —
//!   one lazy sliding-window walk of the profile, `O(log R + K·W)` plus
//!   one free list per slot yielded, where `K` counts only the segments up
//!   to the last pulled slot's window end, instead of re-scanning every
//!   reservation at every change point (`O(R²·P)`).
//!
//! [`NaiveReservationBook`] preserves the original scan-everything
//! implementation. It is the executable specification: the property harness
//! in `tests/properties.rs` replays randomized add/remove/truncate/query
//! workloads against both books and asserts they answer identically, and
//! the scheduler scaling benchmark (`--bench-sched`) uses it as the
//! before-side baseline.

use pqos_cluster::mask::NodeMask;
use pqos_cluster::node::NodeId;
use pqos_cluster::partition::Partition;
use pqos_sim_core::time::{SimDuration, SimTime, TimeWindow};
use pqos_workload::job::JobId;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound;

/// Identifier of a reservation within a [`ReservationBook`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReservationId(u64);

impl fmt::Display for ReservationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A committed `(job, partition, interval)` triple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reservation {
    /// The job holding the commitment.
    pub job: JobId,
    /// The nodes committed.
    pub partition: Partition,
    /// The committed interval `[start, end)`.
    pub interval: TimeWindow,
}

/// Error adding a reservation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReservationError {
    /// The partition overlaps an existing reservation in both nodes and
    /// time.
    Conflict {
        /// The existing reservation it collides with.
        existing: ReservationId,
    },
    /// A node id beyond the cluster size was used.
    UnknownNode(NodeId),
    /// The interval is empty.
    EmptyInterval,
}

impl fmt::Display for ReservationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReservationError::Conflict { existing } => {
                write!(f, "conflicts with existing reservation {existing}")
            }
            ReservationError::UnknownNode(n) => write!(f, "unknown node {n}"),
            ReservationError::EmptyInterval => write!(f, "reservation interval is empty"),
        }
    }
}

impl std::error::Error for ReservationError {}

/// A candidate placement opportunity: a start time and the nodes free for
/// the whole duration starting there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Slot {
    /// Candidate start time.
    pub start: SimTime,
    /// Nodes free during `[start, start + duration)`, sorted.
    pub free: Vec<NodeId>,
}

/// Read-only availability queries shared by the timeline book and the
/// naive reference implementation.
///
/// Negotiation (`pqos-core`) is generic over this trait, so benchmarks and
/// parity tests can drive either book through the real quoting path.
pub trait AvailabilityView {
    /// The cluster size this book plans for.
    fn cluster_size(&self) -> u32;

    /// Nodes free (uncommitted and not in `exclude`) for the *entire*
    /// `window`, sorted.
    fn free_nodes_during(&self, window: TimeWindow, exclude: &[NodeId]) -> Vec<NodeId>;

    /// Sorted, deduplicated candidate start times at or after `from`:
    /// `from` itself plus every reservation start/end after it.
    fn change_points(&self, from: SimTime) -> Vec<SimTime>;

    /// Enumerates up to `max_slots` feasible placement opportunities for a
    /// job of `size` nodes and `duration`, starting at or after `from`,
    /// treating `exclude` as unusable. Slots are in increasing start-time
    /// order.
    fn earliest_slots(
        &self,
        size: u32,
        duration: SimDuration,
        from: SimTime,
        exclude: &[NodeId],
        max_slots: usize,
    ) -> Vec<Slot>;

    /// The slots of [`AvailabilityView::earliest_slots`], in the same
    /// order, pulled one at a time. Negotiation reads slots through this
    /// method and usually stops at the first.
    ///
    /// The default collects `earliest_slots` up front, so books that
    /// memoize whole slot vectors keep doing so; the timeline book
    /// overrides it with its lazy [`SlotCursor`].
    fn lazy_slots(
        &self,
        size: u32,
        duration: SimDuration,
        from: SimTime,
        exclude: &[NodeId],
        max_slots: usize,
    ) -> impl Iterator<Item = Slot>
    where
        Self: Sized,
    {
        self.earliest_slots(size, duration, from, exclude, max_slots)
            .into_iter()
    }
}

/// One piece of the piecewise-constant profile: the busy mask in effect
/// over `[key, next key)`, the nodes of reservations starting exactly at
/// the key (needed for point-instant queries), plus how many live
/// reservation endpoints sit exactly at the key (the key is removed when
/// this reaches zero).
#[derive(Debug, Clone)]
struct Segment {
    busy: NodeMask,
    starts: NodeMask,
    bounds: u32,
}

/// The availability profile: every commitment made and not yet released,
/// indexed as an incremental timeline of busy-node bitmasks.
///
/// # Examples
///
/// ```
/// use pqos_cluster::partition::Partition;
/// use pqos_sched::reservation::ReservationBook;
/// use pqos_sim_core::time::{SimDuration, SimTime, TimeWindow};
/// use pqos_workload::job::JobId;
///
/// let mut book = ReservationBook::new(8);
/// book.add(
///     JobId::new(1),
///     Partition::contiguous(0, 8),
///     TimeWindow::new(SimTime::from_secs(0), SimTime::from_secs(100)),
/// )?;
/// // The machine is fully booked until t=100; a 4-node/50s job first fits at 100.
/// let slots = book.earliest_slots(4, SimDuration::from_secs(50), SimTime::ZERO, &[], 1);
/// assert_eq!(slots[0].start, SimTime::from_secs(100));
/// # Ok::<(), pqos_sched::reservation::ReservationError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ReservationBook {
    cluster_size: u32,
    reservations: BTreeMap<ReservationId, Reservation>,
    next_id: u64,
    /// Invariant: keys are exactly the distinct start/end instants of live
    /// reservations; `busy` at key `t` is the union of the partitions of
    /// every reservation whose interval covers `[t, next key)`. The profile
    /// is implicitly all-free before the first key and after the last
    /// (every reservation has ended by the last key, so the final
    /// segment's mask is always empty).
    timeline: BTreeMap<SimTime, Segment>,
    /// The empty busy mask in effect before the first key, borrowed by
    /// slot cursors that start there.
    all_free: NodeMask,
}

impl ReservationBook {
    /// Creates an empty book over a cluster of `cluster_size` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `cluster_size == 0`.
    pub fn new(cluster_size: u32) -> Self {
        assert!(cluster_size > 0, "cluster must have at least one node");
        ReservationBook {
            cluster_size,
            reservations: BTreeMap::new(),
            next_id: 0,
            timeline: BTreeMap::new(),
            all_free: NodeMask::empty(cluster_size),
        }
    }

    /// The cluster size this book plans for.
    pub fn cluster_size(&self) -> u32 {
        self.cluster_size
    }

    /// Number of live reservations.
    pub fn len(&self) -> usize {
        self.reservations.len()
    }

    /// Whether the book is empty.
    pub fn is_empty(&self) -> bool {
        self.reservations.is_empty()
    }

    /// Iterates over live reservations in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (ReservationId, &Reservation)> {
        self.reservations.iter().map(|(id, r)| (*id, r))
    }

    /// Looks up a live reservation by id.
    pub fn get(&self, id: ReservationId) -> Option<&Reservation> {
        self.reservations.get(&id)
    }

    /// The full piecewise-constant availability profile, in time order:
    /// each `(t, busy)` pair is the busy mask in effect over `[t, next
    /// key)`. The profile is implicitly all-free before the first key, and
    /// the final segment's mask is always empty (every reservation has
    /// ended by the last key). This is the raw feed the quote cache
    /// flattens into its arena snapshot.
    pub fn profile(&self) -> impl Iterator<Item = (SimTime, &NodeMask)> {
        self.timeline.iter().map(|(t, seg)| (*t, &seg.busy))
    }

    /// Commits `partition` to `job` over `interval`.
    ///
    /// # Errors
    ///
    /// Returns [`ReservationError::Conflict`] if any node of `partition` is
    /// already committed during an overlapping interval,
    /// [`ReservationError::UnknownNode`] for out-of-range nodes, and
    /// [`ReservationError::EmptyInterval`] for empty intervals.
    pub fn add(
        &mut self,
        job: JobId,
        partition: Partition,
        interval: TimeWindow,
    ) -> Result<ReservationId, ReservationError> {
        if interval.is_empty() {
            return Err(ReservationError::EmptyInterval);
        }
        if let Some(n) = partition
            .iter()
            .find(|n| n.index() >= self.cluster_size as usize)
        {
            return Err(ReservationError::UnknownNode(n));
        }
        let mask = NodeMask::from_partition(&partition, self.cluster_size);
        if self.occupied_during(interval, &mask) {
            // Error path only: recover the colliding id with a scan, giving
            // the same lowest-id answer the naive book reports.
            let existing = self
                .reservations
                .iter()
                .find(|(_, r)| {
                    windows_overlap(r.interval, interval) && r.partition.overlaps(&partition)
                })
                .map(|(id, _)| *id)
                .expect("timeline conflict implies a colliding reservation");
            return Err(ReservationError::Conflict { existing });
        }
        self.occupy(interval, &mask);
        let id = ReservationId(self.next_id);
        self.next_id += 1;
        self.reservations.insert(
            id,
            Reservation {
                job,
                partition,
                interval,
            },
        );
        Ok(id)
    }

    /// Releases a reservation, returning it if it existed.
    pub fn remove(&mut self, id: ReservationId) -> Option<Reservation> {
        let r = self.reservations.remove(&id)?;
        let mask = NodeMask::from_partition(&r.partition, self.cluster_size);
        self.vacate(r.interval, &mask);
        Some(r)
    }

    /// Truncates a reservation's end to `end` (used when a job finishes
    /// early thanks to skipped checkpoints). Removes it entirely if `end`
    /// precedes its start. Never extends.
    pub fn truncate(&mut self, id: ReservationId, end: SimTime) {
        let (old, mask) = match self.reservations.get(&id) {
            Some(r) => (
                r.interval,
                NodeMask::from_partition(&r.partition, self.cluster_size),
            ),
            None => return,
        };
        if end <= old.start() {
            self.remove(id);
            return;
        }
        if end >= old.end() {
            return;
        }
        // Shrinking cannot create a conflict, so re-occupy directly.
        let new = TimeWindow::new(old.start(), end);
        self.vacate(old, &mask);
        self.occupy(new, &mask);
        self.reservations
            .get_mut(&id)
            .expect("still present")
            .interval = new;
    }

    /// Nodes free (uncommitted and not in `exclude`) for the *entire*
    /// `window`, sorted.
    ///
    /// # Zero-length windows
    ///
    /// A zero-length window `[t, t)` contains no instants, so "free for
    /// the entire window" is vacuous; both books nevertheless answer it as
    /// a *point* query reporting the nodes of reservations **strictly
    /// spanning** `t` (`start < t < end`) as busy. A reservation that
    /// starts or ends exactly at `t` does not count — its half-open
    /// interval shares no open neighborhood with the instant. This is the
    /// semantics the naive book's `windows_overlap` test has always
    /// produced (`r.start < t && t < r.end` once `window.start ==
    /// window.end`), pinned by a regression test and the randomized
    /// parity harness so the two books can never drift apart on it.
    pub fn free_nodes_during(&self, window: TimeWindow, exclude: &[NodeId]) -> Vec<NodeId> {
        let mut busy = NodeMask::from_nodes(exclude.iter().copied(), self.cluster_size);
        if window.is_empty() {
            // Degenerate point query: an empty window `[t, t)` reports the
            // nodes of reservations *strictly* spanning the instant `t`
            // (start < t < end) — matching the reference book, whose
            // overlap test admits such reservations even for an empty
            // window. No reservation can both start at `t` and strictly
            // span it on the same node (that would be a double booking), so
            // subtracting the starts mask is exact.
            let t = window.start();
            if let Some((key, seg)) = self.timeline.range(..=t).next_back() {
                let mut spanning = seg.busy.clone();
                if *key == t {
                    spanning.and_not_assign(&seg.starts);
                }
                busy.or_assign(&spanning);
            }
        } else {
            if let Some((_, seg)) = self.timeline.range(..=window.start()).next_back() {
                busy.or_assign(&seg.busy);
            }
            let inside = (
                Bound::Excluded(window.start()),
                Bound::Excluded(window.end()),
            );
            for (_, seg) in self.timeline.range(inside) {
                busy.or_assign(&seg.busy);
            }
        }
        busy.complement_nodes()
    }

    /// Sorted, deduplicated candidate start times at or after `from`:
    /// `from` itself plus every reservation start/end after it.
    pub fn change_points(&self, from: SimTime) -> Vec<SimTime> {
        let mut points = Vec::with_capacity(1 + self.timeline.len());
        points.push(from);
        let after = (Bound::Excluded(from), Bound::Unbounded);
        points.extend(self.timeline.range(after).map(|(t, _)| *t));
        points
    }

    /// Number of nodes committed at the instant `t` (reservations whose
    /// interval `[start, end)` contains `t`). An O(log R) point probe of
    /// the availability profile, used by live status reporting.
    ///
    /// # Examples
    ///
    /// ```
    /// use pqos_cluster::partition::Partition;
    /// use pqos_sched::reservation::ReservationBook;
    /// use pqos_sim_core::time::{SimTime, TimeWindow};
    /// use pqos_workload::job::JobId;
    ///
    /// let mut book = ReservationBook::new(8);
    /// book.add(
    ///     JobId::new(1),
    ///     Partition::contiguous(0, 3),
    ///     TimeWindow::new(SimTime::from_secs(10), SimTime::from_secs(20)),
    /// )?;
    /// assert_eq!(book.occupied_at(SimTime::from_secs(5)), 0);
    /// assert_eq!(book.occupied_at(SimTime::from_secs(10)), 3);
    /// assert_eq!(book.occupied_at(SimTime::from_secs(19)), 3);
    /// assert_eq!(book.occupied_at(SimTime::from_secs(20)), 0);
    /// # Ok::<(), pqos_sched::reservation::ReservationError>(())
    /// ```
    pub fn occupied_at(&self, t: SimTime) -> u32 {
        self.timeline
            .range(..=t)
            .next_back()
            .map_or(0, |(_, seg)| seg.busy.count_ones())
    }

    /// Enumerates up to `max_slots` feasible placement opportunities for a
    /// job of `size` nodes and `duration`, starting at or after `from`,
    /// treating `exclude` as unusable (e.g. currently-down nodes when
    /// `from` is "now").
    ///
    /// Slots are returned in increasing start-time order. The final change
    /// point (after which the machine is idle) guarantees at least one slot
    /// whenever `size ≤ cluster_size − exclude.len()`. This is the first
    /// `max_slots` items of [`ReservationBook::slot_cursor`].
    ///
    /// # Panics
    ///
    /// Panics if `size == 0` or `duration` is zero.
    pub fn earliest_slots(
        &self,
        size: u32,
        duration: SimDuration,
        from: SimTime,
        exclude: &[NodeId],
        max_slots: usize,
    ) -> Vec<Slot> {
        self.slot_cursor(size, duration, from, exclude)
            .take(max_slots)
            .collect()
    }

    /// The feasible placement opportunities of
    /// [`ReservationBook::earliest_slots`], produced one at a time as the
    /// caller pulls them.
    ///
    /// The cursor is a single forward walk of the profile: the busy union
    /// over each candidate window `[t, t + duration)` is maintained with a
    /// two-stack sliding-window aggregation (union is associative but not
    /// invertible, so plain running state would not support eviction).
    /// Segments are read from the timeline on demand, so pulling `k` slots
    /// costs the segments up to the `k`-th slot's window end, not the whole
    /// profile, and a slot's free list is built only when it is yielded.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0` or `duration` is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use pqos_cluster::partition::Partition;
    /// use pqos_sched::reservation::ReservationBook;
    /// use pqos_sim_core::time::{SimDuration, SimTime, TimeWindow};
    /// use pqos_workload::job::JobId;
    ///
    /// let mut book = ReservationBook::new(4);
    /// book.add(
    ///     JobId::new(1),
    ///     Partition::contiguous(0, 4),
    ///     TimeWindow::new(SimTime::from_secs(100), SimTime::from_secs(200)),
    /// )?;
    /// let mut cursor = book.slot_cursor(2, SimDuration::from_secs(50), SimTime::ZERO, &[]);
    /// assert_eq!(cursor.next().unwrap().start, SimTime::ZERO);
    /// assert_eq!(cursor.next().unwrap().start, SimTime::from_secs(200));
    /// assert!(cursor.next().is_none());
    /// # Ok::<(), pqos_sched::reservation::ReservationError>(())
    /// ```
    pub fn slot_cursor(
        &self,
        size: u32,
        duration: SimDuration,
        from: SimTime,
        exclude: &[NodeId],
    ) -> SlotCursor<'_> {
        assert!(size > 0, "job size must be positive");
        assert!(!duration.is_zero(), "duration must be positive");
        // Segment i spans [t_i, t_{i+1}); the first is `from` itself under
        // the mask in effect there, the last runs to infinity with an
        // always-empty mask.
        let head = self
            .timeline
            .range(..=from)
            .next_back()
            .map(|(_, seg)| &seg.busy)
            .unwrap_or(&self.all_free);
        let after = (Bound::Excluded(from), Bound::Unbounded);
        let segments: Segments<'_> = std::iter::once((from, head)).chain(
            self.timeline
                .range(after)
                .map(segment_entry as SegmentEntry<'_>),
        );
        SlotCursor {
            size,
            duration,
            exclude: NodeMask::from_nodes(exclude.iter().copied(), self.cluster_size),
            starts: segments.clone(),
            ahead: segments.peekable(),
            started: false,
            win: SlidingUnion::new(self.cluster_size),
            busy: NodeMask::empty(self.cluster_size),
        }
    }

    /// Whether any node of `mask` is committed somewhere in `interval`.
    fn occupied_during(&self, interval: TimeWindow, mask: &NodeMask) -> bool {
        if let Some((_, seg)) = self.timeline.range(..=interval.start()).next_back() {
            if seg.busy.intersects(mask) {
                return true;
            }
        }
        let inside = (
            Bound::Excluded(interval.start()),
            Bound::Excluded(interval.end()),
        );
        self.timeline
            .range(inside)
            .any(|(_, seg)| seg.busy.intersects(mask))
    }

    /// Marks `mask` busy across `interval`, creating boundary keys as
    /// needed and bumping their endpoint refcounts.
    fn occupy(&mut self, interval: TimeWindow, mask: &NodeMask) {
        self.ensure_boundary(interval.start());
        self.ensure_boundary(interval.end());
        for (_, seg) in self.timeline.range_mut(interval.start()..interval.end()) {
            seg.busy.or_assign(mask);
        }
        let head = self
            .timeline
            .get_mut(&interval.start())
            .expect("boundary ensured");
        head.starts.or_assign(mask);
        head.bounds += 1;
        self.timeline
            .get_mut(&interval.end())
            .expect("boundary ensured")
            .bounds += 1;
    }

    /// Clears `mask` across `interval` and drops boundary keys whose
    /// endpoint refcount reaches zero.
    fn vacate(&mut self, interval: TimeWindow, mask: &NodeMask) {
        for (_, seg) in self.timeline.range_mut(interval.start()..interval.end()) {
            seg.busy.and_not_assign(mask);
        }
        self.timeline
            .get_mut(&interval.start())
            .expect("endpoint is tracked")
            .starts
            .and_not_assign(mask);
        for t in [interval.start(), interval.end()] {
            let seg = self.timeline.get_mut(&t).expect("endpoint is tracked");
            seg.bounds -= 1;
            if seg.bounds == 0 {
                // No live endpoint remains here, so the profile is constant
                // across `t` and the key can be merged away.
                self.timeline.remove(&t);
            }
        }
    }

    /// Inserts a key at `t` (splitting the segment in effect there) if one
    /// does not already exist. Does not touch refcounts.
    fn ensure_boundary(&mut self, t: SimTime) {
        if self.timeline.contains_key(&t) {
            return;
        }
        let busy = self
            .timeline
            .range(..t)
            .next_back()
            .map(|(_, seg)| seg.busy.clone())
            .unwrap_or_else(|| NodeMask::empty(self.cluster_size));
        // A split point has no reservation starting exactly at it (that
        // would have made it a key already).
        self.timeline.insert(
            t,
            Segment {
                busy,
                starts: NodeMask::empty(self.cluster_size),
                bounds: 0,
            },
        );
    }
}

impl AvailabilityView for ReservationBook {
    fn cluster_size(&self) -> u32 {
        ReservationBook::cluster_size(self)
    }
    fn free_nodes_during(&self, window: TimeWindow, exclude: &[NodeId]) -> Vec<NodeId> {
        ReservationBook::free_nodes_during(self, window, exclude)
    }
    fn change_points(&self, from: SimTime) -> Vec<SimTime> {
        ReservationBook::change_points(self, from)
    }
    fn earliest_slots(
        &self,
        size: u32,
        duration: SimDuration,
        from: SimTime,
        exclude: &[NodeId],
        max_slots: usize,
    ) -> Vec<Slot> {
        ReservationBook::earliest_slots(self, size, duration, from, exclude, max_slots)
    }
    fn lazy_slots(
        &self,
        size: u32,
        duration: SimDuration,
        from: SimTime,
        exclude: &[NodeId],
        max_slots: usize,
    ) -> impl Iterator<Item = Slot> {
        self.slot_cursor(size, duration, from, exclude)
            .take(max_slots)
    }
}

type SegmentEntry<'a> = fn((&'a SimTime, &'a Segment)) -> (SimTime, &'a NodeMask);

/// The profile from a cursor's origin on, as `(segment start, busy mask)`.
type Segments<'a> = std::iter::Chain<
    std::iter::Once<(SimTime, &'a NodeMask)>,
    std::iter::Map<std::collections::btree_map::Range<'a, SimTime, Segment>, SegmentEntry<'a>>,
>;

fn segment_entry<'a>((t, seg): (&'a SimTime, &'a Segment)) -> (SimTime, &'a NodeMask) {
    (*t, &seg.busy)
}

/// A lazy walk of a [`ReservationBook`]'s feasible slots; see
/// [`ReservationBook::slot_cursor`].
///
/// Every segment start is a candidate window start. Both window endpoints
/// only move forward, so a segment enters (`ahead`) and leaves (`starts`
/// passing it) the sliding union at most once.
#[derive(Debug)]
pub struct SlotCursor<'a> {
    size: u32,
    duration: SimDuration,
    exclude: NodeMask,
    /// The next candidate start segment.
    starts: Segments<'a>,
    /// The first segment not yet admitted to the window.
    ahead: std::iter::Peekable<Segments<'a>>,
    /// Whether a start has been examined; its segment leaves the window
    /// before the next start is.
    started: bool,
    win: SlidingUnion<'a>,
    busy: NodeMask,
}

impl Iterator for SlotCursor<'_> {
    type Item = Slot;

    fn next(&mut self) -> Option<Slot> {
        for (t, _) in self.starts.by_ref() {
            if self.started {
                self.win.pop();
            }
            self.started = true;
            let end = t.saturating_add(self.duration);
            while let Some((_, mask)) = self.ahead.next_if(|&(s, _)| s < end) {
                self.win.push(mask);
            }
            self.win.union_into(&mut self.busy);
            self.busy.or_assign(&self.exclude);
            if self.busy.count_zeros() >= self.size {
                return Some(Slot {
                    start: t,
                    free: self.busy.complement_nodes(),
                });
            }
        }
        None
    }
}

/// Two-stack sliding-window union of node masks.
///
/// `push` admits the next segment, `pop` evicts the oldest, and `union_into`
/// reads the union of everything currently admitted — all amortized one
/// mask operation each. Entries in `front` store the union of themselves
/// and every younger entry below them, so the top of `front` plus the
/// running `back_agg` covers the whole window. Admitted masks are borrowed
/// from the timeline until a flip folds them into `front`.
#[derive(Debug)]
struct SlidingUnion<'a> {
    front: Vec<NodeMask>,
    back: Vec<&'a NodeMask>,
    back_agg: NodeMask,
    width: u32,
}

impl<'a> SlidingUnion<'a> {
    fn new(width: u32) -> Self {
        SlidingUnion {
            front: Vec::new(),
            back: Vec::new(),
            back_agg: NodeMask::empty(width),
            width,
        }
    }

    fn push(&mut self, mask: &'a NodeMask) {
        self.back.push(mask);
        self.back_agg.or_assign(mask);
    }

    fn pop(&mut self) {
        if self.front.is_empty() {
            // Flip: drain `back` newest-first so the oldest element ends up
            // on top of `front`, each entry carrying the union of itself
            // and everything younger.
            let mut agg = NodeMask::empty(self.width);
            while let Some(mask) = self.back.pop() {
                agg.or_assign(mask);
                self.front.push(agg.clone());
            }
            self.back_agg.clear_all();
        }
        self.front.pop();
    }

    fn union_into(&self, out: &mut NodeMask) {
        out.clear_all();
        if let Some(top) = self.front.last() {
            out.or_assign(top);
        }
        out.or_assign(&self.back_agg);
    }
}

/// The original scan-everything reservation book, kept as the executable
/// specification for [`ReservationBook`].
///
/// Every query walks all live reservations: `free_nodes_during` and `add`
/// are `O(R·P)` and `earliest_slots` is `O(R²·P)`. Parity between the two
/// books over randomized workloads is asserted in `tests/properties.rs`,
/// and the scheduler scaling benchmark uses this book as its before-side
/// baseline.
#[derive(Debug, Clone)]
pub struct NaiveReservationBook {
    cluster_size: u32,
    reservations: BTreeMap<ReservationId, Reservation>,
    next_id: u64,
}

impl NaiveReservationBook {
    /// Creates an empty book over a cluster of `cluster_size` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `cluster_size == 0`.
    pub fn new(cluster_size: u32) -> Self {
        assert!(cluster_size > 0, "cluster must have at least one node");
        NaiveReservationBook {
            cluster_size,
            reservations: BTreeMap::new(),
            next_id: 0,
        }
    }

    /// The cluster size this book plans for.
    pub fn cluster_size(&self) -> u32 {
        self.cluster_size
    }

    /// Number of live reservations.
    pub fn len(&self) -> usize {
        self.reservations.len()
    }

    /// Whether the book is empty.
    pub fn is_empty(&self) -> bool {
        self.reservations.is_empty()
    }

    /// Commits `partition` to `job` over `interval`, scanning every live
    /// reservation for conflicts.
    ///
    /// # Errors
    ///
    /// Same contract as [`ReservationBook::add`].
    pub fn add(
        &mut self,
        job: JobId,
        partition: Partition,
        interval: TimeWindow,
    ) -> Result<ReservationId, ReservationError> {
        if interval.is_empty() {
            return Err(ReservationError::EmptyInterval);
        }
        if let Some(n) = partition
            .iter()
            .find(|n| n.index() >= self.cluster_size as usize)
        {
            return Err(ReservationError::UnknownNode(n));
        }
        for (id, r) in &self.reservations {
            if windows_overlap(r.interval, interval) && r.partition.overlaps(&partition) {
                return Err(ReservationError::Conflict { existing: *id });
            }
        }
        let id = ReservationId(self.next_id);
        self.next_id += 1;
        self.reservations.insert(
            id,
            Reservation {
                job,
                partition,
                interval,
            },
        );
        Ok(id)
    }

    /// Releases a reservation, returning it if it existed.
    pub fn remove(&mut self, id: ReservationId) -> Option<Reservation> {
        self.reservations.remove(&id)
    }

    /// Truncates a reservation's end to `end`; removes it entirely if `end`
    /// precedes its start. Never extends.
    pub fn truncate(&mut self, id: ReservationId, end: SimTime) {
        let remove = match self.reservations.get_mut(&id) {
            Some(r) if end <= r.interval.start() => true,
            Some(r) => {
                r.interval = TimeWindow::new(r.interval.start(), end.min(r.interval.end()));
                false
            }
            None => false,
        };
        if remove {
            self.reservations.remove(&id);
        }
    }
}

impl AvailabilityView for NaiveReservationBook {
    fn cluster_size(&self) -> u32 {
        self.cluster_size
    }

    fn free_nodes_during(&self, window: TimeWindow, exclude: &[NodeId]) -> Vec<NodeId> {
        let mut busy = vec![false; self.cluster_size as usize];
        for n in exclude {
            if n.index() < busy.len() {
                busy[n.index()] = true;
            }
        }
        for r in self.reservations.values() {
            if windows_overlap(r.interval, window) {
                for n in r.partition.iter() {
                    busy[n.index()] = true;
                }
            }
        }
        (0..self.cluster_size)
            .map(NodeId::new)
            .filter(|n| !busy[n.index()])
            .collect()
    }

    fn change_points(&self, from: SimTime) -> Vec<SimTime> {
        let mut points = vec![from];
        for r in self.reservations.values() {
            for t in [r.interval.start(), r.interval.end()] {
                if t > from {
                    points.push(t);
                }
            }
        }
        points.sort_unstable();
        points.dedup();
        points
    }

    fn earliest_slots(
        &self,
        size: u32,
        duration: SimDuration,
        from: SimTime,
        exclude: &[NodeId],
        max_slots: usize,
    ) -> Vec<Slot> {
        assert!(size > 0, "job size must be positive");
        assert!(!duration.is_zero(), "duration must be positive");
        let mut out = Vec::new();
        for t in self.change_points(from) {
            if out.len() >= max_slots {
                break;
            }
            let window = TimeWindow::starting_at(t, duration);
            let free = self.free_nodes_during(window, exclude);
            if free.len() >= size as usize {
                out.push(Slot { start: t, free });
            }
        }
        out
    }
}

fn windows_overlap(a: TimeWindow, b: TimeWindow) -> bool {
    a.start() < b.end() && b.start() < a.end()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(a: u64, b: u64) -> TimeWindow {
        TimeWindow::new(SimTime::from_secs(a), SimTime::from_secs(b))
    }

    #[test]
    fn add_and_remove() {
        let mut book = ReservationBook::new(4);
        let id = book
            .add(JobId::new(1), Partition::contiguous(0, 2), w(0, 10))
            .unwrap();
        assert_eq!(book.len(), 1);
        let r = book.remove(id).unwrap();
        assert_eq!(r.job, JobId::new(1));
        assert!(book.is_empty());
        assert!(book.remove(id).is_none());
        // Releasing the last reservation leaves an empty profile behind.
        assert!(book.timeline.is_empty());
    }

    #[test]
    fn conflicting_reservation_rejected() {
        let mut book = ReservationBook::new(4);
        let id = book
            .add(JobId::new(1), Partition::contiguous(0, 2), w(0, 10))
            .unwrap();
        let err = book
            .add(JobId::new(2), Partition::contiguous(1, 2), w(5, 15))
            .unwrap_err();
        assert_eq!(err, ReservationError::Conflict { existing: id });
        // Disjoint in time is fine.
        book.add(JobId::new(3), Partition::contiguous(1, 2), w(10, 15))
            .unwrap();
        // Disjoint in nodes is fine.
        book.add(JobId::new(4), Partition::contiguous(2, 2), w(0, 10))
            .unwrap();
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut book = ReservationBook::new(4);
        assert_eq!(
            book.add(JobId::new(1), Partition::contiguous(3, 2), w(0, 10)),
            Err(ReservationError::UnknownNode(NodeId::new(4)))
        );
        assert_eq!(
            book.add(JobId::new(1), Partition::contiguous(0, 1), w(5, 5)),
            Err(ReservationError::EmptyInterval)
        );
        for e in [
            ReservationError::Conflict {
                existing: ReservationId(0),
            },
            ReservationError::UnknownNode(NodeId::new(9)),
            ReservationError::EmptyInterval,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn free_nodes_respects_reservations_and_exclusions() {
        let mut book = ReservationBook::new(4);
        book.add(JobId::new(1), Partition::contiguous(0, 2), w(10, 20))
            .unwrap();
        // Window before the reservation: everything free.
        assert_eq!(book.free_nodes_during(w(0, 10), &[]).len(), 4);
        // Overlapping window: nodes 0-1 busy.
        let free = book.free_nodes_during(w(15, 25), &[]);
        assert_eq!(free, vec![NodeId::new(2), NodeId::new(3)]);
        // Exclusion on top.
        let free = book.free_nodes_during(w(15, 25), &[NodeId::new(2)]);
        assert_eq!(free, vec![NodeId::new(3)]);
    }

    #[test]
    fn earliest_slot_backfills_holes() {
        let mut book = ReservationBook::new(4);
        // Nodes 0-3 busy during [100, 200); the hole [0, 100) is open.
        book.add(JobId::new(1), Partition::contiguous(0, 4), w(100, 200))
            .unwrap();
        // A short job fits in the hole...
        let slots = book.earliest_slots(2, SimDuration::from_secs(50), SimTime::ZERO, &[], 1);
        assert_eq!(slots[0].start, SimTime::ZERO);
        // ...a long one must wait for the reservation to end.
        let slots = book.earliest_slots(2, SimDuration::from_secs(150), SimTime::ZERO, &[], 1);
        assert_eq!(slots[0].start, SimTime::from_secs(200));
    }

    #[test]
    fn slots_are_in_increasing_start_order() {
        let mut book = ReservationBook::new(4);
        book.add(JobId::new(1), Partition::contiguous(0, 3), w(0, 100))
            .unwrap();
        book.add(JobId::new(2), Partition::contiguous(0, 3), w(150, 300))
            .unwrap();
        let slots = book.earliest_slots(2, SimDuration::from_secs(40), SimTime::ZERO, &[], 10);
        assert!(slots.windows(2).all(|s| s[0].start < s[1].start));
        // First feasible: the gap [100, 150) fits a 40 s job on 3+ nodes.
        assert_eq!(slots[0].start, SimTime::from_secs(100));
    }

    #[test]
    fn always_finds_a_slot_after_everything_ends() {
        let mut book = ReservationBook::new(2);
        book.add(JobId::new(1), Partition::contiguous(0, 2), w(0, 1000))
            .unwrap();
        let slots = book.earliest_slots(2, SimDuration::from_secs(9999), SimTime::ZERO, &[], 1);
        assert_eq!(slots.len(), 1);
        assert_eq!(slots[0].start, SimTime::from_secs(1000));
    }

    #[test]
    fn truncate_shrinks_or_removes() {
        let mut book = ReservationBook::new(4);
        let id = book
            .add(JobId::new(1), Partition::contiguous(0, 2), w(10, 100))
            .unwrap();
        book.truncate(id, SimTime::from_secs(50));
        assert_eq!(book.free_nodes_during(w(50, 60), &[]).len(), 4);
        assert_eq!(book.free_nodes_during(w(40, 50), &[]).len(), 2);
        // Truncating to before the start removes it.
        book.truncate(id, SimTime::from_secs(5));
        assert!(book.is_empty());
        assert!(book.timeline.is_empty());
        // Truncating a missing id is a no-op.
        book.truncate(id, SimTime::from_secs(5));
    }

    #[test]
    fn truncate_never_extends() {
        let mut book = ReservationBook::new(4);
        let id = book
            .add(JobId::new(1), Partition::contiguous(0, 2), w(10, 100))
            .unwrap();
        book.truncate(id, SimTime::from_secs(500));
        assert_eq!(book.free_nodes_during(w(100, 200), &[]).len(), 4);
    }

    #[test]
    fn change_points_sorted_unique() {
        let mut book = ReservationBook::new(4);
        book.add(JobId::new(1), Partition::contiguous(0, 1), w(10, 20))
            .unwrap();
        book.add(JobId::new(2), Partition::contiguous(1, 1), w(10, 30))
            .unwrap();
        let pts = book.change_points(SimTime::from_secs(5));
        assert_eq!(
            pts,
            vec![
                SimTime::from_secs(5),
                SimTime::from_secs(10),
                SimTime::from_secs(20),
                SimTime::from_secs(30)
            ]
        );
        // Points at or before `from` are dropped.
        let pts = book.change_points(SimTime::from_secs(20));
        assert_eq!(pts, vec![SimTime::from_secs(20), SimTime::from_secs(30)]);
    }

    #[test]
    #[should_panic(expected = "size must be positive")]
    fn zero_size_slot_query_panics() {
        let book = ReservationBook::new(2);
        let _ = book.earliest_slots(0, SimDuration::from_secs(1), SimTime::ZERO, &[], 1);
    }

    #[test]
    fn shared_boundaries_are_refcounted() {
        let mut book = ReservationBook::new(4);
        // Two reservations sharing the boundary t=20: one ends there, one
        // starts there.
        let a = book
            .add(JobId::new(1), Partition::contiguous(0, 1), w(10, 20))
            .unwrap();
        let b = book
            .add(JobId::new(2), Partition::contiguous(1, 1), w(20, 30))
            .unwrap();
        assert_eq!(
            book.timeline.get(&SimTime::from_secs(20)).unwrap().bounds,
            2
        );
        // Removing one keeps the shared key alive for the other.
        book.remove(a);
        assert_eq!(
            book.change_points(SimTime::ZERO),
            vec![
                SimTime::ZERO,
                SimTime::from_secs(20),
                SimTime::from_secs(30)
            ]
        );
        book.remove(b);
        assert!(book.timeline.is_empty());
    }

    #[test]
    fn timeline_profile_matches_recomputed_masks() {
        // After an arbitrary mutation sequence, every segment's mask must
        // equal the union of live partitions covering it.
        let mut book = ReservationBook::new(6);
        let a = book
            .add(JobId::new(1), Partition::contiguous(0, 2), w(0, 50))
            .unwrap();
        let _b = book
            .add(JobId::new(2), Partition::contiguous(2, 2), w(25, 75))
            .unwrap();
        let c = book
            .add(JobId::new(3), Partition::contiguous(4, 2), w(50, 100))
            .unwrap();
        book.truncate(c, SimTime::from_secs(80));
        book.remove(a);
        let keys: Vec<SimTime> = book.timeline.keys().copied().collect();
        for (i, &t) in keys.iter().enumerate() {
            let seg_end = keys.get(i + 1).copied().unwrap_or(SimTime::MAX);
            let mut expect = NodeMask::empty(6);
            for (_, r) in book.iter() {
                if windows_overlap(r.interval, TimeWindow::new(t, seg_end)) {
                    for n in r.partition.iter() {
                        expect.set(n);
                    }
                }
            }
            assert_eq!(book.timeline[&t].busy, expect, "segment at {t}");
        }
    }

    #[test]
    fn zero_length_window_is_a_strict_spanning_point_query() {
        // [t, t) reports reservations strictly spanning t as busy; ones
        // that start or end exactly at t do not count. Both books must
        // agree on every boundary case.
        let mut fast = ReservationBook::new(6);
        let mut naive = NaiveReservationBook::new(6);
        for (job, part, window) in [
            (1, Partition::contiguous(0, 1), w(10, 20)), // spans t=15
            (2, Partition::contiguous(1, 1), w(15, 25)), // starts at t=15
            (3, Partition::contiguous(2, 1), w(5, 15)),  // ends at t=15
            (4, Partition::contiguous(3, 1), w(15, 16)), // starts at t=15
        ] {
            fast.add(JobId::new(job), part.clone(), window).unwrap();
            naive.add(JobId::new(job), part, window).unwrap();
        }
        for t in [0, 5, 10, 15, 16, 20, 25, 30] {
            let probe = w(t, t);
            assert!(probe.is_empty());
            let f = fast.free_nodes_during(probe, &[]);
            let n = naive.free_nodes_during(probe, &[]);
            assert_eq!(f, n, "books disagree on empty window at t={t}");
        }
        // Only job 1 strictly spans t=15: node 0 busy, the rest free.
        let free = fast.free_nodes_during(w(15, 15), &[]);
        assert_eq!(free, (1..6).map(NodeId::new).collect::<Vec<_>>());
        // Exclusions still apply to a point query.
        let free = fast.free_nodes_during(w(15, 15), &[NodeId::new(5)]);
        assert_eq!(free, (1..5).map(NodeId::new).collect::<Vec<_>>());
        // Before the first key and after the last: nothing spans.
        assert_eq!(fast.free_nodes_during(w(0, 0), &[]).len(), 6);
        assert_eq!(fast.free_nodes_during(w(30, 30), &[]).len(), 6);
    }

    #[test]
    fn profile_iterates_timeline_in_order() {
        let mut book = ReservationBook::new(4);
        book.add(JobId::new(1), Partition::contiguous(0, 2), w(10, 20))
            .unwrap();
        book.add(JobId::new(2), Partition::contiguous(2, 2), w(15, 30))
            .unwrap();
        let profile: Vec<(SimTime, u32)> =
            book.profile().map(|(t, m)| (t, m.count_ones())).collect();
        assert_eq!(
            profile,
            vec![
                (SimTime::from_secs(10), 2),
                (SimTime::from_secs(15), 4),
                (SimTime::from_secs(20), 2),
                (SimTime::from_secs(30), 0),
            ]
        );
        assert_eq!(book.get(ReservationId(0)).unwrap().job, JobId::new(1));
        assert!(book.get(ReservationId(99)).is_none());
    }

    #[test]
    fn naive_book_answers_like_the_doc_examples() {
        let mut naive = NaiveReservationBook::new(4);
        assert_eq!(naive.cluster_size(), 4);
        let id = naive
            .add(JobId::new(1), Partition::contiguous(0, 4), w(100, 200))
            .unwrap();
        assert_eq!(naive.len(), 1);
        assert!(!naive.is_empty());
        let slots = naive.earliest_slots(2, SimDuration::from_secs(150), SimTime::ZERO, &[], 1);
        assert_eq!(slots[0].start, SimTime::from_secs(200));
        naive.truncate(id, SimTime::from_secs(150));
        assert_eq!(naive.free_nodes_during(w(150, 160), &[]).len(), 4);
        assert_eq!(
            naive.change_points(SimTime::ZERO),
            vec![
                SimTime::ZERO,
                SimTime::from_secs(100),
                SimTime::from_secs(150)
            ]
        );
        assert!(naive.remove(id).is_some());
        assert!(naive.is_empty());
    }

    #[test]
    fn both_books_reject_conflicts_identically() {
        let mut fast = ReservationBook::new(4);
        let mut naive = NaiveReservationBook::new(4);
        for (job, part, window) in [
            (1, Partition::contiguous(0, 2), w(0, 10)),
            (2, Partition::contiguous(1, 2), w(5, 15)), // conflict
            (3, Partition::contiguous(2, 2), w(0, 10)),
            (4, Partition::contiguous(0, 4), w(9, 11)), // conflict
        ] {
            let a = fast.add(JobId::new(job), part.clone(), window);
            let b = naive.add(JobId::new(job), part, window);
            assert_eq!(a, b);
        }
    }
}
