//! The deterministic event-stream generator.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{AppEvent, Scale, SizePick, WorkloadSpec};

/// The `live_pos` entry of an object that has been freed.
const DEAD: u32 = u32::MAX;

/// Iterator producing the application's event stream.
///
/// The process, per allocation step:
///
/// 1. free every object whose (exponentially distributed) lifetime
///    expired at this step, unless it was drawn permanent;
/// 2. emit one [`AppEvent::Compute`] covering the step's non-heap
///    instructions, then `refs_per_alloc` (jittered) heap accesses drawn
///    with recency bias over the live set;
/// 3. allocate one object from the size mixture and write it fully
///    (initialization), pushing it into the recency window.
///
/// The generator never frees an object twice and never accesses a dead
/// object, and its ids are allocation ordinals (the n-th `Malloc` names
/// object n); the experiment engine can therefore treat the stream as a
/// well-formed program.
#[derive(Debug)]
pub struct EventStream {
    spec: WorkloadSpec,
    rng: StdRng,
    /// Cumulative weights for the size mixture.
    cum_weights: Vec<u32>,
    weight_total: u32,
    /// Allocations remaining.
    remaining: u64,
    /// Allocation step counter (drives lifetimes).
    step: u64,
    /// Live object ids and sizes, index-addressable for uniform picks.
    live: Vec<(u64, u32)>,
    /// Position in `live` of every object allocated so far, indexed by
    /// id (ids are allocation ordinals), or [`DEAD`] once freed: O(1)
    /// removal and liveness checks without hashing.
    live_pos: Vec<u32>,
    /// (death step, id) min-heap.
    deaths: BinaryHeap<Reverse<(u64, u64)>>,
    /// Objects dying at the next phase boundary.
    cohort: Vec<u64>,
    /// Recently allocated/touched objects.
    recent: VecDeque<u64>,
    /// One allocation step's events; `queue[head..]` are yet to be
    /// yielded, and the next step refills it once `head` reaches the end.
    queue: Vec<AppEvent>,
    head: usize,
}

impl EventStream {
    /// Creates the stream for a spec at a given scale.
    pub fn new(spec: WorkloadSpec, scale: Scale) -> Self {
        assert!(scale.0 > 0.0, "scale must be positive");
        let mut cum = Vec::with_capacity(spec.size_mix.len());
        let mut total = 0u32;
        for &(_, w) in &spec.size_mix {
            total += w;
            cum.push(total);
        }
        assert!(total > 0, "size mixture must have weight");
        let remaining = ((spec.total_allocs as f64 * scale.0) as u64).max(1);
        let rng = StdRng::seed_from_u64(spec.seed);
        EventStream {
            spec,
            rng,
            cum_weights: cum,
            weight_total: total,
            remaining,
            step: 0,
            live: Vec::new(),
            live_pos: Vec::new(),
            deaths: BinaryHeap::new(),
            cohort: Vec::new(),
            recent: VecDeque::new(),
            queue: Vec::new(),
            head: 0,
        }
    }

    /// Total allocations this stream will produce.
    pub fn planned_allocs(&self) -> u64 {
        self.remaining + self.step
    }

    /// Draws a request: (size, mixture index = synthetic call site).
    fn draw_size(&mut self) -> (u32, u32) {
        let roll = self.rng.random_range(0..self.weight_total);
        let idx = self.cum_weights.partition_point(|&c| c <= roll);
        let size = match self.spec.size_mix[idx].0 {
            SizePick::Exact(s) => s,
            SizePick::Range(lo, hi) => self.rng.random_range(lo..=hi),
        };
        (size, idx as u32)
    }

    fn draw_lifetime(&mut self) -> u64 {
        let u: f64 = self.rng.random();
        let l = -(1.0 - u).ln() * self.spec.mean_lifetime;
        (l.ceil() as u64).max(1)
    }

    fn remove_live(&mut self, id: u64) -> Option<u32> {
        let pos = std::mem::replace(&mut self.live_pos[id as usize], DEAD);
        if pos == DEAD {
            return None;
        }
        let (_, size) = self.live.swap_remove(pos as usize);
        if let Some(&(moved, _)) = self.live.get(pos as usize) {
            self.live_pos[moved as usize] = pos;
        }
        Some(size)
    }

    fn pick_victim(&mut self) -> Option<(u64, u32)> {
        if self.live.is_empty() {
            return None;
        }
        if !self.recent.is_empty() && self.rng.random_bool(self.spec.recency_bias) {
            // Recency-weighted touch; fall back if the entry died.
            let k = self.rng.random_range(0..self.recent.len());
            let pos = self.live_pos[self.recent[k] as usize];
            if pos != DEAD {
                return Some(self.live[pos as usize]);
            }
        }
        let k = self.rng.random_range(0..self.live.len());
        Some(self.live[k])
    }

    fn touch_recent(&mut self, id: u64) {
        self.recent.push_back(id);
        while self.recent.len() > self.spec.recency_window {
            self.recent.pop_front();
        }
    }

    /// Produces one allocation step's worth of events into the queue.
    fn advance(&mut self) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        self.step += 1;

        // 1. Due deaths.
        while let Some(&Reverse((due, id))) = self.deaths.peek() {
            if due > self.step {
                break;
            }
            self.deaths.pop();
            if self.remove_live(id).is_some() {
                self.queue.push(AppEvent::Free { id });
            }
        }
        // 1b. Phase boundary: the cohort dies together.
        if let Some(phase) = self.spec.phases {
            if self.step.is_multiple_of(phase.period.max(1)) {
                for id in std::mem::take(&mut self.cohort) {
                    if self.remove_live(id).is_some() {
                        self.queue.push(AppEvent::Free { id });
                    }
                }
            }
        }

        // 2. Compute + data references. refs_per_alloc covers all data
        // references; only heap_ref_fraction of them touch heap objects,
        // the rest are stack/static traffic. Load/store instructions are
        // charged by the engine per word touched, so the Compute event
        // carries only the non-memory instructions.
        let jitter = self.rng.random_range(0.8..1.2);
        let nrefs = (self.spec.refs_per_alloc * jitter).round() as u64;
        let instrs = (nrefs as f64 * (self.spec.instrs_per_ref - 1.0).max(0.0)).round() as u64;
        if instrs > 0 {
            self.queue.push(AppEvent::Compute { instrs });
        }
        let heap_refs = (nrefs as f64 * self.spec.heap_ref_fraction).round() as u64;
        let stack_words = nrefs - heap_refs.min(nrefs);
        if stack_words > 0 {
            self.queue.push(AppEvent::Stack { words: stack_words });
        }
        let mut emitted = 0u64;
        while emitted < heap_refs {
            let Some((id, size)) = self.pick_victim() else { break };
            // Touch a run of consecutive words: spatially local, as real
            // code walking a struct or buffer is.
            let words = u64::from(size.div_ceil(4));
            let run_words = self.rng.random_range(1..=words.clamp(1, 8)) as u32;
            let max_off_words = (words as u32).saturating_sub(run_words);
            let offset =
                if max_off_words == 0 { 0 } else { self.rng.random_range(0..=max_off_words) * 4 };
            // Clamp the run to the object's (word-rounded) end.
            let len = (run_words * 4).min(size.max(4) - offset);
            let write = self.rng.random_bool(self.spec.write_fraction);
            self.queue.push(AppEvent::Access { id, offset, len, write });
            self.touch_recent(id);
            emitted += u64::from(run_words);
        }

        // 3. The allocation itself, named by its ordinal.
        let id = self.live_pos.len() as u64;
        let (size, site) = self.draw_size();
        self.queue.push(AppEvent::Malloc { id, size, site });
        // Initialization write over the whole object.
        self.queue.push(AppEvent::Access { id, offset: 0, len: size.max(1), write: true });
        self.live_pos.push(self.live.len() as u32);
        self.live.push((id, size));
        self.touch_recent(id);
        if self.spec.permanent_fraction < 1.0 && !self.rng.random_bool(self.spec.permanent_fraction)
        {
            let in_cohort =
                self.spec.phases.is_some_and(|p| self.rng.random_bool(p.cohort_fraction));
            if in_cohort {
                self.cohort.push(id);
            } else {
                let due = self.step + self.draw_lifetime();
                self.deaths.push(Reverse((due, id)));
            }
        }
    }
}

impl Iterator for EventStream {
    type Item = AppEvent;

    fn next(&mut self) -> Option<AppEvent> {
        if self.head == self.queue.len() {
            self.queue.clear();
            self.head = 0;
            while self.queue.is_empty() {
                if self.remaining == 0 {
                    return None;
                }
                self.advance();
            }
        }
        let event = self.queue[self.head];
        self.head += 1;
        Some(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Program;

    fn collect(p: Program, scale: f64) -> Vec<AppEvent> {
        p.spec().events(Scale(scale)).collect()
    }

    #[test]
    fn stream_is_deterministic() {
        let a = collect(Program::Espresso, 0.001);
        let b = collect(Program::Espresso, 0.001);
        assert_eq!(a, b);
    }

    #[test]
    fn different_programs_differ() {
        let a = collect(Program::Espresso, 0.001);
        let b = collect(Program::Gawk, 0.001);
        assert_ne!(a, b);
    }

    #[test]
    fn stream_is_well_formed() {
        // Every Free and Access names a currently live object; ids are
        // allocation ordinals (the n-th Malloc names object n); accesses
        // stay in bounds.
        for p in Program::FIVE {
            let events = collect(p, 0.002);
            let mut live: Vec<Option<u32>> = Vec::new();
            for e in &events {
                match *e {
                    AppEvent::Malloc { id, size, .. } => {
                        assert_eq!(id, live.len() as u64, "{p}: id {id} is not the next ordinal");
                        live.push(Some(size));
                    }
                    AppEvent::Free { id } => {
                        let slot = live.get_mut(id as usize).and_then(Option::take);
                        assert!(slot.is_some(), "{p}: free of dead id {id}");
                    }
                    AppEvent::Access { id, offset, len, .. } => {
                        let size = live
                            .get(id as usize)
                            .copied()
                            .flatten()
                            .unwrap_or_else(|| panic!("{p}: access to dead object {id}"));
                        assert!(len >= 1);
                        assert!(
                            offset + len <= size.max(4),
                            "{p}: oob access {offset}+{len} of {size}"
                        );
                    }
                    AppEvent::Compute { instrs } => assert!(instrs > 0),
                    AppEvent::Stack { words } => assert!(words > 0),
                }
            }
            assert!(!live.is_empty(), "{p}: no allocations");
        }
    }

    #[test]
    fn ptc_emits_no_frees() {
        let events = collect(Program::Ptc, 0.01);
        assert!(events.iter().all(|e| !matches!(e, AppEvent::Free { .. })));
    }

    #[test]
    fn high_turnover_programs_free_almost_everything() {
        let events = collect(Program::Gawk, 0.01);
        let mallocs = events.iter().filter(|e| matches!(e, AppEvent::Malloc { .. })).count();
        let frees = events.iter().filter(|e| matches!(e, AppEvent::Free { .. })).count();
        // At this scale the steady-state live set (~2000 objects) is the
        // only unfreed residue: ≈ 88% freed, rising toward the paper's
        // 99.9% as the scale grows.
        assert!(
            frees as f64 > mallocs as f64 * 0.85,
            "gawk should recycle: {frees} frees / {mallocs} mallocs"
        );
    }

    #[test]
    fn steady_state_live_set_matches_calibration() {
        let spec = Program::Gawk.spec();
        let target = spec.mean_lifetime;
        let mut live = 0i64;
        let mut max_live = 0i64;
        for e in spec.events(Scale(0.01)) {
            match e {
                AppEvent::Malloc { .. } => {
                    live += 1;
                    max_live = max_live.max(live);
                }
                AppEvent::Free { .. } => live -= 1,
                _ => {}
            }
        }
        // 0.01 × 1.704M = ~17k allocations: far past the 2k lifetime, so
        // the live set should hover near the calibrated mean.
        let ratio = max_live as f64 / target;
        assert!((0.5..2.0).contains(&ratio), "live {max_live} vs target {target}");
    }

    #[test]
    fn reference_intensity_matches_spec() {
        let spec = Program::Espresso.spec();
        let target = spec.refs_per_alloc;
        let mut refs = 0u64;
        let mut allocs = 0u64;
        for e in spec.events(Scale(0.002)) {
            match e {
                AppEvent::Malloc { .. } => allocs += 1,
                AppEvent::Access { .. } | AppEvent::Stack { .. } => refs += e.word_refs(),
                _ => {}
            }
        }
        let measured = refs as f64 / allocs as f64;
        // Init writes add the object size on top of refs_per_alloc.
        assert!(
            measured > target * 0.9 && measured < target * 1.5,
            "measured {measured:.0} refs/alloc vs target {target:.0}"
        );
    }

    #[test]
    fn scale_controls_alloc_count() {
        let spec = Program::Make.spec();
        let n1 = spec.events(Scale(0.01)).filter(|e| matches!(e, AppEvent::Malloc { .. })).count();
        let n2 = spec.events(Scale(0.05)).filter(|e| matches!(e, AppEvent::Malloc { .. })).count();
        assert_eq!(n1, 240);
        assert_eq!(n2, 1200);
    }

    #[test]
    fn planned_allocs_reports_scaled_total() {
        let spec = Program::Make.spec();
        assert_eq!(spec.events(Scale(0.5)).planned_allocs(), 12000);
    }
}
