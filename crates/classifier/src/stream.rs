//! Streaming windowing: folding a packet stream into per-window feature
//! accumulators.
//!
//! The batch path cuts a materialised [`Trace`](traffic_gen::trace::Trace)
//! into window sub-traces and extracts features from each copy — every packet
//! is touched (and stored) twice. [`StreamingWindower`] instead folds packets
//! into per-direction **running statistics** (count, min/max/mean/std of
//! sizes and inter-arrival gaps) and emits a finished example the moment a
//! window closes. State is O(1) per stream regardless of session length,
//! which is what lets the evaluation pipeline window infinite sessions.
//!
//! Windowing semantics are identical to
//! [`windowed_examples`](crate::window::windowed_examples) (which now
//! delegates here): windows are aligned to the first packet of the stream,
//! empty windows are skipped, windows with fewer than `min_packets` packets
//! are discarded, and inter-arrival gaps longer than the paper's idle
//! threshold are excluded (§IV-B). Counts, min/max and means are
//! bit-identical to the batch two-pass computation; standard deviations use
//! the running sum-of-squares form and agree to floating-point rounding
//! (equivalence is property-tested in this module).

use crate::features::{FEATURES_PER_DIRECTION, FEATURE_DIM};
use crate::window::FeatureMode;
use traffic_gen::app::AppKind;
use traffic_gen::packet::{Direction, PacketRecord};
use traffic_gen::trace::IDLE_GAP_SECS;
use wlan_sim::time::{SimDuration, SimTime};

/// Constant-memory summary statistics over a stream of samples.
///
/// Matches [`SummaryStats`](traffic_gen::distribution::SummaryStats) exactly
/// for count/min/max/mean (same accumulation order). The variance is
/// accumulated over samples *shifted by the first sample* (`d = x − x₀`), so
/// the `E[d²] − E[d]²` subtraction operates on small, centred values and does
/// not suffer the catastrophic cancellation of the naive `E[x²] − E[x]²`
/// form when the data has a large mean and tiny spread (e.g. near-constant
/// inter-arrival gaps); it agrees with the batch two-pass computation to
/// floating-point rounding.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningStats {
    count: u64,
    min: f64,
    max: f64,
    sum: f64,
    /// The shift `x₀` (first sample) centring the variance accumulators.
    shift: f64,
    /// `Σ (x − x₀)`.
    shifted_sum: f64,
    /// `Σ (x − x₀)²`.
    shifted_sum_sq: f64,
}

impl RunningStats {
    /// Absorbs one sample.
    pub fn push(&mut self, sample: f64) {
        if self.count == 0 {
            self.min = sample;
            self.max = sample;
            self.shift = sample;
        } else {
            // Comparison selects, not `f64::min`/`max`: samples are packet
            // sizes and non-negative gaps (never NaN, never -0.0), where
            // both forms agree bit-for-bit — but the select compiles to a
            // single `minsd`/`maxsd` instead of the five-instruction
            // NaN-propagating sequence.
            self.min = if sample < self.min { sample } else { self.min };
            self.max = if sample > self.max { sample } else { self.max };
        }
        self.sum += sample;
        let centred = sample - self.shift;
        self.shifted_sum += centred;
        self.shifted_sum_sq += centred * centred;
        self.count += 1;
    }

    /// Absorbs a run of samples — bit-identical to calling
    /// [`push`](Self::push) once per sample in order.
    ///
    /// The accumulation stays **scalar** and in push order (no reassociation,
    /// no widening), so the sums are the exact floats the per-sample path
    /// produces; the win is hoisting the first-sample branch and keeping the
    /// seven accumulator words in registers across the run instead of
    /// round-tripping them through memory per sample.
    pub fn push_run(&mut self, samples: &[f64]) {
        let mut rest = samples;
        if self.count == 0 {
            let Some((&first, tail)) = samples.split_first() else {
                return;
            };
            self.push(first);
            rest = tail;
        }
        let mut min = self.min;
        let mut max = self.max;
        let mut sum = self.sum;
        let shift = self.shift;
        let mut shifted_sum = self.shifted_sum;
        let mut shifted_sum_sq = self.shifted_sum_sq;
        for &sample in rest {
            min = if sample < min { sample } else { min };
            max = if sample > max { sample } else { max };
            sum += sample;
            let centred = sample - shift;
            shifted_sum += centred;
            shifted_sum_sq += centred * centred;
        }
        self.min = min;
        self.max = max;
        self.sum = sum;
        self.shifted_sum = shifted_sum;
        self.shifted_sum_sq = shifted_sum_sq;
        self.count += rest.len() as u64;
    }

    /// Folds two independent runs into two independent accumulators with
    /// their per-sample loops interleaved — bit-identical to
    /// `a.push_run(xs); b.push_run(ys);`, because each accumulator still
    /// absorbs exactly its own samples in order. Interleaving exists purely
    /// for the hardware: one accumulator's sum updates form a serial
    /// floating-point dependency chain (~4-cycle latency per sample), so two
    /// independent chains in one loop body double the fold throughput.
    pub fn push_run2(a: &mut RunningStats, xs: &[f64], b: &mut RunningStats, ys: &[f64]) {
        let mut xs = xs;
        let mut ys = ys;
        if a.count == 0 {
            if let Some((&first, tail)) = xs.split_first() {
                a.push(first);
                xs = tail;
            }
        }
        if b.count == 0 {
            if let Some((&first, tail)) = ys.split_first() {
                b.push(first);
                ys = tail;
            }
        }
        let common = xs.len().min(ys.len());
        let (xs_head, xs_tail) = xs.split_at(common);
        let (ys_head, ys_tail) = ys.split_at(common);
        let mut a_min = a.min;
        let mut a_max = a.max;
        let mut a_sum = a.sum;
        let a_shift = a.shift;
        let mut a_ssum = a.shifted_sum;
        let mut a_ssq = a.shifted_sum_sq;
        let mut b_min = b.min;
        let mut b_max = b.max;
        let mut b_sum = b.sum;
        let b_shift = b.shift;
        let mut b_ssum = b.shifted_sum;
        let mut b_ssq = b.shifted_sum_sq;
        for (&x, &y) in xs_head.iter().zip(ys_head) {
            a_min = if x < a_min { x } else { a_min };
            a_max = if x > a_max { x } else { a_max };
            a_sum += x;
            let a_centred = x - a_shift;
            a_ssum += a_centred;
            a_ssq += a_centred * a_centred;
            b_min = if y < b_min { y } else { b_min };
            b_max = if y > b_max { y } else { b_max };
            b_sum += y;
            let b_centred = y - b_shift;
            b_ssum += b_centred;
            b_ssq += b_centred * b_centred;
        }
        a.min = a_min;
        a.max = a_max;
        a.sum = a_sum;
        a.shifted_sum = a_ssum;
        a.shifted_sum_sq = a_ssq;
        a.count += common as u64;
        b.min = b_min;
        b.max = b_max;
        b.sum = b_sum;
        b.shifted_sum = b_ssum;
        b.shifted_sum_sq = b_ssq;
        b.count += common as u64;
        a.push_run(xs_tail);
        b.push_run(ys_tail);
    }

    /// Number of samples absorbed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest sample (0 when empty, matching the batch convention).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Population standard deviation (0 when empty).
    pub fn std_dev(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let n = self.count as f64;
        let variance = (self.shifted_sum_sq - self.shifted_sum * self.shifted_sum / n) / n;
        variance.max(0.0).sqrt()
    }
}

/// Per-direction window accumulator: size statistics, inter-arrival
/// statistics with idle-gap filtering, and the previous packet's timestamp.
#[derive(Debug, Clone, Copy, Default)]
struct DirAccumulator {
    sizes: RunningStats,
    gaps: RunningStats,
    last_time_secs: Option<f64>,
}

/// Reused sample buffers for the run-folding path: per-direction slices of
/// sizes, arrival times and (idle-filtered) gaps, gathered over an in-window
/// run and refilled in place so steady-state slicing allocates nothing.
#[derive(Debug, Clone, Default)]
struct RunScratch {
    down_sizes: Vec<f64>,
    down_times: Vec<f64>,
    down_gaps: Vec<f64>,
    up_sizes: Vec<f64>,
    up_times: Vec<f64>,
    up_gaps: Vec<f64>,
}

/// Compacts the idle-filtered inter-arrival gaps of one direction's
/// contiguous arrival-time buffer into `gaps` (branch-free: every difference
/// is written, the cursor only advances past kept ones), returning the kept
/// count. `prev` seeds the boundary gap to the previous run's last arrival —
/// −∞ ("no previous packet") makes the first difference +∞, which the idle
/// filter drops exactly like the per-packet path's `None` branch.
fn compact_gaps(times: &[f64], prev: f64, gaps: &mut [f64]) -> usize {
    let mut prev = prev;
    let mut kept = 0;
    for &t in times {
        let gap = t - prev;
        gaps[kept] = gap;
        kept += (gap <= IDLE_GAP_SECS) as usize;
        prev = t;
    }
    kept
}

impl DirAccumulator {
    fn absorb(&mut self, packet: &PacketRecord) {
        self.sizes.push(packet.size as f64);
        let t = packet.time.as_secs_f64();
        if let Some(last) = self.last_time_secs {
            let gap = t - last;
            if gap <= IDLE_GAP_SECS {
                self.gaps.push(gap);
            }
        }
        self.last_time_secs = Some(t);
    }

    /// Writes the direction's feature block into `block` (one direction's
    /// [`FEATURES_PER_DIRECTION`] columns).
    fn write_features(&self, block: &mut [f64]) {
        block[0] = self.sizes.count() as f64;
        block[1] = self.sizes.min();
        block[2] = self.sizes.max();
        block[3] = self.sizes.mean();
        block[4] = self.sizes.std_dev();
        self.write_gap_features(block);
    }

    /// The [`FeatureMode::TimingOnly`] feature block: the size statistics are
    /// defined as zero (except the count), so the zeros the row starts with
    /// stay instead of computing means and standard deviations that a
    /// post-pass would immediately overwrite.
    fn write_timing_features(&self, block: &mut [f64]) {
        block[0] = self.sizes.count() as f64;
        self.write_gap_features(block);
    }

    fn write_gap_features(&self, block: &mut [f64]) {
        block[5] = self.gaps.min();
        block[6] = self.gaps.max();
        block[7] = self.gaps.mean();
        block[8] = self.gaps.std_dev();
    }
}

/// One labelled example emitted by the streaming windower: a fixed feature
/// row and its class label, so closing a window allocates nothing.
pub type WindowExample = ([f64; FEATURE_DIM], usize);

/// Folds a time-ordered packet stream into eavesdropping windows of `W`
/// seconds and emits one feature-vector example per populated window.
#[derive(Debug, Clone)]
pub struct StreamingWindower {
    window: SimDuration,
    min_packets: usize,
    mode: FeatureMode,
    label: usize,
    origin: Option<SimTime>,
    current_index: u64,
    /// Cached `window.as_micros().max(1)` — the per-packet path divides by it
    /// only when a window boundary is crossed.
    window_micros: u64,
    /// First microsecond past the current window
    /// (`(current_index + 1) · window_micros`): timestamps below it stay in
    /// the open window without any division.
    next_boundary_micros: u64,
    packets_in_window: usize,
    down: DirAccumulator,
    up: DirAccumulator,
    /// Sample buffers the run-folding slice path reuses.
    scratch: RunScratch,
}

impl StreamingWindower {
    /// Creates a windower emitting examples with class label `label`.
    pub fn new(window: SimDuration, min_packets: usize, mode: FeatureMode, label: usize) -> Self {
        let window_micros = window.as_micros().max(1);
        StreamingWindower {
            window,
            min_packets,
            mode,
            label,
            origin: None,
            current_index: 0,
            window_micros,
            next_boundary_micros: window_micros,
            packets_in_window: 0,
            down: DirAccumulator::default(),
            up: DirAccumulator::default(),
            scratch: RunScratch::default(),
        }
    }

    /// Returns the windower to the state [`new`](Self::new) builds with
    /// these arguments, keeping only the capacity of its run-folding
    /// buffers (which are written before they are read).
    fn reset(&mut self, window: SimDuration, min_packets: usize, mode: FeatureMode, label: usize) {
        let scratch = std::mem::take(&mut self.scratch);
        *self = StreamingWindower {
            scratch,
            ..StreamingWindower::new(window, min_packets, mode, label)
        };
    }

    /// Creates a windower labelled with an application's class index.
    pub fn for_app(
        window: SimDuration,
        min_packets: usize,
        mode: FeatureMode,
        app: AppKind,
    ) -> Self {
        Self::new(window, min_packets, mode, app.class_index())
    }

    /// Folds one packet in; returns a finished example when this packet
    /// closes the previous window (at most one per call).
    ///
    /// Packets must arrive in non-decreasing timestamp order — the order
    /// every [`PacketSource`](traffic_gen::stream::PacketSource) guarantees.
    pub fn push(&mut self, packet: &PacketRecord) -> Option<WindowExample> {
        if self.window.is_zero() {
            return None;
        }
        let origin = *self.origin.get_or_insert(packet.time);
        // Timestamps are non-decreasing, so the window index only moves when
        // the elapsed time reaches the cached boundary — the common case
        // (same window) costs one compare, no division.
        let since = packet.time.saturating_since(origin).as_micros();
        let emitted = if since >= self.next_boundary_micros {
            let index = since / self.window_micros;
            let closed = if self.packets_in_window > 0 {
                self.close_window()
            } else {
                None
            };
            self.current_index = index;
            self.next_boundary_micros = (index + 1).saturating_mul(self.window_micros);
            closed
        } else {
            None
        };
        match packet.direction {
            Direction::Downlink => self.down.absorb(packet),
            Direction::Uplink => self.up.absorb(packet),
        }
        self.packets_in_window += 1;
        emitted
    }

    /// Folds a time-ordered slice of packets in, appending one finished
    /// example to `out` per window the slice closes (in close order) — the
    /// sliced fast path, **bit-identical** to calling [`push`](Self::push)
    /// once per packet.
    ///
    /// Instead of one boundary compare per packet, the slice is split at
    /// window boundaries with a `partition_point` against the cached
    /// [`next_boundary_micros`](Self::push) (one search per run), and each
    /// in-window run is partitioned by direction into contiguous sub-runs
    /// folded through the run-folding accumulators — the per-sample float
    /// operations and their order are exactly the per-packet path's.
    pub fn push_slice(&mut self, packets: &[PacketRecord], out: &mut Vec<WindowExample>) {
        if self.window.is_zero() || packets.is_empty() {
            return;
        }
        let origin = *self.origin.get_or_insert(packets[0].time);
        let mut rest = packets;
        while !rest.is_empty() {
            // Timestamps are non-decreasing, so "still inside the open
            // window" is a sorted predicate: everything before the partition
            // point stays, the first packet past it advances the window
            // exactly like the per-packet path.
            let boundary = self.next_boundary_micros;
            let split =
                rest.partition_point(|p| p.time.saturating_since(origin).as_micros() < boundary);
            if split == 0 {
                let since = rest[0].time.saturating_since(origin).as_micros();
                let index = since / self.window_micros;
                if self.packets_in_window > 0 {
                    if let Some(example) = self.close_window() {
                        out.push(example);
                    }
                }
                self.current_index = index;
                self.next_boundary_micros = (index + 1).saturating_mul(self.window_micros);
                continue;
            }
            let (run, tail) = rest.split_at(split);
            self.absorb_run(run);
            self.packets_in_window += run.len();
            rest = tail;
        }
    }

    /// Folds one in-window run: a single gather pass partitions the run into
    /// per-direction sample buffers (sizes, idle-filtered gaps), then each of
    /// the four independent accumulators folds its buffer with one long
    /// [`RunningStats::push_run`] — bit-identical to absorbing packet by
    /// packet, because every accumulator still receives exactly its samples
    /// in stream order (the `classifier::kernel` discipline: parallelise
    /// across independent accumulators, never within one). Gathering whole
    /// runs rather than splitting at direction changes is what keeps the
    /// folded loops long: interleaved traffic alternates direction every few
    /// packets, but the buffers span the entire run.
    fn absorb_run(&mut self, run: &[PacketRecord]) {
        let StreamingWindower {
            down, up, scratch, ..
        } = self;
        let n = run.len();
        // Short runs (a heavily partitioned stage emits sub-flow runs of a
        // packet or two) skip the partition/fold machinery: its fixed
        // per-run cost only amortises over long runs, and both paths are
        // bit-identical by construction.
        if n < 16 {
            for packet in run {
                match packet.direction {
                    Direction::Downlink => down.absorb(packet),
                    Direction::Uplink => up.absorb(packet),
                }
            }
            return;
        }
        // Grow-only scratch: the buffers are written before they are read, so
        // the zero-fill only ever runs when a bigger run arrives.
        if scratch.down_sizes.len() < n {
            scratch.down_sizes.resize(n, 0.0);
            scratch.down_times.resize(n, 0.0);
            scratch.down_gaps.resize(n, 0.0);
            scratch.up_sizes.resize(n, 0.0);
            scratch.up_times.resize(n, 0.0);
            scratch.up_gaps.resize(n, 0.0);
        }
        let ds = &mut scratch.down_sizes[..n];
        let dt = &mut scratch.down_times[..n];
        let us = &mut scratch.up_sizes[..n];
        let ut = &mut scratch.up_times[..n];
        // Branchless stable partition of sizes and arrival times. Interleaved
        // traffic alternates direction near-randomly, so any data-dependent
        // branch here mispredicts roughly every other packet; instead every
        // value is written to *both* direction buffers unconditionally and
        // only the owning cursor advances (the stray write lands at the
        // other buffer's cursor and is overwritten by its next real value).
        let (mut cd, mut cu) = (0usize, 0usize);
        for packet in run {
            let d = packet.direction as usize;
            let t = packet.time.as_secs_f64();
            let size = packet.size as f64;
            ds[cd] = size;
            us[cu] = size;
            dt[cd] = t;
            ut[cu] = t;
            cd += 1 - d;
            cu += d;
        }
        // Gaps are differences of *consecutive same-direction* arrivals, so
        // with the times partitioned they compact out of each contiguous
        // buffer in a short branch-free pass — no per-packet last-arrival
        // select at all.
        let cgd = compact_gaps(
            &dt[..cd],
            down.last_time_secs.unwrap_or(f64::NEG_INFINITY),
            &mut scratch.down_gaps,
        );
        let cgu = compact_gaps(
            &ut[..cu],
            up.last_time_secs.unwrap_or(f64::NEG_INFINITY),
            &mut scratch.up_gaps,
        );
        if cd > 0 {
            down.last_time_secs = Some(dt[cd - 1]);
        }
        if cu > 0 {
            up.last_time_secs = Some(ut[cu - 1]);
        }
        RunningStats::push_run2(&mut down.sizes, &ds[..cd], &mut up.sizes, &us[..cu]);
        RunningStats::push_run2(
            &mut down.gaps,
            &scratch.down_gaps[..cgd],
            &mut up.gaps,
            &scratch.up_gaps[..cgu],
        );
    }

    /// Closes the trailing window at end of stream, if populated.
    pub fn finish(&mut self) -> Option<WindowExample> {
        if self.window.is_zero() || self.packets_in_window == 0 {
            return None;
        }
        self.close_window()
    }

    fn close_window(&mut self) -> Option<WindowExample> {
        let packets = std::mem::take(&mut self.packets_in_window);
        let down = std::mem::take(&mut self.down);
        let up = std::mem::take(&mut self.up);
        if packets < self.min_packets {
            return None;
        }
        let mut row = [0.0; FEATURE_DIM];
        let (down_block, up_block) = row.split_at_mut(FEATURES_PER_DIRECTION);
        match self.mode {
            FeatureMode::Full => {
                down.write_features(down_block);
                up.write_features(up_block);
            }
            // Size columns (indices 1..=4 of each direction block) are
            // defined as zero in timing-only mode; leaving the zeros skips
            // the dead mean/std work and is identical to computing then
            // overwriting them.
            FeatureMode::TimingOnly => {
                down.write_timing_features(down_block);
                up.write_timing_features(up_block);
            }
        }
        Some((row, self.label))
    }
}

/// A lazily-grown bank of [`StreamingWindower`]s, one per sub-flow of a
/// staged packet stream — the standard sink behind a defense stage pipeline
/// (each emitted sub-flow is windowed independently, exactly like windowing
/// the materialised partition would).
///
/// A windower starts the first time a sub-flow index appears, all with the
/// same window/label configuration; each holds O(1) state.
/// [`reset_for_app`](Self::reset_for_app) empties the bank for another
/// station or phase but keeps its windowers' allocations, so a recycled bank
/// starts windowers without allocating.
#[derive(Debug, Clone)]
pub struct FlowWindowers {
    window: SimDuration,
    min_packets: usize,
    mode: FeatureMode,
    label: usize,
    /// The windowers of sub-flows `0..active`; the ones past `active` are
    /// kept from an earlier use of the bank and reset when their sub-flow
    /// appears.
    windowers: Vec<StreamingWindower>,
    active: usize,
}

impl FlowWindowers {
    /// Creates an empty bank whose windowers emit examples labelled with
    /// `app`'s class index.
    pub fn for_app(
        window: SimDuration,
        min_packets: usize,
        mode: FeatureMode,
        app: AppKind,
    ) -> Self {
        FlowWindowers {
            window,
            min_packets,
            mode,
            label: app.class_index(),
            windowers: Vec::new(),
            active: 0,
        }
    }

    /// Empties the bank and reconfigures it: afterwards it behaves exactly
    /// like [`for_app`](Self::for_app) with these arguments, but keeps the
    /// windowers it already holds for the sub-flows that appear next.
    pub fn reset_for_app(
        &mut self,
        window: SimDuration,
        min_packets: usize,
        mode: FeatureMode,
        app: AppKind,
    ) {
        self.window = window;
        self.min_packets = min_packets;
        self.mode = mode;
        self.label = app.class_index();
        self.active = 0;
    }

    /// Folds one packet of sub-flow `flow` in; returns a finished example
    /// when this packet closes that sub-flow's previous window.
    pub fn push(&mut self, flow: usize, packet: &PacketRecord) -> Option<WindowExample> {
        self.ensure(flow);
        self.windowers[flow].push(packet)
    }

    /// Folds a staged slice in — `flows[i]` is the sub-flow of `packets[i]`
    /// — appending every example the slice closes to `out` in close order.
    /// **Bit-identical** to calling [`push`](Self::push) once per pair.
    ///
    /// Consecutive packets of the same sub-flow are grouped into runs, so
    /// the bank lookup (and the windower's boundary search) amortises from
    /// per-packet to per-run; a run never spans a sub-flow change, so the
    /// per-flow packet order — the only order a windower observes — is
    /// exactly the per-packet path's.
    ///
    /// # Panics
    ///
    /// Panics if `flows` and `packets` differ in length.
    pub fn push_slice(
        &mut self,
        flows: &[usize],
        packets: &[PacketRecord],
        out: &mut Vec<WindowExample>,
    ) {
        assert_eq!(
            flows.len(),
            packets.len(),
            "one sub-flow id per staged packet"
        );
        let mut start = 0;
        while start < flows.len() {
            let flow = flows[start];
            let len = flows[start..]
                .iter()
                .position(|&f| f != flow)
                .unwrap_or(flows.len() - start);
            self.ensure(flow);
            self.windowers[flow].push_slice(&packets[start..start + len], out);
            start += len;
        }
    }

    /// Starts every sub-flow up to `flow` that has not started yet: a kept
    /// windower is reset, a missing one created.
    fn ensure(&mut self, flow: usize) {
        if flow < self.active {
            return;
        }
        let (window, min_packets, mode, label) =
            (self.window, self.min_packets, self.mode, self.label);
        let kept = (flow + 1).min(self.windowers.len());
        for windower in &mut self.windowers[self.active..kept] {
            windower.reset(window, min_packets, mode, label);
        }
        if self.windowers.len() <= flow {
            self.windowers.resize_with(flow + 1, || {
                StreamingWindower::new(window, min_packets, mode, label)
            });
        }
        self.active = flow + 1;
    }

    /// Closes every sub-flow's trailing window, yielding the populated ones
    /// in sub-flow order.
    pub fn finish(&mut self) -> impl Iterator<Item = WindowExample> + '_ {
        self.windowers[..self.active]
            .iter_mut()
            .filter_map(StreamingWindower::finish)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{FeatureVector, FEATURES_PER_DIRECTION};
    use crate::window::windowed_examples;
    use proptest::prelude::*;
    use traffic_gen::generator::SessionGenerator;
    use traffic_gen::trace::Trace;

    /// The original materialising implementation, kept as the reference the
    /// streaming path is verified against.
    fn batch_reference(
        trace: &Trace,
        window: SimDuration,
        min_packets: usize,
        mode: FeatureMode,
    ) -> Vec<WindowExample> {
        let Some(app) = trace.app() else {
            return Vec::new();
        };
        trace
            .windows(window)
            .into_iter()
            .filter(|w| w.len() >= min_packets)
            .map(|w| {
                let fv = match mode {
                    FeatureMode::Full => FeatureVector::from_trace(&w),
                    FeatureMode::TimingOnly => FeatureVector::timing_only(&w),
                };
                let row = fv.into_values().try_into().expect("FEATURE_DIM features");
                (row, app.class_index())
            })
            .collect()
    }

    fn assert_examples_equivalent(streamed: &[WindowExample], batch: &[WindowExample]) {
        assert_eq!(streamed.len(), batch.len(), "example counts differ");
        for (i, ((sv, sl), (bv, bl))) in streamed.iter().zip(batch).enumerate() {
            assert_eq!(sl, bl);
            assert_eq!(sv.len(), bv.len());
            for (j, (s, b)) in sv.iter().zip(bv).enumerate() {
                // Std-dev columns (indices 4 and 8 of each direction block)
                // use a different but algebraically equal formula; everything
                // else must match bit-for-bit.
                let is_std = matches!(j % FEATURES_PER_DIRECTION, 4 | 8);
                if is_std {
                    let tol = 1e-9 * b.abs().max(1.0);
                    assert!(
                        (s - b).abs() <= tol,
                        "window {i} feature {j}: streamed {s} vs batch {b}"
                    );
                } else {
                    assert_eq!(s, b, "window {i} feature {j} diverged");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn streaming_matches_batch_windowing(
            seed in 0u64..60,
            app_index in 0usize..7,
            window_secs in prop::sample::select(vec![5.0f64, 12.0, 60.0]),
            min_packets in 1usize..6,
        ) {
            let app = AppKind::ALL[app_index];
            let trace = SessionGenerator::new(app, seed).generate_secs(90.0);
            for mode in [FeatureMode::Full, FeatureMode::TimingOnly] {
                let batch = batch_reference(
                    &trace,
                    SimDuration::from_secs_f64(window_secs),
                    min_packets,
                    mode,
                );
                let streamed = windowed_examples(&trace, SimDuration::from_secs_f64(window_secs), min_packets, mode);
                assert_examples_equivalent(&streamed, &batch);
            }
        }
    }

    #[test]
    fn idle_gaps_are_filtered_like_the_batch_path() {
        // 60 s windows around a 9.5 s idle gap: the gap must be excluded from
        // inter-arrival statistics on both paths.
        let packets = vec![
            PacketRecord::new(
                SimTime::from_secs_f64(0.0),
                100,
                Direction::Downlink,
                AppKind::Browsing,
            ),
            PacketRecord::new(
                SimTime::from_secs_f64(0.5),
                120,
                Direction::Downlink,
                AppKind::Browsing,
            ),
            PacketRecord::new(
                SimTime::from_secs_f64(10.0),
                140,
                Direction::Downlink,
                AppKind::Browsing,
            ),
            PacketRecord::new(
                SimTime::from_secs_f64(10.2),
                160,
                Direction::Downlink,
                AppKind::Browsing,
            ),
        ];
        let trace = Trace::from_packets(Some(AppKind::Browsing), packets);
        let window = SimDuration::from_secs(60);
        let batch = batch_reference(&trace, window, 1, FeatureMode::Full);
        let streamed = windowed_examples(&trace, window, 1, FeatureMode::Full);
        assert_examples_equivalent(&streamed, &batch);
        // Mean gap = (0.5 + 0.2) / 2, the 9.5 s idle gap dropped.
        assert!((streamed[0].0[7] - 0.35).abs() < 1e-12);
    }

    #[test]
    fn zero_window_emits_nothing() {
        let trace = SessionGenerator::new(AppKind::Video, 1).generate_secs(5.0);
        let mut windower = StreamingWindower::for_app(
            SimDuration::from_micros(0),
            1,
            FeatureMode::Full,
            AppKind::Video,
        );
        for p in trace.packets() {
            assert!(windower.push(p).is_none());
        }
        assert!(windower.finish().is_none());
    }

    #[test]
    fn min_packets_discards_sparse_windows_without_stalling() {
        let trace = SessionGenerator::new(AppKind::Chatting, 5).generate_secs(60.0);
        let window = SimDuration::from_secs(5);
        let lenient = windowed_examples(&trace, window, 1, FeatureMode::Full);
        let strict = windowed_examples(&trace, window, 8, FeatureMode::Full);
        assert!(strict.len() <= lenient.len());
    }

    #[test]
    fn running_stats_match_two_pass_summary() {
        let samples = [108.0, 232.0, 1576.0, 60.0, 900.0];
        let mut running = RunningStats::default();
        for s in samples {
            running.push(s);
        }
        let batch = traffic_gen::distribution::SummaryStats::from_samples(&samples);
        assert_eq!(running.count() as usize, batch.count);
        assert_eq!(running.min(), batch.min);
        assert_eq!(running.max(), batch.max);
        assert_eq!(running.mean(), batch.mean);
        assert!((running.std_dev() - batch.std_dev).abs() < 1e-9);
        // Empty stats are all-zero like SummaryStats::default().
        let empty = RunningStats::default();
        assert_eq!(
            (empty.min(), empty.max(), empty.mean(), empty.std_dev()),
            (0.0, 0.0, 0.0, 0.0)
        );
    }

    #[test]
    fn running_std_survives_large_mean_with_tiny_spread() {
        // The naive E[x²]−E[x]² form catastrophically cancels here (both
        // terms ~1e12, true variance ~2.5e-9); the shifted accumulation must
        // agree with the batch two-pass result instead of collapsing to 0.
        let samples: Vec<f64> = (0..1000).map(|i| 1e6 + (i % 2) as f64 * 1e-4).collect();
        let mut running = RunningStats::default();
        for &s in &samples {
            running.push(s);
        }
        let batch = traffic_gen::distribution::SummaryStats::from_samples(&samples);
        assert!(batch.std_dev > 4e-5);
        assert!(
            (running.std_dev() - batch.std_dev).abs() / batch.std_dev < 1e-6,
            "running {} vs batch {}",
            running.std_dev(),
            batch.std_dev
        );
    }
}
