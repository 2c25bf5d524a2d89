//! Streaming evaluation: one [`StationRun`] description, one [`Executor`].
//!
//! The batch pipeline materialises every session as a [`Trace`] before it can
//! defend or window it, which caps session length by memory and forces one
//! station at a time. Everything here runs the full Fig. 3 data path online
//! instead — lazy generator → defense [`StagePipeline`] (any composition of
//! padding/morphing/pseudonym/FH/reshaping stages) → per-sub-flow windower
//! bank → adversary — so a session can span hours in O(stages + sub-flows)
//! memory.
//!
//! The API is one configuration space, split along three axes:
//!
//! * **What to evaluate** — a [`StationRun`]: traffic (or an external packet
//!   source), a defense schedule (initial defense plus any number of
//!   splices), the eavesdropping window, feature mode and arrival time.
//! * **Who scores it** — a [`WindowScorer`]: the frozen batch ensemble
//!   ([`FrozenScorer`]) or a live per-station
//!   [`PrequentialEvaluator`](classifier::online::PrequentialEvaluator)
//!   fork that tests-then-trains and reports per-phase segments.
//! * **How a population executes** — the [`Executor`], the virtual-time
//!   core: stations are sharded over workers, each with an event heap keyed
//!   on virtual timestamps, and admitted and retired by schedule. It reads
//!   the population as a stream of arrivals, builds a station at its
//!   admission, drains it and folds its result into a per-worker [`Fold`]
//!   accumulator, so memory is O(workers × live stations + groups +
//!   events), not O(population): a million-station day fits in a few
//!   megabytes. Per-station reports are identical for any worker count, and
//!   to running each station alone with [`StationRun::run`] — stations
//!   share no mutable state.
//!
//! Windows closed inside a drain slice are buffered by the machine and
//! flushed through [`WindowScorer::score_slice`] in [`WINDOW_BATCH`]-sized
//! blocks — scorers see the windows in exact close order, so live scorers
//! keep test-then-train order and reports are bit-identical to scoring each
//! window as it closes.
//!
//! [`Trace`]: traffic_gen::trace::Trace
//! [`StagePipeline`]: defenses::stage::StagePipeline

mod machine;
mod run;
mod vtime;

pub use machine::{FrozenScorer, PhaseReport, ScheduledReport, WindowScorer, WINDOW_BATCH};
pub use run::{StationRun, STATION_CALIB_SECS};
pub use vtime::{ExecutionOutcome, Executor, ExecutorStats, Fold};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::ExperimentConfig;
    use crate::pipeline::train_adversary;
    use crate::scenario::spec::DefenseSpec;
    use classifier::ensemble::AdversaryEnsemble;
    use classifier::online::{OnlineAdversary, PrequentialEvaluator, PrequentialPoint};
    use classifier::window::FeatureMode;
    use defenses::overhead::Overhead;
    use std::collections::BTreeMap;
    use traffic_gen::app::AppKind;
    use traffic_gen::spec::TrafficSpec;
    use wlan_sim::time::SimDuration;

    /// Snapshot cadence (in windows) of per-station prequential timelines.
    const STATION_SNAPSHOT_EVERY: u64 = 10;

    /// One station of a multi-station streaming scenario.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct StationSpec {
        app: AppKind,
        seed: u64,
        /// The defense, as its shorthand.
        defense: &'static str,
        interfaces: usize,
        session_secs: f64,
    }

    impl StationSpec {
        /// The spec as a [`StationRun`] builder.
        fn to_run(self) -> StationRun {
            StationRun::new(TrafficSpec::bounded(self.app, self.seed, self.session_secs))
                .defense(DefenseSpec::parse(self.defense).expect("valid shorthand"))
                .interfaces(self.interfaces)
        }
    }

    /// What one station's streamed session looked like to a frozen adversary.
    #[derive(Debug, Clone, PartialEq)]
    struct StationReport {
        app: AppKind,
        packets: u64,
        bytes: u64,
        overhead: Overhead,
        windows: usize,
        windows_identified: usize,
    }

    impl StationReport {
        fn identification_rate(&self) -> f64 {
            if self.windows == 0 {
                0.0
            } else {
                self.windows_identified as f64 / self.windows as f64
            }
        }
    }

    /// What one station's streamed session looked like to a live, learning
    /// adversary: the [`StationReport`] counters plus the station's
    /// prequential identification timeline.
    #[derive(Debug, Clone, PartialEq)]
    struct OnlineStationReport {
        app: AppKind,
        packets: u64,
        overhead: Overhead,
        windows: u64,
        windows_identified: u64,
        timeline: Vec<PrequentialPoint>,
    }

    impl OnlineStationReport {
        fn identification_rate(&self) -> f64 {
            if self.windows == 0 {
                0.0
            } else {
                self.windows_identified as f64 / self.windows as f64
            }
        }
    }

    /// [`ScheduledReport`] → the [`StationReport`] counters the tests compare.
    fn station_report(report: &ScheduledReport) -> StationReport {
        let overhead = report.overhead();
        StationReport {
            app: report.app,
            packets: overhead.transformed_packets,
            bytes: overhead.transformed_bytes,
            overhead,
            windows: report.windows() as usize,
            windows_identified: report.windows_identified() as usize,
        }
    }

    /// Runs `count` stations on `executor`, handing it their arrivals in
    /// canonical order, and returns `finish`'s value per station in station
    /// order, with the scheduling statistics.
    fn per_station<S: WindowScorer, T: Send>(
        executor: Executor,
        count: usize,
        run_of: impl Fn(usize) -> StationRun + Sync,
        scorer_of: impl Fn(usize) -> S + Sync,
        finish: impl Fn(ScheduledReport, S) -> T + Sync,
    ) -> Result<(Vec<T>, ExecutorStats), String> {
        let mut arrivals: Vec<(f64, usize)> =
            (0..count).map(|i| (run_of(i).arrival(), i)).collect();
        arrivals.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let outcome = executor.run(
            count,
            arrivals.into_iter(),
            |i| (run_of(i), scorer_of(i), ()),
            |acc: &mut BTreeMap<usize, T>, i, report, scorer, ()| {
                acc.insert(i, finish(report, scorer));
            },
        )?;
        Ok((outcome.folded.into_values().collect(), outcome.stats))
    }

    /// One spec'd station against a frozen ensemble, via the builder.
    fn frozen_station(
        spec: &StationSpec,
        adversary: &AdversaryEnsemble,
        window: SimDuration,
        mode: FeatureMode,
    ) -> StationReport {
        let report = spec
            .to_run()
            .window(window)
            .feature_mode(mode)
            .run(&mut FrozenScorer::new(adversary))
            .expect("every test shorthand builds");
        station_report(&report)
    }

    /// One spec'd station against a per-station fork of a live adversary,
    /// via the builder.
    fn online_station(
        spec: &StationSpec,
        base: &OnlineAdversary,
        window: SimDuration,
        mode: FeatureMode,
    ) -> OnlineStationReport {
        let mut evaluator = PrequentialEvaluator::new(base.clone(), STATION_SNAPSHOT_EVERY);
        let report = spec
            .to_run()
            .window(window)
            .feature_mode(mode)
            .run(&mut evaluator)
            .expect("every test shorthand builds");
        let overhead = report.overhead();
        OnlineStationReport {
            app: report.app,
            packets: overhead.transformed_packets,
            overhead,
            windows: report.windows(),
            windows_identified: report.windows_identified(),
            timeline: evaluator.timeline().to_vec(),
        }
    }

    fn quick_adversary() -> AdversaryEnsemble {
        train_adversary(&ExperimentConfig::quick(), FeatureMode::Full)
    }

    fn warm_base() -> OnlineAdversary {
        crate::pipeline::train_adversary_online(&ExperimentConfig::quick(), FeatureMode::Full)
            .into_adversary()
    }

    #[test]
    fn long_session_streams_in_constant_memory() {
        // A 20-minute BitTorrent session (~100k packets): far beyond the
        // quick batch corpus (40 s sessions), streamed packet by packet.
        let adversary = quick_adversary();
        let report = StationRun::new(TrafficSpec::bounded(AppKind::BitTorrent, 5, 1200.0))
            .defense(DefenseSpec::parse("or").unwrap())
            .run(&mut FrozenScorer::new(&adversary))
            .expect("OR builds on 3 interfaces");
        assert!(
            report.packets > 20_000,
            "20 min of BT should be tens of thousands of packets, got {}",
            report.packets
        );
        assert!(report.windows() > 100, "windows: {}", report.windows());
        assert!(report.windows_identified() <= report.windows());
        assert!(report.identification_rate() <= 1.0);
        assert_eq!(report.overhead().percent(), 0.0, "OR is zero-overhead");
    }

    fn mixed_specs(count: usize) -> Vec<StationSpec> {
        let kinds = [
            "none",
            "fh",
            "ra",
            "rr",
            "or",
            "or_mod",
            "pseudonym",
            "padding",
            "morphing",
            "morph_or",
        ];
        (0..count)
            .map(|i| StationSpec {
                app: AppKind::ALL[i % AppKind::COUNT],
                seed: 300 + i as u64,
                defense: kinds[i % kinds.len()],
                interfaces: 3,
                session_secs: 15.0,
            })
            .collect()
    }

    #[test]
    fn the_executor_matches_sequential_execution_at_scale() {
        // 48 stations across every defense kind — including the composed
        // morph-then-reshape pipeline — on the default executor. It must
        // produce exactly what running each station sequentially produces,
        // in station order.
        let adversary = quick_adversary();
        let stations = mixed_specs(48);
        let (results, stats) = per_station(
            Executor::virtual_time(),
            stations.len(),
            |i| stations[i].to_run(),
            |_| FrozenScorer::new(&adversary),
            |report, _| station_report(&report),
        )
        .expect("every defense kind builds");
        assert_eq!(results.len(), stations.len());
        assert_eq!(stats.admitted, stations.len());
        let sequential: Vec<StationReport> = stations
            .iter()
            .map(|spec| {
                frozen_station(
                    spec,
                    &adversary,
                    SimDuration::from_secs(5),
                    FeatureMode::Full,
                )
            })
            .collect();
        assert_eq!(results, sequential);
        for (spec, report) in stations.iter().zip(&results) {
            assert_eq!(report.app, spec.app);
            assert!(report.packets > 0, "{:?} streamed nothing", spec.app);
        }
        // Transforming defenses report their cost through the shared ledger.
        for (spec, report) in stations.iter().zip(&results) {
            match spec.defense {
                "padding" => assert!(report.overhead.percent() > 0.0),
                "morphing" | "morph_or" => assert!(report.overhead.percent() >= 0.0),
                _ => assert_eq!(report.overhead.added_bytes(), 0),
            }
        }
    }

    #[test]
    fn virtual_time_matches_the_pool_and_bounds_active_stations() {
        // 24 stations arriving 20 s apart, 15 s sessions: at most two are
        // ever on air together. The event core must (a) reproduce running
        // each station alone bit-for-bit at every worker count and (b)
        // report a merged peak-active count that is sharding-invariant and
        // far below the population.
        let adversary = quick_adversary();
        let stations = mixed_specs(24);
        let run_of = |i: usize| stations[i].to_run().arrival_secs(20.0 * i as f64);
        let sequential: Vec<StationReport> = (0..stations.len())
            .map(|i| {
                let report = run_of(i)
                    .run(&mut FrozenScorer::new(&adversary))
                    .expect("every defense kind builds");
                station_report(&report)
            })
            .collect();
        let mut invariant = None;
        for workers in [1usize, 2, 8] {
            let (results, stats) = per_station(
                Executor::on_workers(workers),
                stations.len(),
                run_of,
                |_| FrozenScorer::new(&adversary),
                |report, _| station_report(&report),
            )
            .expect("every defense kind builds");
            assert_eq!(
                results, sequential,
                "{workers}-worker virtual time diverged from sequential runs"
            );
            assert_eq!(stats.workers, workers);
            assert_eq!(stats.admitted, stations.len());
            assert_eq!(
                stats.peak_active, 1,
                "20 s gaps over 15 s sessions never overlap"
            );
            assert!(
                stats.virtual_secs > 20.0 * 23.0,
                "the last station arrives at 460 s, got {}",
                stats.virtual_secs
            );
            // One admit + one retire per station, and the counters are
            // sharding-invariant.
            assert_eq!(stats.events_popped, 2 * stations.len() as u64);
            assert!(stats.packets_per_event() > 1.0);
            assert_eq!(
                *invariant.get_or_insert((stats.events_popped, stats.packets)),
                (stats.events_popped, stats.packets),
                "events popped and packets must not depend on the worker count"
            );
        }
        // Synchronised arrivals: everyone is on air at once.
        let (all_at_once, stats) = per_station(
            Executor::on_workers(3),
            stations.len(),
            |i| stations[i].to_run(),
            |_| FrozenScorer::new(&adversary),
            |report, _| station_report(&report),
        )
        .expect("every defense kind builds");
        assert_eq!(all_at_once, sequential);
        assert_eq!(stats.peak_active, stations.len());
    }

    #[test]
    fn online_station_pool_matches_sequential_execution() {
        // The online mode on the executor: each station forks the shared
        // warm adversary, so executed and sequential runs are identical.
        let base = warm_base();
        let kinds = ["none", "or", "padding", "morph_or"];
        let stations: Vec<StationSpec> = (0..12)
            .map(|i| StationSpec {
                app: AppKind::ALL[i % AppKind::COUNT],
                seed: 900 + i as u64,
                defense: kinds[i % kinds.len()],
                interfaces: 3,
                session_secs: 30.0,
            })
            .collect();
        let window = SimDuration::from_secs(5);
        let (executed, _) = per_station(
            Executor::virtual_time(),
            stations.len(),
            |i| stations[i].to_run().window(window),
            |_| PrequentialEvaluator::new(base.clone(), STATION_SNAPSHOT_EVERY),
            |report, evaluator| {
                let overhead = report.overhead();
                OnlineStationReport {
                    app: report.app,
                    packets: overhead.transformed_packets,
                    overhead,
                    windows: report.windows(),
                    windows_identified: report.windows_identified(),
                    timeline: evaluator.timeline().to_vec(),
                }
            },
        )
        .expect("every test shorthand builds");
        let sequential: Vec<OnlineStationReport> = stations
            .iter()
            .map(|spec| online_station(spec, &base, window, FeatureMode::Full))
            .collect();
        assert_eq!(executed, sequential);
        for (spec, report) in stations.iter().zip(&executed) {
            assert_eq!(report.app, spec.app);
            assert!(report.packets > 0);
            assert!(report.windows_identified <= report.windows);
            assert!(report.identification_rate() <= 1.0);
        }
    }

    #[test]
    fn warm_started_live_adversary_locks_onto_an_undefended_station() {
        let base = warm_base();
        let spec = StationSpec {
            app: AppKind::BitTorrent,
            seed: 41,
            defense: "none",
            interfaces: 1,
            session_secs: 240.0,
        };
        let report = online_station(&spec, &base, SimDuration::from_secs(5), FeatureMode::Full);
        assert!(report.windows > 30, "windows {}", report.windows);
        assert!(
            report.identification_rate() > 0.7,
            "a warm adversary should identify an undefended station: rate {:.2}",
            report.identification_rate()
        );
        assert!(!report.timeline.is_empty());
        // The trajectory is live: sampled while the session streamed.
        assert!(report.timeline.last().expect("non-empty").examples <= report.windows);
    }

    #[test]
    fn mid_session_defense_splice_drops_the_prequential_curve() {
        // The concept-drift scenario: undefended for the first half, then OR
        // is spliced in. The live adversary's prequential accuracy over the
        // defended segment must fall below the undefended segment.
        let base = warm_base();
        let mut evaluator = PrequentialEvaluator::new(base.clone(), STATION_SNAPSHOT_EVERY);
        let report = StationRun::new(TrafficSpec::bounded(AppKind::BitTorrent, 17, 240.0))
            .splices(vec![(120.0, DefenseSpec::parse("or").unwrap())])
            .run(&mut evaluator)
            .expect("OR builds on 3 interfaces");
        let pre_stats = report.phases[0].segment.as_ref().expect("live scorer");
        let post_stats = report.phases[1].segment.as_ref().expect("live scorer");
        assert!(pre_stats.total > 10, "pre windows {}", pre_stats.total);
        assert!(post_stats.total > 10, "post windows {}", post_stats.total);
        let pre = pre_stats.majority_correct as f64 / pre_stats.total as f64;
        let post = post_stats.majority_correct as f64 / post_stats.total as f64;
        eprintln!("drift: pre {pre:.3}, post {post:.3}");
        assert!(
            post < pre,
            "splicing OR in mid-session must drop prequential accuracy \
             (pre {pre:.3}, post {post:.3})"
        );
        assert!(!evaluator.timeline().is_empty());
        assert!(report.packets > 1000);
    }

    #[test]
    fn splice_at_time_zero_defends_the_whole_session() {
        // Edge case: the splice fires before the first packet, so the
        // pre-splice phase is empty and the run equals a session defended
        // from the start.
        let base = warm_base();
        let traffic = TrafficSpec::bounded(AppKind::BitTorrent, 17, 120.0);
        let mut evaluator = PrequentialEvaluator::new(base.clone(), STATION_SNAPSHOT_EVERY);
        let spliced = StationRun::new(traffic)
            .splices(vec![(0.0, DefenseSpec::parse("or").unwrap())])
            .run(&mut evaluator)
            .expect("OR builds on 3 interfaces");
        let pre = spliced.phases[0].segment.as_ref().expect("live scorer");
        let post = spliced.phases[1].segment.as_ref().expect("live scorer");
        assert_eq!(pre.total, 0, "no window closes before a t=0 splice");
        assert!(post.total > 10, "post windows {}", post.total);

        // Reference: the same session with the defense active from the start.
        let mut reference = PrequentialEvaluator::new(base.clone(), STATION_SNAPSHOT_EVERY);
        let single = StationRun::new(traffic)
            .defense(DefenseSpec::parse("or").unwrap())
            .run(&mut reference)
            .expect("OR builds on 3 interfaces");
        assert_eq!(spliced.packets, single.packets);
        assert_eq!(
            Some(post),
            single.phases[0].segment.as_ref(),
            "a t=0 splice must equal running the defense from the start"
        );
    }

    #[test]
    fn splice_after_session_end_never_fires() {
        // Edge case: the splice time is past the session end, so the defended
        // phase reports zero windows and the run equals an undefended one.
        let base = warm_base();
        let traffic = TrafficSpec::bounded(AppKind::BitTorrent, 23, 60.0);
        let mut evaluator = PrequentialEvaluator::new(base.clone(), STATION_SNAPSHOT_EVERY);
        let report = StationRun::new(traffic)
            .splices(vec![(1e6, DefenseSpec::parse("padding").unwrap())])
            .run(&mut evaluator)
            .expect("padding always builds");
        let pre = report.phases[0].segment.as_ref().expect("live scorer");
        let post = report.phases[1].segment.as_ref().expect("live scorer");
        assert!(pre.total > 5, "pre windows {}", pre.total);
        assert_eq!(post.total, 0, "the splice never fires");

        let mut reference = PrequentialEvaluator::new(base.clone(), STATION_SNAPSHOT_EVERY);
        let undefended = StationRun::new(traffic)
            .run(&mut reference)
            .expect("the identity pipeline always builds");
        assert_eq!(Some(pre), undefended.phases[0].segment.as_ref());
        assert_eq!(report.packets, undefended.packets);
    }

    #[test]
    fn two_splices_partition_one_session_into_three_phases() {
        // Two mid-session splices (none → padding → OR): every phase closes
        // its own windows, and the evaluator sees exactly the union.
        let base = warm_base();
        let mut evaluator = PrequentialEvaluator::new(base.clone(), STATION_SNAPSHOT_EVERY);
        let report = StationRun::new(TrafficSpec::bounded(AppKind::BitTorrent, 31, 180.0))
            .splices(vec![
                (60.0, DefenseSpec::parse("padding").unwrap()),
                (120.0, DefenseSpec::parse("or").unwrap()),
            ])
            .run(&mut evaluator)
            .expect("padding and OR build");
        assert_eq!(report.phases.len(), 3);
        for (i, phase) in report.phases.iter().enumerate() {
            assert!(phase.windows > 5, "phase {i} windows {}", phase.windows);
            let segment = phase.segment.as_ref().expect("live scorer");
            assert_eq!(segment.total, phase.windows, "phase {i} bookkeeping");
        }
        assert_eq!(report.phases[0].from_secs, 0.0);
        assert_eq!(report.phases[1].from_secs, 60.0);
        assert_eq!(report.phases[2].from_secs, 120.0);
        // Only the padding phase adds bytes.
        assert_eq!(report.phases[0].overhead.added_bytes(), 0);
        assert!(report.phases[1].overhead.percent() > 0.0);
        assert_eq!(report.phases[2].overhead.added_bytes(), 0);
        assert_eq!(
            report.windows(),
            report.phases.iter().map(|p| p.windows).sum::<u64>()
        );
    }

    #[test]
    fn or_defended_stations_are_harder_to_identify_than_undefended_singletons() {
        // The paper's effect, reproduced in the streaming world: a station
        // defended with OR over 3 interfaces is recognised in fewer windows
        // than the same undefended session.
        let adversary = quick_adversary();
        let window = SimDuration::from_secs(5);
        let make = |defense: &'static str, interfaces: usize| StationSpec {
            app: AppKind::BitTorrent,
            seed: 9,
            defense,
            interfaces,
            session_secs: 120.0,
        };
        let undefended = frozen_station(&make("none", 1), &adversary, window, FeatureMode::Full);
        let defended = frozen_station(&make("or", 3), &adversary, window, FeatureMode::Full);
        assert!(
            defended.identification_rate() < undefended.identification_rate() + 1e-9,
            "OR ({:.2}) should not beat the undefended baseline ({:.2})",
            defended.identification_rate(),
            undefended.identification_rate()
        );
    }

    #[test]
    fn a_non_finite_splice_time_fails_the_run() {
        let adversary = quick_adversary();
        let err = StationRun::new(TrafficSpec::bounded(AppKind::Chatting, 3, 10.0))
            .splices(vec![(f64::NAN, DefenseSpec::parse("padding").unwrap())])
            .run(&mut FrozenScorer::new(&adversary))
            .expect_err("a NaN splice time cannot be scheduled");
        assert!(err.contains("splice time NaN"), "{err}");
    }
}
