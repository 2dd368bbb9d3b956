//! Declarative, seeded fault schedules.
//!
//! A [`FaultPlan`] is a sequence of [`TimedFault`]s the nemesis applies
//! strictly in order: wait `after`, inject, hold for the fault's embedded
//! duration, undo. Embedding the undo in the fault itself (every partition
//! carries its heal delay, every degradation its restore delay) means a
//! randomly generated plan is survivable by construction — the cluster is
//! never left permanently partitioned or degraded, and every crash cycle
//! restores full replication before the next fault fires.

use std::time::Duration;

use flashsim::nand::MediaFaultConfig;
use rand::{Rng, SeedableRng};
use simkit::net::NetFaultConfig;

/// One injectable fault, with its recovery baked in.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Kill the shard's current primary mid-flight, promote a live backup
    /// (the §4.5 failover: log merge, in-doubt resolution, lease wait),
    /// then revive the crashed replica as a backup after `restart_after`.
    CrashPrimary {
        /// Target shard.
        shard: u32,
        /// Delay before the killed replica restarts.
        restart_after: Duration,
    },
    /// Isolate the shard's current primary from every other node (clients,
    /// replicas, master), heal after `heal_after`. In-flight messages
    /// already scheduled still deliver; everything submitted during the
    /// partition is dropped.
    PartitionPrimary {
        /// Target shard.
        shard: u32,
        /// Partition duration.
        heal_after: Duration,
    },
    /// Isolate one client from the whole cluster, heal after `heal_after`.
    PartitionClient {
        /// Target client index.
        client: u32,
        /// Partition duration.
        heal_after: Duration,
    },
    /// Degrade the network fabric — probabilistic message drop,
    /// duplication, and latency spikes — then restore after
    /// `restore_after`. Loopback traffic is exempt.
    NetDegrade {
        /// Fault probabilities and spike size.
        cfg: NetFaultConfig,
        /// Degradation duration.
        restore_after: Duration,
    },
    /// Step one client's synchronized clock by `delta_ns`. Positive steps
    /// jump reads forward; negative steps slew (the monotonic clamp keeps
    /// issued timestamps from going backwards). Persists until the next
    /// resync.
    ClockStep {
        /// Target client index.
        client: u32,
        /// Offset applied to the clock's correction, ns.
        delta_ns: i64,
    },
    /// Put one client's clock on a **persistent frequency error**: the
    /// clock runs fast (positive rate) or slow (negative) between syncs,
    /// re-accruing error after every correction, for `hold`. The rate is
    /// then reset to zero; the residual offset decays at the next resync.
    ClockDrift {
        /// Target client index.
        client: u32,
        /// Frequency error, nanoseconds gained per true second.
        rate_ns_per_s: i64,
        /// How long the drift persists before the rate is restored.
        hold: Duration,
    },
    /// Step one client's clock by `delta_ns` and cut it off from its
    /// reference for `holdover`: no resync corrects the step (or any
    /// concurrent drift) until holdover ends — the oscillator-in-holdover
    /// failure mode of a PTP client losing its grandmaster.
    ClockJump {
        /// Target client index.
        client: u32,
        /// Step applied to the clock's correction, ns.
        delta_ns: i64,
        /// How long the clock free-runs before discipline resumes.
        holdover: Duration,
    },
    /// Flood one shard's primary with synthetic no-op read load at
    /// `burst_rps` until `restore_after` elapses, driving its admission
    /// gate into shedding. The flood is fire-and-forget (`GetAny` casts),
    /// so it consumes admission capacity and backend reads without
    /// touching any transaction metadata.
    Overload {
        /// Target shard.
        shard: u32,
        /// Flood rate, requests per second.
        burst_rps: u64,
        /// How long the flood lasts.
        restore_after: Duration,
    },
    /// Power-fail the shard's current primary: kill the node *and* tear
    /// its storage backend's volatile state (the in-flight page program
    /// becomes a torn page, RAM queues and mapping tables drop), promote a
    /// live backup, then cold-restart the failed replica after
    /// `restart_after` — flash mount scan plus anti-entropy catch-up, not
    /// the warm §4.5 table-reuse path. Generated only by
    /// [`FaultPlan::random_powerfail`]: the durability campaign opts in
    /// explicitly.
    PowerFail {
        /// Target shard.
        shard: u32,
        /// Delay before the failed replica cold-restarts.
        restart_after: Duration,
    },
    /// Degrade one replica's flash device — ECC-recovery retries on
    /// read/program and worn-block retirement on erase — then restore
    /// after `restore_after`.
    FlashDegrade {
        /// Target shard.
        shard: u32,
        /// Replica index within the shard.
        replica: u32,
        /// Media-fault probabilities and recovery latency.
        cfg: MediaFaultConfig,
        /// Degradation duration.
        restore_after: Duration,
    },
}

impl Fault {
    /// Stable class name for per-class outcome accounting.
    pub fn class(&self) -> &'static str {
        match self {
            Fault::CrashPrimary { .. } => "crash",
            Fault::PartitionPrimary { .. } => "partition_primary",
            Fault::PartitionClient { .. } => "partition_client",
            Fault::NetDegrade { .. } => "net_degrade",
            Fault::ClockStep { .. } => "clock_step",
            Fault::ClockDrift { .. } => "clock_drift",
            Fault::ClockJump { .. } => "clock_jump",
            Fault::Overload { .. } => "overload",
            Fault::PowerFail { .. } => "power_fail",
            Fault::FlashDegrade { .. } => "flash_degrade",
        }
    }
}

/// A fault plus the delay before it fires (relative to the previous fault
/// completing — the nemesis is strictly sequential).
#[derive(Debug, Clone, PartialEq)]
pub struct TimedFault {
    /// Wait this long after the previous fault finished.
    pub after: Duration,
    /// What to inject.
    pub fault: Fault,
}

/// Cluster shape the generator needs to pick valid targets.
#[derive(Debug, Clone, Copy)]
pub struct PlanShape {
    /// Number of shards.
    pub shards: u32,
    /// Replicas per shard (crashes are only generated when `>= 3`).
    pub replicas: u32,
    /// Number of clients.
    pub clients: u32,
}

/// Which fault classes a campaign's seeded plan draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanKind {
    /// [`FaultPlan::random`]: crashes, partitions, network degradation,
    /// clock steps, overload bursts and media faults.
    #[default]
    Mixed,
    /// [`FaultPlan::random_overload`]: only overload bursts, exercising
    /// the admission and retry plane specifically.
    Overload,
    /// [`FaultPlan::random_clockfault`]: only client clock faults, so
    /// every abort is attributable to time.
    ClockFault,
    /// [`FaultPlan::random_powerfail`]: power failures (cold restarts with
    /// torn flash state) interleaved with warm crashes and partitions,
    /// exercising mount scans, anti-entropy catch-up and the
    /// `lost_acked_write` checker.
    PowerFail,
}

impl PlanKind {
    /// The plan of this kind for `(seed, n, shape)`.
    pub fn generate(self, seed: u64, n: usize, shape: PlanShape) -> FaultPlan {
        let generate = match self {
            PlanKind::Mixed => FaultPlan::random,
            PlanKind::Overload => FaultPlan::random_overload,
            PlanKind::ClockFault => FaultPlan::random_clockfault,
            PlanKind::PowerFail => FaultPlan::random_powerfail,
        };
        generate(seed, n, shape)
    }
}

/// An ordered fault schedule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The schedule, applied front to back.
    pub faults: Vec<TimedFault>,
}

impl FaultPlan {
    /// Generates a survivable random schedule of `n` faults from `seed`.
    /// The same `(seed, n, shape)` always yields the same plan.
    pub fn random(seed: u64, n: usize, shape: PlanShape) -> FaultPlan {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xfa_17_5c_4e_d0_1e_55_ed);
        let mut faults = Vec::with_capacity(n);
        for _ in 0..n {
            let after = Duration::from_millis(rng.gen_range(4..24));
            let shard = rng.gen_range(0..shape.shards as u64) as u32;
            let client = rng.gen_range(0..shape.clients as u64) as u32;
            // Weighted mix; crashes need a quorum of backups to fail onto.
            let mut roll = rng.gen_range(0..100u64);
            if shape.replicas < 3 && roll < 25 {
                roll = 25; // no survivable crash: fall through to partition
            }
            let fault = match roll {
                0..=24 => Fault::CrashPrimary {
                    shard,
                    restart_after: Duration::from_millis(rng.gen_range(8..30)),
                },
                25..=39 => Fault::PartitionPrimary {
                    shard,
                    heal_after: Duration::from_millis(rng.gen_range(5..25)),
                },
                40..=49 => Fault::PartitionClient {
                    client,
                    heal_after: Duration::from_millis(rng.gen_range(5..25)),
                },
                50..=64 => Fault::NetDegrade {
                    cfg: NetFaultConfig {
                        drop_prob: rng.gen_range(0..30) as f64 / 100.0,
                        dup_prob: rng.gen_range(0..50) as f64 / 100.0,
                        delay_spike_prob: rng.gen_range(0..40) as f64 / 100.0,
                        delay_spike: Duration::from_micros(rng.gen_range(200..5_000)),
                    },
                    restore_after: Duration::from_millis(rng.gen_range(5..30)),
                },
                65..=76 => Fault::ClockStep {
                    client,
                    delta_ns: rng.gen_range(-5_000_000i64..5_000_000),
                },
                77..=88 => Fault::Overload {
                    shard,
                    burst_rps: rng.gen_range(20_000..80_000),
                    restore_after: Duration::from_millis(rng.gen_range(5..20)),
                },
                _ => Fault::FlashDegrade {
                    shard,
                    replica: rng.gen_range(0..shape.replicas as u64) as u32,
                    cfg: MediaFaultConfig {
                        read_error_prob: rng.gen_range(0..50) as f64 / 100.0,
                        program_error_prob: rng.gen_range(0..50) as f64 / 100.0,
                        recovery_latency: Duration::from_micros(rng.gen_range(100..1_000)),
                        retire_next_erases: rng.gen_range(0..3u32),
                    },
                    restore_after: Duration::from_millis(rng.gen_range(10..40)),
                },
            };
            faults.push(TimedFault { after, fault });
        }
        FaultPlan { faults }
    }

    /// Generates a schedule of `n` pure [`Fault::Overload`] bursts from
    /// `seed` — the targeted campaign `repro chaos --inject overload` runs.
    pub fn random_overload(seed: u64, n: usize, shape: PlanShape) -> FaultPlan {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x0f_f1_0a_d5_0f_f1_0a_d5);
        let faults = (0..n)
            .map(|_| TimedFault {
                after: Duration::from_millis(rng.gen_range(4..24)),
                fault: Fault::Overload {
                    shard: rng.gen_range(0..shape.shards as u64) as u32,
                    burst_rps: rng.gen_range(20_000..80_000),
                    restore_after: Duration::from_millis(rng.gen_range(5..20)),
                },
            })
            .collect();
        FaultPlan { faults }
    }

    /// Generates the clock-fault campaign's schedule from `seed`: steps,
    /// persistent drifts, and holdover jumps against client clocks — no
    /// node, network, or media faults, so every abort the campaign sees is
    /// attributable to time. Like power failures, the heavier clock faults
    /// are opt-in via this dedicated generator: [`FaultPlan::random`] keeps
    /// its exact per-seed schedules.
    pub fn random_clockfault(seed: u64, n: usize, shape: PlanShape) -> FaultPlan {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xc1_0c_fa_17_c1_0c_fa_17);
        let faults = (0..n)
            .map(|_| {
                let after = Duration::from_millis(rng.gen_range(4..24));
                let client = rng.gen_range(0..shape.clients as u64) as u32;
                let fault = match rng.gen_range(0..100u64) {
                    0..=39 => Fault::ClockStep {
                        client,
                        delta_ns: rng.gen_range(-5_000_000i64..5_000_000),
                    },
                    40..=74 => Fault::ClockDrift {
                        client,
                        // Up to ±2 ms/s: far outside any disciplined
                        // oscillator, squarely in broken-hardware land.
                        rate_ns_per_s: rng.gen_range(-2_000_000i64..2_000_000),
                        hold: Duration::from_millis(rng.gen_range(10..40)),
                    },
                    _ => Fault::ClockJump {
                        client,
                        delta_ns: rng.gen_range(-8_000_000i64..8_000_000),
                        holdover: Duration::from_millis(rng.gen_range(10..40)),
                    },
                };
                TimedFault { after, fault }
            })
            .collect();
        FaultPlan { faults }
    }

    /// Generates the durability campaign's schedule from `seed`: a
    /// randomized interleaving of warm crashes, **power failures** (cold
    /// restarts with torn flash state), and primary partitions — every
    /// phase the ISSUE's crash → power-fail → cold-restart cycle needs,
    /// with the phase order itself randomized per seed. Requires
    /// `shape.replicas >= 3` for the crash/power-fail cycles to be
    /// survivable; smaller shapes degrade to partitions.
    pub fn random_powerfail(seed: u64, n: usize, shape: PlanShape) -> FaultPlan {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xc0_1d_b0_07_c0_1d_b0_07);
        let mut faults = Vec::with_capacity(n);
        for _ in 0..n {
            let after = Duration::from_millis(rng.gen_range(4..24));
            let shard = rng.gen_range(0..shape.shards as u64) as u32;
            let mut roll = rng.gen_range(0..100u64);
            if shape.replicas < 3 && roll < 80 {
                roll = 80; // no survivable crash or power fail: partition
            }
            let fault = match roll {
                0..=49 => Fault::PowerFail {
                    shard,
                    restart_after: Duration::from_millis(rng.gen_range(8..30)),
                },
                50..=79 => Fault::CrashPrimary {
                    shard,
                    restart_after: Duration::from_millis(rng.gen_range(8..30)),
                },
                _ => Fault::PartitionPrimary {
                    shard,
                    heal_after: Duration::from_millis(rng.gen_range(5..25)),
                },
            };
            faults.push(TimedFault { after, fault });
        }
        FaultPlan { faults }
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: PlanShape = PlanShape {
        shards: 2,
        replicas: 3,
        clients: 4,
    };

    #[test]
    fn same_seed_same_plan() {
        let a = FaultPlan::random(42, 50, SHAPE);
        let b = FaultPlan::random(42, 50, SHAPE);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::random(1, 50, SHAPE);
        let b = FaultPlan::random(2, 50, SHAPE);
        assert_ne!(a, b);
    }

    #[test]
    fn single_replica_shape_generates_no_crashes() {
        let plan = FaultPlan::random(
            7,
            100,
            PlanShape {
                shards: 1,
                replicas: 1,
                clients: 2,
            },
        );
        assert!(plan
            .faults
            .iter()
            .all(|f| !matches!(f.fault, Fault::CrashPrimary { .. })));
    }

    #[test]
    fn overload_plans_are_pure_and_deterministic() {
        let a = FaultPlan::random_overload(11, 20, SHAPE);
        let b = FaultPlan::random_overload(11, 20, SHAPE);
        assert_eq!(a, b);
        assert_eq!(a.len(), 20);
        assert!(a.faults.iter().all(|f| f.fault.class() == "overload"));
        for f in &a.faults {
            let Fault::Overload {
                shard, burst_rps, ..
            } = f.fault
            else {
                unreachable!()
            };
            assert!(shard < SHAPE.shards);
            assert!((20_000..80_000).contains(&burst_rps));
        }
    }

    #[test]
    fn powerfail_plans_are_deterministic_and_cover_the_cycle() {
        let a = FaultPlan::random_powerfail(9, 40, SHAPE);
        let b = FaultPlan::random_powerfail(9, 40, SHAPE);
        assert_eq!(a, b);
        assert_eq!(a.len(), 40);
        for class in ["power_fail", "crash", "partition_primary"] {
            assert!(
                a.faults.iter().any(|f| f.fault.class() == class),
                "missing {class}"
            );
        }
        // Single-replica shapes must never schedule a node kill.
        let small = FaultPlan::random_powerfail(
            9,
            40,
            PlanShape {
                shards: 1,
                replicas: 1,
                clients: 2,
            },
        );
        assert!(small
            .faults
            .iter()
            .all(|f| f.fault.class() == "partition_primary"));
    }

    #[test]
    fn clockfault_plans_are_pure_and_deterministic() {
        let a = FaultPlan::random_clockfault(13, 60, SHAPE);
        let b = FaultPlan::random_clockfault(13, 60, SHAPE);
        assert_eq!(a, b);
        assert_eq!(a.len(), 60);
        for f in &a.faults {
            assert!(
                matches!(
                    f.fault,
                    Fault::ClockStep { .. } | Fault::ClockDrift { .. } | Fault::ClockJump { .. }
                ),
                "non-clock fault in clockfault plan: {:?}",
                f.fault
            );
        }
        for class in ["clock_step", "clock_drift", "clock_jump"] {
            assert!(
                a.faults.iter().any(|f| f.fault.class() == class),
                "missing {class}"
            );
        }
        assert!(a
            .faults
            .iter()
            .all(|f| matches!(f.fault, Fault::ClockStep { client, .. }
                | Fault::ClockDrift { client, .. }
                | Fault::ClockJump { client, .. } if client < SHAPE.clients)));
    }

    #[test]
    fn mixed_plans_never_generate_clock_drift_or_jump() {
        // Drift and holdover jumps are opt-in via `random_clockfault`, so
        // pre-existing campaigns keep their exact per-seed schedules.
        let plan = FaultPlan::random(3, 200, SHAPE);
        assert!(plan
            .faults
            .iter()
            .all(|f| !matches!(f.fault, Fault::ClockDrift { .. } | Fault::ClockJump { .. })));
    }

    #[test]
    fn mixed_plans_never_generate_power_failures() {
        // `random()` is the general campaign: power failures are opt-in
        // via `random_powerfail` only, so existing campaigns keep their
        // exact per-seed schedules.
        let plan = FaultPlan::random(3, 200, SHAPE);
        assert!(plan
            .faults
            .iter()
            .all(|f| !matches!(f.fault, Fault::PowerFail { .. })));
    }

    #[test]
    fn mixed_plans_cover_every_class() {
        let plan = FaultPlan::random(3, 200, SHAPE);
        for class in [
            "crash",
            "partition_primary",
            "partition_client",
            "net_degrade",
            "clock_step",
            "overload",
            "flash_degrade",
        ] {
            assert!(
                plan.faults.iter().any(|f| f.fault.class() == class),
                "missing {class}"
            );
        }
    }
}
