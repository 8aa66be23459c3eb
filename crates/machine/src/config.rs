//! Machine configuration: rank count, memory model, network cost model.

use crate::time::VTime;

/// Whether the simulated machine is a distributed-memory multicomputer
/// (Paragon, CM-5) or a shared-memory multiprocessor (SGI Challenge).
///
/// Both models run one thread per rank and exchange messages; the
/// distinction matters to higher layers (pC++/streams collapses its
/// per-node buffers to a single shared buffer on shared-memory machines,
/// paper §4) and to the cost presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryModel {
    /// One address space per rank; all sharing via messages.
    Distributed,
    /// Single address space; messages model bus traffic, and a shared
    /// buffer (`SharedBuffer`) is legal.
    Shared,
}

/// Cost model for the interconnect.
///
/// A message of `b` bytes sent at time `t` arrives at
/// `t + send_overhead + latency + b * per_byte`; the sender's own clock
/// advances by `send_overhead`, the receiver additionally pays
/// `recv_overhead` after the arrival synchronization. This is the LogP-style
/// o/L/G decomposition, coarse but sufficient for an I/O library whose
/// communication is dominated by bulk all-to-all traffic.
#[derive(Debug, Clone, Copy)]
pub struct NetModel {
    /// CPU time consumed on the sender per message.
    pub send_overhead: VTime,
    /// CPU time consumed on the receiver per message.
    pub recv_overhead: VTime,
    /// Wire latency per message.
    pub latency: VTime,
    /// Transfer time per byte, in nanoseconds (fractional allowed).
    pub ns_per_byte: f64,
}

impl NetModel {
    /// Time on the wire for a payload of `bytes`.
    pub fn transfer(&self, bytes: usize) -> VTime {
        VTime::from_nanos((bytes as f64 * self.ns_per_byte).round() as u64)
    }

    /// An instantaneous network — useful for unit tests that only check
    /// data movement, not timing.
    pub fn instant() -> Self {
        NetModel {
            send_overhead: VTime::ZERO,
            recv_overhead: VTime::ZERO,
            latency: VTime::ZERO,
            ns_per_byte: 0.0,
        }
    }

    /// Intel Paragon-class mesh interconnect (NX message passing):
    /// tens-of-microseconds latency, ~80 MB/s point-to-point.
    pub fn paragon() -> Self {
        NetModel {
            send_overhead: VTime::from_micros(15),
            recv_overhead: VTime::from_micros(15),
            latency: VTime::from_micros(40),
            ns_per_byte: 1e9 / (80.0 * 1024.0 * 1024.0),
        }
    }

    /// SGI Challenge-class shared-memory bus: microsecond "latency"
    /// (lock handoff), memory-speed transfers.
    pub fn sgi_challenge() -> Self {
        NetModel {
            send_overhead: VTime::from_nanos(500),
            recv_overhead: VTime::from_nanos(500),
            latency: VTime::from_micros(2),
            ns_per_byte: 1e9 / (400.0 * 1024.0 * 1024.0),
        }
    }

    /// TMC CM-5 data network: ~5 us latency, ~10 MB/s per node sustained.
    pub fn cm5() -> Self {
        NetModel {
            send_overhead: VTime::from_micros(3),
            recv_overhead: VTime::from_micros(3),
            latency: VTime::from_micros(5),
            ns_per_byte: 1e9 / (10.0 * 1024.0 * 1024.0),
        }
    }
}

/// Per-rank compute cost model: how fast a node copies memory. Used by the
/// I/O library to charge buffer-packing time.
#[derive(Debug, Clone, Copy)]
pub struct CpuModel {
    /// Memory-copy throughput, nanoseconds per byte.
    pub memcpy_ns_per_byte: f64,
}

impl CpuModel {
    /// Time to copy `bytes` through memory.
    pub fn memcpy(&self, bytes: usize) -> VTime {
        VTime::from_nanos((bytes as f64 * self.memcpy_ns_per_byte).round() as u64)
    }

    /// Free copies, for data-movement-only tests.
    pub fn instant() -> Self {
        CpuModel {
            memcpy_ns_per_byte: 0.0,
        }
    }

    /// Paragon i860 node: ~50 MB/s effective copy bandwidth.
    pub fn paragon() -> Self {
        CpuModel {
            memcpy_ns_per_byte: 1e9 / (50.0 * 1024.0 * 1024.0),
        }
    }

    /// SGI Challenge R4400 node: ~160 MB/s effective copy bandwidth.
    pub fn sgi_challenge() -> Self {
        CpuModel {
            memcpy_ns_per_byte: 1e9 / (160.0 * 1024.0 * 1024.0),
        }
    }
}

/// Two-phase collective buffering configuration.
///
/// When attached to a [`MachineConfig`], the PFS collective operations
/// funnel data through a deterministic subset of ranks — the I/O
/// *aggregators* — instead of every rank issuing its own file-system
/// operation. Non-aggregators ship their blocks to the aggregator that
/// owns the destination file domain over the ordinary message layer;
/// aggregators coalesce the pieces into large stripe-aligned operations.
/// File contents and record layout are bit-identical to the direct path;
/// only the physical I/O schedule (and thus the modeled cost) changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectiveConfig {
    /// Number of ranks acting as I/O aggregators. Clamped to
    /// `1..=nprocs` at use; `aggregators == nprocs` degenerates to one
    /// file domain per rank (still stripe-aligned).
    pub aggregators: usize,
    /// Align file-domain boundaries down to multiples of the disk
    /// model's stripe size, using data sieving (read-modify-write) for
    /// the unaligned head of the written span.
    pub stripe_align: bool,
}

impl CollectiveConfig {
    /// The deterministic set of aggregator ranks for a machine of
    /// `nprocs` ranks: `aggregators` ranks spread evenly, always
    /// including rank 0.
    pub fn aggregator_ranks(&self, nprocs: usize) -> Vec<usize> {
        let n = self.aggregators.clamp(1, nprocs.max(1));
        (0..n).map(|k| k * nprocs / n).collect()
    }
}

/// Full configuration of a simulated machine run.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of ranks (compute nodes). Must be ≥ 1.
    pub nprocs: usize,
    /// Memory organization.
    pub memory: MemoryModel,
    /// Interconnect cost model.
    pub net: NetModel,
    /// Node compute cost model.
    pub cpu: CpuModel,
    /// Seed from which per-rank RNG seeds are derived (workload generation
    /// in higher layers); the machine itself is deterministic regardless.
    pub seed: u64,
    /// Optional event sink. When set, every rank records message,
    /// collective, PFS and stream-phase events into it; when `None` the
    /// runtime pays a single branch per would-be event and never constructs
    /// one. Tracing has no clock effects either way: virtual times are
    /// bit-identical with and without it.
    pub trace: Option<dstreams_trace::TraceSink>,
    /// Optional deterministic fault schedule. When set, the PFS client
    /// layer consults it per logical file operation; when `None` no fault
    /// state is even allocated and every check is a single branch.
    pub faults: Option<crate::fault::FaultPlan>,
    /// Optional two-phase collective buffering. When set, PFS collective
    /// operations route through aggregator ranks; when `None` every rank
    /// performs its own file-system operation (the direct path).
    pub collective: Option<CollectiveConfig>,
}

impl MachineConfig {
    /// A machine with `nprocs` ranks and zero-cost communication — the
    /// right default for functional tests.
    pub fn functional(nprocs: usize) -> Self {
        MachineConfig {
            nprocs,
            memory: MemoryModel::Distributed,
            net: NetModel::instant(),
            cpu: CpuModel::instant(),
            seed: 0x5eed,
            trace: None,
            faults: None,
            collective: None,
        }
    }

    /// Intel Paragon preset with `nprocs` compute nodes.
    pub fn paragon(nprocs: usize) -> Self {
        MachineConfig {
            nprocs,
            memory: MemoryModel::Distributed,
            net: NetModel::paragon(),
            cpu: CpuModel::paragon(),
            seed: 0x5eed,
            trace: None,
            faults: None,
            collective: None,
        }
    }

    /// SGI Challenge preset with `nprocs` processors.
    pub fn sgi_challenge(nprocs: usize) -> Self {
        MachineConfig {
            nprocs,
            memory: MemoryModel::Shared,
            net: NetModel::sgi_challenge(),
            cpu: CpuModel::sgi_challenge(),
            seed: 0x5eed,
            trace: None,
            faults: None,
            collective: None,
        }
    }

    /// TMC CM-5 preset with `nprocs` compute nodes.
    pub fn cm5(nprocs: usize) -> Self {
        MachineConfig {
            nprocs,
            memory: MemoryModel::Distributed,
            net: NetModel::cm5(),
            cpu: CpuModel::paragon(),
            seed: 0x5eed,
            trace: None,
            faults: None,
            collective: None,
        }
    }

    /// Attach a trace sink (builder style). The sink must have been
    /// created for at least `nprocs` ranks.
    pub fn traced(mut self, sink: dstreams_trace::TraceSink) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Attach a deterministic fault schedule (builder style).
    pub fn with_faults(mut self, plan: crate::fault::FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Route PFS collectives through aggregator ranks (builder style).
    pub fn with_collective(mut self, cc: CollectiveConfig) -> Self {
        self.collective = Some(cc);
        self
    }

    /// Deterministic per-rank seed derivation (splitmix64 step).
    pub fn seed_for_rank(&self, rank: usize) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(0x9e3779b97f4a7c15u64.wrapping_mul(rank as u64 + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_scales_with_bytes() {
        let net = NetModel {
            send_overhead: VTime::ZERO,
            recv_overhead: VTime::ZERO,
            latency: VTime::ZERO,
            ns_per_byte: 2.0,
        };
        assert_eq!(net.transfer(10).as_nanos(), 20);
        assert_eq!(net.transfer(0).as_nanos(), 0);
    }

    #[test]
    fn instant_models_cost_nothing() {
        assert_eq!(NetModel::instant().transfer(1 << 20).as_nanos(), 0);
        assert_eq!(CpuModel::instant().memcpy(1 << 20).as_nanos(), 0);
    }

    #[test]
    fn presets_have_sane_relative_speeds() {
        // The Challenge bus must beat the Paragon mesh on both latency and
        // bandwidth, as it did in 1995.
        let p = NetModel::paragon();
        let s = NetModel::sgi_challenge();
        assert!(s.latency < p.latency);
        assert!(s.ns_per_byte < p.ns_per_byte);
        assert!(
            CpuModel::sgi_challenge().memcpy_ns_per_byte < CpuModel::paragon().memcpy_ns_per_byte
        );
    }

    #[test]
    fn aggregator_ranks_are_deterministic_and_clamped() {
        let cc = CollectiveConfig {
            aggregators: 4,
            stripe_align: true,
        };
        assert_eq!(cc.aggregator_ranks(16), vec![0, 4, 8, 12]);
        // Uneven split still spreads and keeps rank 0.
        assert_eq!(cc.aggregator_ranks(6), vec![0, 1, 3, 4]);
        // More aggregators than ranks clamps to one per rank.
        assert_eq!(cc.aggregator_ranks(2), vec![0, 1]);
        let one = CollectiveConfig {
            aggregators: 0,
            stripe_align: false,
        };
        assert_eq!(one.aggregator_ranks(8), vec![0]);
    }

    #[test]
    fn rank_seeds_are_distinct_and_deterministic() {
        let cfg = MachineConfig::functional(8);
        let seeds: Vec<u64> = (0..8).map(|r| cfg.seed_for_rank(r)).collect();
        for i in 0..8 {
            for j in (i + 1)..8 {
                assert_ne!(seeds[i], seeds[j]);
            }
            assert_eq!(seeds[i], cfg.seed_for_rank(i));
        }
    }
}
