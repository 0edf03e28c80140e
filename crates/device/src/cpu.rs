//! big.LITTLE CPU topology.
//!
//! The paper's energy saving stems from the asymmetric ARM microarchitecture:
//! background training threads are dispatched by the kernel scheduler to the
//! LITTLE cores (the cpuset in `/dev/cpuset/background/cpus`), while the
//! foreground application occupies the big cores. This module models the
//! cluster layout of each testbed device.

use crate::profiles::DeviceKind;

/// A CPU cluster (one half of a big.LITTLE pair, or the single cluster of a
/// homogeneous chipset).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuCluster {
    /// Number of cores in the cluster.
    pub cores: usize,
    /// Maximum frequency in MHz.
    pub max_freq_mhz: u32,
    /// Whether this is the high-performance ("big") cluster.
    pub is_big: bool,
}

/// The CPU topology of a device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuTopology {
    /// The high-performance cluster (equal to `little` on homogeneous chips).
    pub big: CpuCluster,
    /// The energy-efficient cluster.
    pub little: CpuCluster,
    /// Number of little cores in the vendor's background cpuset
    /// (`/dev/cpuset/background/cpus`), i.e. how many cores the background
    /// training service may use.
    pub background_cores: usize,
    /// Whether the chip actually has asymmetric clusters.
    pub heterogeneous: bool,
}

impl CpuTopology {
    /// The topology of one of the testbed devices.
    pub fn for_device(kind: DeviceKind) -> Self {
        match kind {
            // Snapdragon 805: four homogeneous Krait cores.
            DeviceKind::Nexus6 => CpuTopology {
                big: CpuCluster {
                    cores: 4,
                    max_freq_mhz: 2700,
                    is_big: true,
                },
                little: CpuCluster {
                    cores: 4,
                    max_freq_mhz: 2700,
                    is_big: false,
                },
                background_cores: 1,
                heterogeneous: false,
            },
            // Snapdragon 810: 4×A57 + 4×A53; one little core for background.
            DeviceKind::Nexus6P => CpuTopology {
                big: CpuCluster {
                    cores: 4,
                    max_freq_mhz: 1958,
                    is_big: true,
                },
                little: CpuCluster {
                    cores: 4,
                    max_freq_mhz: 1555,
                    is_big: false,
                },
                background_cores: 1,
                heterogeneous: true,
            },
            // Kirin 970: 4×A73 + 4×A53; one little core for background.
            DeviceKind::Hikey970 => CpuTopology {
                big: CpuCluster {
                    cores: 4,
                    max_freq_mhz: 2360,
                    is_big: true,
                },
                little: CpuCluster {
                    cores: 4,
                    max_freq_mhz: 1840,
                    is_big: false,
                },
                background_cores: 1,
                heterogeneous: true,
            },
            // Snapdragon 835: 4×Kryo-big + 4×Kryo-little; two background cores.
            DeviceKind::Pixel2 => CpuTopology {
                big: CpuCluster {
                    cores: 4,
                    max_freq_mhz: 2450,
                    is_big: true,
                },
                little: CpuCluster {
                    cores: 4,
                    max_freq_mhz: 1900,
                    is_big: false,
                },
                background_cores: 2,
                heterogeneous: true,
            },
        }
    }

    /// Number of training threads the vendor configuration allows: the paper
    /// sets the thread count to the background cpuset size (2 on Pixel 2,
    /// 1 on Nexus 6P and HiKey 970) to avoid cache-coherence contention.
    pub fn training_threads(&self) -> usize {
        self.background_cores.max(1)
    }

    /// Total number of cores.
    pub fn total_cores(&self) -> usize {
        if self.heterogeneous {
            self.big.cores + self.little.cores
        } else {
            self.big.cores
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_matches_vendor_cpusets() {
        assert_eq!(
            CpuTopology::for_device(DeviceKind::Pixel2).background_cores,
            2
        );
        assert_eq!(
            CpuTopology::for_device(DeviceKind::Nexus6P).background_cores,
            1
        );
        assert_eq!(
            CpuTopology::for_device(DeviceKind::Hikey970).background_cores,
            1
        );
        assert_eq!(
            CpuTopology::for_device(DeviceKind::Pixel2).training_threads(),
            2
        );
        assert_eq!(
            CpuTopology::for_device(DeviceKind::Hikey970).training_threads(),
            1
        );
    }

    #[test]
    fn nexus6_is_homogeneous() {
        let t = CpuTopology::for_device(DeviceKind::Nexus6);
        assert!(!t.heterogeneous);
        assert_eq!(t.total_cores(), 4);
        let t2 = CpuTopology::for_device(DeviceKind::Pixel2);
        assert!(t2.heterogeneous);
        assert_eq!(t2.total_cores(), 8);
    }
}
