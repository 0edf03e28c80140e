//! Model-transport cost model.
//!
//! The paper uploads a ~2.5 MB LeNet-5 model over HTTP (Retrofit) after each
//! local epoch and downloads the current global model before the next one.
//! The transport model converts payload sizes into transfer times given a
//! bandwidth/latency profile, so the simulator can offset when updates reach
//! the server.
//!
//! The presets come by constructor only ([`TransportModel::wifi`],
//! [`TransportModel::lte`]): a run names its link with a `LinkKind` in
//! `fedco-core`, which maps each name to one of these constructors.

use fedco_device::energy::{Joules, Seconds, Watts};

/// The size of the paper's serialised LeNet-5 model upload, in bytes.
pub const PAPER_MODEL_BYTES: usize = 2_500_000;

/// A symmetric link model between a device and the parameter server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransportModel {
    /// Downlink bandwidth in megabits per second.
    pub download_mbps: f64,
    /// Uplink bandwidth in megabits per second.
    pub upload_mbps: f64,
    /// One-way latency in seconds added to each transfer.
    pub latency_s: f64,
    /// Average radio power while transferring, in watts (tail energy of the
    /// wireless interface; see the packet-coalescing related work).
    pub radio_power_w: f64,
}

impl TransportModel {
    /// A typical home Wi-Fi link.
    pub fn wifi() -> Self {
        TransportModel {
            download_mbps: 80.0,
            upload_mbps: 30.0,
            latency_s: 0.02,
            radio_power_w: 0.8,
        }
    }

    /// A typical LTE link.
    pub fn lte() -> Self {
        TransportModel {
            download_mbps: 30.0,
            upload_mbps: 8.0,
            latency_s: 0.06,
            radio_power_w: 1.8,
        }
    }

    /// Time to download a payload of `bytes`.
    pub fn download_time(&self, bytes: usize) -> Seconds {
        Seconds(self.latency_s + transfer_seconds(bytes, self.download_mbps))
    }

    /// Time to upload a payload of `bytes`.
    pub fn upload_time(&self, bytes: usize) -> Seconds {
        Seconds(self.latency_s + transfer_seconds(bytes, self.upload_mbps))
    }

    /// Round-trip time of a full model exchange (download then upload of the
    /// same payload size).
    pub fn exchange_time(&self, bytes: usize) -> Seconds {
        self.download_time(bytes) + self.upload_time(bytes)
    }

    /// Round-trip time of a compression-aware model exchange: the global
    /// model downloads at full size (`bytes`), but the update uploads only
    /// `upload_bytes` (the compressed payload). With `upload_bytes ==
    /// bytes` this is exactly [`exchange_time`](TransportModel::exchange_time).
    pub fn compressed_exchange_time(&self, bytes: usize, upload_bytes: usize) -> Seconds {
        self.download_time(bytes) + self.upload_time(upload_bytes)
    }

    /// Radio energy spent transferring for the given duration.
    pub fn radio_energy(&self, duration: Seconds) -> Joules {
        Watts(self.radio_power_w) * duration
    }
}

fn transfer_seconds(bytes: usize, mbps: f64) -> f64 {
    if mbps <= 0.0 {
        return f64::INFINITY;
    }
    (bytes as f64 * 8.0) / (mbps * 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_upload_takes_under_a_couple_seconds_on_wifi() {
        let t = TransportModel::wifi();
        let up = t.upload_time(PAPER_MODEL_BYTES);
        // 2.5 MB at 30 Mbps ≈ 0.67 s + latency.
        assert!(up.value() > 0.5 && up.value() < 1.5, "{}", up.value());
        let down = t.download_time(PAPER_MODEL_BYTES);
        assert!(down.value() < up.value());
    }

    #[test]
    fn lte_is_slower_and_hotter_than_wifi() {
        let wifi = TransportModel::wifi();
        let lte = TransportModel::lte();
        assert!(
            lte.upload_time(PAPER_MODEL_BYTES).value()
                > wifi.upload_time(PAPER_MODEL_BYTES).value()
        );
        let d = Seconds(1.0);
        assert!(lte.radio_energy(d).value() > wifi.radio_energy(d).value());
    }

    #[test]
    fn exchange_is_download_plus_upload() {
        let t = TransportModel::wifi();
        let e = t.exchange_time(1_000_000);
        let sum = t.download_time(1_000_000) + t.upload_time(1_000_000);
        assert!((e.value() - sum.value()).abs() < 1e-12);
    }

    #[test]
    fn compressed_exchange_shrinks_only_the_upload() {
        let t = TransportModel::lte();
        let full = t.exchange_time(PAPER_MODEL_BYTES);
        let quarter = t.compressed_exchange_time(PAPER_MODEL_BYTES, PAPER_MODEL_BYTES / 4);
        assert!(quarter.value() < full.value());
        // The download leg is untouched: the saving is exactly the upload
        // airtime of the dropped bytes.
        let saved = full.value() - quarter.value();
        let expected =
            t.upload_time(PAPER_MODEL_BYTES).value() - t.upload_time(PAPER_MODEL_BYTES / 4).value();
        assert!((saved - expected).abs() < 1e-12);
        // Identity at ratio 1: the uncompressed path is byte-identical.
        let identity = t.compressed_exchange_time(PAPER_MODEL_BYTES, PAPER_MODEL_BYTES);
        assert_eq!(identity.value().to_bits(), full.value().to_bits());
    }

    #[test]
    fn zero_bandwidth_is_infinite() {
        let t = TransportModel {
            download_mbps: 0.0,
            upload_mbps: 1.0,
            latency_s: 0.0,
            radio_power_w: 1.0,
        };
        assert!(t.download_time(100).value().is_infinite());
        assert!(t.upload_time(100).value().is_finite());
    }

    #[test]
    fn radio_energy_scales_with_time() {
        let t = TransportModel::wifi();
        assert!((t.radio_energy(Seconds(2.0)).value() - 1.6).abs() < 1e-9);
    }
}
