//! The catalog of foreground applications used in the paper's evaluation.
//!
//! The paper selects eight popular applications from Google Play (Table II)
//! and measures, for every device, the average power of running the app
//! alone, the average power of co-running the app with the background
//! training task, and the execution time of the co-run.

/// The eight representative foreground applications of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppKind {
    /// Navigation / GPS ("Map" row of Table II).
    Map,
    /// News reading (Yahoo News).
    News,
    /// Stock trading (E*Trade).
    Etrade,
    /// Video streaming (YouTube).
    Youtube,
    /// Short-video feed (TikTok).
    Tiktok,
    /// Video conferencing (Zoom).
    Zoom,
    /// Casual game (Candy Crush).
    CandyCrush,
    /// Casual game (Angry Birds).
    Angrybird,
}

impl AppKind {
    /// All applications, in the order used by Table II.
    pub const ALL: [AppKind; 8] = [
        AppKind::Map,
        AppKind::News,
        AppKind::Etrade,
        AppKind::Youtube,
        AppKind::Tiktok,
        AppKind::Zoom,
        AppKind::CandyCrush,
        AppKind::Angrybird,
    ];

    /// Human-readable name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            AppKind::Map => "Map",
            AppKind::News => "News",
            AppKind::Etrade => "Etrade",
            AppKind::Youtube => "Youtube",
            AppKind::Tiktok => "Tiktok",
            AppKind::Zoom => "Zoom",
            AppKind::CandyCrush => "CandyCrush",
            AppKind::Angrybird => "Angrybird",
        }
    }

    /// Nominal foreground frame-rate target in frames per second, used by
    /// the FPS model (Fig. 2: Angry Birds renders at ~60 FPS, TikTok at ~30).
    pub fn target_fps(self) -> f64 {
        match self {
            AppKind::Angrybird | AppKind::CandyCrush | AppKind::Map => 60.0,
            AppKind::Youtube | AppKind::Tiktok | AppKind::Zoom => 30.0,
            AppKind::News | AppKind::Etrade => 60.0,
        }
    }

    /// Index of this app in [`AppKind::ALL`].
    pub fn index(self) -> usize {
        AppKind::ALL
            .iter()
            .position(|&a| a == self)
            // fedco-audit: allow(panic-surface): ALL enumerates every AppKind variant, so the position always exists
            .expect("app is in ALL")
    }
}

impl std::fmt::Display for AppKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-device, per-application calibration entry from Table II.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppMeasurement {
    /// Average power (W) of running the application alone (`P_a`).
    pub app_power_w: f64,
    /// Average power (W) of co-running the application with training (`P_a'`).
    pub corun_power_w: f64,
    /// Execution time (s) of the training epoch while co-running.
    pub corun_time_s: f64,
}

impl AppMeasurement {
    /// Creates a measurement entry.
    pub fn new(app_power_w: f64, corun_power_w: f64, corun_time_s: f64) -> Self {
        AppMeasurement {
            app_power_w,
            corun_power_w,
            corun_time_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_contains_eight_unique_apps() {
        assert_eq!(AppKind::ALL.len(), 8);
        for (i, a) in AppKind::ALL.iter().enumerate() {
            assert_eq!(a.index(), i);
            for b in &AppKind::ALL[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn names_match_table_ii() {
        assert_eq!(AppKind::Map.name(), "Map");
        assert_eq!(AppKind::CandyCrush.to_string(), "CandyCrush");
    }

    #[test]
    fn fps_targets_match_fig2() {
        assert_eq!(AppKind::Angrybird.target_fps(), 60.0);
        assert_eq!(AppKind::Tiktok.target_fps(), 30.0);
    }

    #[test]
    fn measurement_constructor() {
        let m = AppMeasurement::new(1.6, 2.2, 196.0);
        assert_eq!(m.app_power_w, 1.6);
        assert_eq!(m.corun_power_w, 2.2);
        assert_eq!(m.corun_time_s, 196.0);
    }
}
