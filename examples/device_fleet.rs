//! Inspect the per-device co-running economics of Table II and simulate a
//! heterogeneous fleet with battery accounting.
//!
//! ```text
//! cargo run --release --example device_fleet
//! ```

use fedco::prelude::*;

fn main() {
    println!("Per-device co-running savings calibrated from Table II\n");
    println!(
        "{:<10} {:<12} {:>10} {:>10} {:>10} {:>9}",
        "device", "app", "P_a (W)", "P_a' (W)", "time (s)", "saving"
    );
    for device in DeviceKind::ALL {
        let model = PowerModel::new(device.profile());
        for app in [AppKind::Map, AppKind::Youtube, AppKind::CandyCrush] {
            let m = model.profile().app_measurement(app);
            println!(
                "{:<10} {:<12} {:>10.2} {:>10.2} {:>10.0} {:>8.0}%",
                device.label(),
                app.name(),
                m.app_power_w,
                m.corun_power_w,
                m.corun_time_s,
                ScheduleComparison::compute(&model, app).saving_fraction() * 100.0
            );
        }
    }

    // How long would one training epoch take off the battery of each device?
    println!("\nBattery impact of one background training epoch:");
    for device in DeviceKind::ALL {
        let profile = device.profile();
        let capacity = fedco::device::battery::capacity(device).value();
        let energy = profile.training_power() * profile.training_time();
        let state_of_charge = ((capacity - energy.value()) / capacity).clamp(0.0, 1.0);
        println!(
            "{:<10} epoch energy {:>8.1} J  state of charge after one epoch: {:>6.2} %",
            device.label(),
            energy.value(),
            state_of_charge * 100.0
        );
    }

    // A small heterogeneous fleet under the online controller, declared
    // through the `hetero-devices` scenario preset (a phone-heavy mix with
    // one HiKey 970 board per six users).
    let scenario: ScenarioSpec = "hetero-devices:users=12:slots=1800:arrival_p=0.003"
        .parse()
        .expect("registry scenario");
    let result = run_simulation(
        scenario
            .build_with_policy(PolicySpec::Online { v: None })
            .expect("valid scenario"),
    );
    println!("\nHeterogeneous fleet ({}), online controller:", scenario);
    println!("{}", summarize(&result));
    println!(
        "co-run epochs: {} of {} updates",
        result.corun_epochs, result.total_updates
    );
}
