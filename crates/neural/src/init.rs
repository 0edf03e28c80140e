//! Weight initialisation: Xavier for dense layers, He for convolutions.

use fedco_rng::distributions::{Distribution, Uniform};
use fedco_rng::Rng;

/// Fills `weights` uniformly in `[-limit, limit]` with
/// `limit = sqrt(6 / (fan_in + fan_out))`, one draw per element in order.
pub fn xavier_uniform<R: Rng + ?Sized>(
    rng: &mut R,
    weights: &mut [f32],
    fan_in: usize,
    fan_out: usize,
) {
    let limit = (6.0 / (fan_in.max(1) + fan_out.max(1)) as f32).sqrt();
    let dist = Uniform::new_inclusive(-limit, limit);
    weights.fill_with(|| dist.sample(rng));
}

/// Fills `weights` from a Gaussian with standard deviation
/// `sqrt(2 / fan_in)` (He / Kaiming), in order.
pub fn he_normal<R: Rng + ?Sized>(rng: &mut R, weights: &mut [f32], fan_in: usize) {
    let std = (2.0 / fan_in.max(1) as f32).sqrt();
    weights.fill_with(|| sample_gaussian(rng) * std);
}

/// Samples a standard Gaussian using the Box-Muller transform.
///
/// Implemented locally so the crate only depends on the core `rand`
/// distributions and stays deterministic across `rand` minor versions.
pub fn sample_gaussian<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    loop {
        let u1: f32 = rng.gen::<f32>();
        let u2: f32 = rng.gen::<f32>();
        if u1 > f32::MIN_POSITIVE {
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            let z = r * theta.cos();
            if z.is_finite() {
                return z;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedco_rng::rngs::SmallRng;
    use fedco_rng::SeedableRng;

    #[test]
    fn xavier_respects_limit() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut w = vec![0.0; 100 * 100];
        xavier_uniform(&mut rng, &mut w, 100, 100);
        let limit = (6.0f32 / 200.0).sqrt();
        assert!(w.iter().all(|v| v.abs() <= limit + 1e-6));
        // Should not be degenerate.
        assert!(w.iter().any(|v| v.abs() > 1e-4));
    }

    #[test]
    fn he_normal_has_reasonable_spread() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut w = vec![0.0; 10_000];
        he_normal(&mut rng, &mut w, 100);
        let std_expected = (2.0f32 / 100.0).sqrt();
        let mean = w.iter().sum::<f32>() / w.len() as f32;
        let var = w.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / w.len() as f32;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!(
            (var.sqrt() - std_expected).abs() < 0.03,
            "std {}",
            var.sqrt()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let draw = |seed| {
            let mut w = vec![0.0; 64];
            xavier_uniform(&mut SmallRng::seed_from_u64(seed), &mut w, 8, 8);
            w
        };
        assert_eq!(draw(9), draw(9));
    }

    #[test]
    fn gaussian_is_finite() {
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..1000 {
            assert!(sample_gaussian(&mut rng).is_finite());
        }
    }
}
