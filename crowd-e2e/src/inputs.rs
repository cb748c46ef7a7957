//! Seeded inputs, all generated before any timed window starts.
//!
//! The workloads upload genuine device contributions: minibatches of a
//! synthetic data set turned into averaged gradients by the `learning`
//! crate. They are not noised: the server's work per contribution does not
//! depend on the noise. A traced run times the device-side `Sanitizer` on
//! each of those minibatches instead. The pool is recorded along one device
//! fleet's SGD trajectory (each gradient taken at the parameters the
//! previous ones produced), then cycled in a seeded order during the timed
//! window, so device compute stays out of it. The server's model still moves
//! toward the trajectory's descent direction, which keeps its final test
//! error meaningful.

use crate::trace::Tracer;
use crowd_core::config::PrivacyConfig;
use crowd_core::privacy::Sanitizer;
use crowd_data::synthetic::{mnist_like, GaussianMixtureSpec};
use crowd_data::Dataset;
use crowd_learning::{minibatch_statistics, Model, MulticlassLogistic};
use crowd_linalg::ops::project_l2_ball;
use crowd_linalg::Vector;
use crowd_proto::auth::AuthToken;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Secret the token registry derives every device token from.
pub const TOKEN_SECRET: u64 = 0x00C0_FFEE_5EED;

/// Samples per device minibatch (the paper's b = 10 setting).
pub const MINIBATCH: usize = 10;

/// The paper's ε⁻¹ = 0.1, for the traced `Sanitizer` timing.
const INVERSE_EPSILON: f64 = 0.1;

/// One device contribution, ready to be put on the wire.
pub struct Contribution {
    pub gradient: Vec<f64>,
    pub error_count: i64,
    pub label_counts: Vec<i64>,
}

/// The data shape a workload's model is trained on.
#[derive(Clone, Copy)]
pub enum Shape {
    /// The MNIST-PCA surrogate: 50 features, 10 classes (500 parameters).
    Mnist50,
    /// A 500-feature, 10-class Gaussian mixture (5000 parameters).
    Wide500,
}

/// A workload's model, its test set and its pool of contributions.
pub struct Inputs {
    pub model: MulticlassLogistic,
    pub test: Dataset,
    pub pool: Vec<Contribution>,
    /// Device ids in the seeded order the generator visits them.
    pub device_order: Vec<u64>,
    /// Pool index for each successive contribution (cycled).
    pub pool_order: Vec<usize>,
    /// `tokens[d]` authenticates device `d`.
    pub tokens: Vec<AuthToken>,
}

impl Inputs {
    pub fn generate(
        shape: Shape,
        pool_size: usize,
        population: u64,
        seed: u64,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<Inputs, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let t0 = Instant::now();
        let (train, test) = match shape {
            Shape::Mnist50 => mnist_like(&mut rng, 1.0),
            Shape::Wide500 => GaussianMixtureSpec::new(500, 10)
                .with_train_size(pool_size * MINIBATCH)
                .with_test_size(10_000)
                .with_mean_scale(1.6)
                .with_noise_std(0.55)
                .generate(&mut rng),
        }
        .map_err(|e| format!("data generation: {e}"))?;
        if let Some(t) = tracer.as_deref_mut() {
            t.record("data.materialize", t0, Instant::now(), 0, 0);
        }
        let model = MulticlassLogistic::new(train.dim(), train.num_classes())
            .map_err(|e| format!("model: {e}"))?;
        let mut params = Vector::zeros(model.param_dim());
        let samples = train.samples();
        if samples.len() < pool_size * MINIBATCH {
            return Err("not enough training samples for the contribution pool".into());
        }
        let privacy =
            PrivacyConfig::from_inverse_epsilon(INVERSE_EPSILON).map_err(|e| e.to_string())?;
        // A generator of its own, so tracing leaves the inputs unchanged.
        let mut noise_rng = StdRng::seed_from_u64(seed ^ 0xD1FF_E7E5);
        let mut pool = Vec::with_capacity(pool_size);
        for (i, batch) in samples.chunks(MINIBATCH).take(pool_size).enumerate() {
            let t_grad = Instant::now();
            let stats = minibatch_statistics(&model, &params, batch, 0.0, &[])
                .map_err(|e| format!("minibatch statistics: {e}"))?;
            if let Some(t) = tracer.as_deref_mut() {
                let t_dp = Instant::now();
                t.record("learning.minibatch_gradient", t_grad, t_dp, 0, i as u64);
                let sanitized = Sanitizer::new(&privacy, stats.num_samples)
                    .map_err(|e| format!("sanitizer: {e}"))?
                    .sanitize(
                        &mut noise_rng,
                        &stats.gradient,
                        stats.num_errors,
                        &stats.label_counts,
                    );
                t.record("dp.sanitize", t_dp, Instant::now(), 0, i as u64);
                std::hint::black_box(sanitized);
            }
            // The server's default step: w ← Π(w − g/√t), radius 100.
            params
                .axpy(-1.0 / ((i + 1) as f64).sqrt(), &stats.gradient)
                .map_err(|e| format!("trajectory step: {e}"))?;
            project_l2_ball(&mut params, 100.0);
            pool.push(Contribution {
                gradient: stats.gradient.as_slice().to_vec(),
                error_count: stats.num_errors as i64,
                label_counts: stats.label_counts.iter().map(|&c| c as i64).collect(),
            });
        }
        let mut device_order: Vec<u64> = (0..population).collect();
        shuffle(&mut device_order, &mut rng);
        let pool_order = (0..pool_size.max(1) * 4)
            .map(|_| rng.gen_range(0..pool_size))
            .collect();
        let tokens = (0..population)
            .map(|d| AuthToken::derive(d, TOKEN_SECRET))
            .collect();
        Ok(Inputs {
            model,
            test,
            pool,
            device_order,
            pool_order,
            tokens,
        })
    }

    /// The pool entry used by the `k`-th contribution of a run.
    pub fn contribution(&self, k: u64) -> usize {
        self.pool_order[(k % self.pool_order.len() as u64) as usize]
    }

    /// The device making the `k`-th contribution of a run.
    pub fn device(&self, k: u64) -> u64 {
        self.device_order[(k % self.device_order.len() as u64) as usize]
    }
}

/// Fisher–Yates shuffle driven by the workload's seeded generator.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}
