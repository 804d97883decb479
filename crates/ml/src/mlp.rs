//! A small multi-layer perceptron (one ReLU hidden layer, softmax output)
//! — the second "complex and heavyweight black-box" model of the paper's
//! development loop.

use crate::data::{Dataset, Normalizer};
use crate::model::Classifier;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// SGD step size (divided by the batch length).
const LEARNING_RATE: f64 = 0.05;
/// Rows per mini-batch.
const BATCH_SIZE: usize = 32;
/// Weight-init and shuffle seed: a model is a pure function of its data
/// and config.
const SEED: u64 = 0x3147;
/// Hidden-layer width.
const HIDDEN: usize = 32;

/// MLP hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct MlpConfig {
    pub epochs: usize,
}

impl Default for MlpConfig {
    fn default() -> Self {
        MlpConfig { epochs: 80 }
    }
}

/// One-hidden-layer MLP. Expects standardized features.
#[derive(Debug, Clone)]
pub struct Mlp {
    /// `w1[h][f]`: input -> hidden.
    w1: Vec<Vec<f64>>,
    b1: Vec<f64>,
    /// `w2[c][h]`: hidden -> output.
    w2: Vec<Vec<f64>>,
    b2: Vec<f64>,
    n_classes: usize,
}

fn softmax(logits: &[f64]) -> Vec<f64> {
    let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|&z| (z - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

impl Mlp {
    /// Train on `data`.
    pub fn fit(data: &Dataset, cfg: MlpConfig) -> Self {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        let d = data.n_features();
        let h = HIDDEN;
        let c = data.n_classes.max(2);
        let mut rng = StdRng::seed_from_u64(SEED);
        let scale1 = (2.0 / d.max(1) as f64).sqrt();
        let scale2 = (2.0 / h as f64).sqrt();
        let mut model = Mlp {
            w1: (0..h)
                .map(|_| (0..d).map(|_| rng.gen_range(-scale1..scale1)).collect())
                .collect(),
            b1: vec![0.0; h],
            w2: (0..c)
                .map(|_| (0..h).map(|_| rng.gen_range(-scale2..scale2)).collect())
                .collect(),
            b2: vec![0.0; c],
            n_classes: c,
        };
        let mut order: Vec<usize> = (0..data.len()).collect();
        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            for batch in order.chunks(BATCH_SIZE) {
                let mut gw1 = vec![vec![0.0; d]; h];
                let mut gb1 = vec![0.0; h];
                let mut gw2 = vec![vec![0.0; h]; c];
                let mut gb2 = vec![0.0; c];
                for &i in batch {
                    let row = &data.x[i];
                    // Forward.
                    let hidden: Vec<f64> = model
                        .w1
                        .iter()
                        .zip(&model.b1)
                        .map(|(w, b)| {
                            (w.iter().zip(row).map(|(wi, xi)| wi * xi).sum::<f64>() + b).max(0.0)
                        })
                        .collect();
                    let logits: Vec<f64> = model
                        .w2
                        .iter()
                        .zip(&model.b2)
                        .map(|(w, b)| w.iter().zip(&hidden).map(|(wi, hi)| wi * hi).sum::<f64>() + b)
                        .collect();
                    let p = softmax(&logits);
                    // Backward.
                    let dlogits: Vec<f64> = (0..c)
                        .map(|k| p[k] - f64::from(u8::from(data.y[i] == k)))
                        .collect();
                    let mut dhidden = vec![0.0; h];
                    for k in 0..c {
                        for j in 0..h {
                            gw2[k][j] += dlogits[k] * hidden[j];
                            dhidden[j] += dlogits[k] * model.w2[k][j];
                        }
                        gb2[k] += dlogits[k];
                    }
                    for j in 0..h {
                        if hidden[j] > 0.0 {
                            for f in 0..d {
                                gw1[j][f] += dhidden[j] * row[f];
                            }
                            gb1[j] += dhidden[j];
                        }
                    }
                }
                let lr = LEARNING_RATE / batch.len() as f64;
                for j in 0..h {
                    for (w, &g) in model.w1[j].iter_mut().zip(&gw1[j]) {
                        *w -= lr * g;
                    }
                    model.b1[j] -= lr * gb1[j];
                }
                for k in 0..c {
                    for (w, &g) in model.w2[k].iter_mut().zip(&gw2[k]) {
                        *w -= lr * g;
                    }
                    model.b2[k] -= lr * gb2[k];
                }
            }
        }
        model
    }

    /// Parameter count — the black-box "model size".
    pub fn n_parameters(&self) -> usize {
        self.w1.iter().map(Vec::len).sum::<usize>()
            + self.b1.len()
            + self.w2.iter().map(Vec::len).sum::<usize>()
            + self.b2.len()
    }
}

impl Classifier for Mlp {
    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        let hidden: Vec<f64> = self
            .w1
            .iter()
            .zip(&self.b1)
            .map(|(w, b)| (w.iter().zip(row).map(|(wi, xi)| wi * xi).sum::<f64>() + b).max(0.0))
            .collect();
        let logits: Vec<f64> = self
            .w2
            .iter()
            .zip(&self.b2)
            .map(|(w, b)| w.iter().zip(&hidden).map(|(wi, hi)| wi * hi).sum::<f64>() + b)
            .collect();
        softmax(&logits)
    }
}

/// An MLP plus the input normalizer it was trained behind, presented as
/// one classifier over raw feature rows.
#[derive(Debug, Clone)]
pub struct NormalizedMlp {
    pub norm: Normalizer,
    pub model: Mlp,
}

impl NormalizedMlp {
    /// Fit the normalizer on `data`, then the MLP on the normalized rows.
    pub fn fit(data: &Dataset, cfg: MlpConfig) -> Self {
        let norm = Normalizer::fit(data);
        let model = Mlp::fit(&norm.transform(data), cfg);
        NormalizedMlp { norm, model }
    }
}

impl Classifier for NormalizedMlp {
    fn n_classes(&self) -> usize {
        self.model.n_classes()
    }

    fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        self.model.predict_proba(&self.norm.transform_row(row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// XOR: not linearly separable, so the MLP must use its hidden layer.
    fn xor_data() -> Dataset {
        let mut x = Vec::new();
        let mut y = Vec::new();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..400 {
            let a = f64::from(u8::from(rng.gen::<bool>()));
            let b = f64::from(u8::from(rng.gen::<bool>()));
            x.push(vec![
                a + rng.gen_range(-0.1..0.1),
                b + rng.gen_range(-0.1..0.1),
            ]);
            y.push(usize::from((a > 0.5) ^ (b > 0.5)));
        }
        Dataset::new(x, y, vec!["a".into(), "b".into()])
    }

    #[test]
    fn solves_xor() {
        let d = xor_data();
        let norm = Normalizer::fit(&d);
        let dn = norm.transform(&d);
        let (train, test) = dn.split_by_order(0.75);
        let m = Mlp::fit(&train, MlpConfig { epochs: 200 });
        let acc = test
            .x
            .iter()
            .zip(&test.y)
            .filter(|(r, &l)| m.predict(r) == l)
            .count() as f64
            / test.len() as f64;
        assert!(acc > 0.95, "XOR accuracy {acc}");
    }

    #[test]
    fn probabilities_normalized_and_deterministic() {
        let d = xor_data();
        let m1 = Mlp::fit(&d, MlpConfig { epochs: 5 });
        let m2 = Mlp::fit(&d, MlpConfig { epochs: 5 });
        for row in d.x.iter().take(10) {
            let p = m1.predict_proba(row);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert_eq!(m1.predict(row), m2.predict(row));
        }
    }

    #[test]
    fn parameter_count() {
        let d = xor_data();
        let m = Mlp::fit(&d, MlpConfig { epochs: 1 });
        // 2*32 + 32 + 32*2 + 2 = 162.
        assert_eq!(m.n_parameters(), 162);
    }
}
