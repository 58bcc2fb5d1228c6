//! Optimisers: plain SGD (used in the meta-learning inner loops) and Adam
//! (the paper's outer-loop optimiser, §VII-A).

use crate::matrix::Matrix;
use crate::tensor::Tensor;

/// First-order optimiser over a fixed list of leaf parameters.
pub trait Optimizer {
    /// Applies one update using the currently accumulated gradients.
    /// Parameters without a gradient are skipped.
    fn step(&mut self);

    /// Clears the gradients of all managed parameters.
    fn zero_grad(&mut self);

    /// The managed parameters.
    fn params(&self) -> &[Tensor];

    /// Current learning rate.
    fn lr(&self) -> f32;

    /// Replaces the learning rate.
    fn set_lr(&mut self, lr: f32);
}

/// Stochastic gradient descent with optional weight decay.
pub struct Sgd {
    params: Vec<Tensor>,
    lr: f32,
    weight_decay: f32,
}

impl Sgd {
    pub fn new(params: Vec<Tensor>, lr: f32) -> Self {
        Self {
            params,
            lr,
            weight_decay: 0.0,
        }
    }

    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }
}

impl Optimizer for Sgd {
    fn step(&mut self) {
        for p in &self.params {
            let Some(grad) = p.grad() else { continue };
            let lr = self.lr;
            let wd = self.weight_decay;
            p.update_value(|v| {
                if wd > 0.0 {
                    v.scale_assign(1.0 - lr * wd);
                }
                v.add_scaled_assign(&grad, -lr);
            });
        }
    }

    fn zero_grad(&mut self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn params(&self) -> &[Tensor] {
        &self.params
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba) with bias correction and optional weight decay.
pub struct Adam {
    params: Vec<Tensor>,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Adam with the conventional β₁=0.9, β₂=0.999, ε=1e-8.
    pub fn new(params: Vec<Tensor>, lr: f32) -> Self {
        let m = params
            .iter()
            .map(|p| {
                let (r, c) = p.shape();
                Matrix::zeros(r, c)
            })
            .collect();
        let v = params
            .iter()
            .map(|p| {
                let (r, c) = p.shape();
                Matrix::zeros(r, c)
            })
            .collect();
        Self {
            params,
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            m,
            v,
        }
    }

    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }
}

impl Optimizer for Adam {
    fn step(&mut self) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, p) in self.params.iter().enumerate() {
            let Some(mut grad) = p.grad() else { continue };
            if self.weight_decay > 0.0 {
                grad.add_scaled_assign(&p.value_ref(), self.weight_decay);
            }
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            m.scale_assign(self.beta1);
            m.add_scaled_assign(&grad, 1.0 - self.beta1);
            v.scale_assign(self.beta2);
            for (vv, &g) in v.as_mut_slice().iter_mut().zip(grad.as_slice()) {
                *vv += (1.0 - self.beta2) * g * g;
            }
            let lr = self.lr;
            let eps = self.eps;
            p.update_value(|value| {
                for ((x, &mm), &vv) in value
                    .as_mut_slice()
                    .iter_mut()
                    .zip(m.as_slice())
                    .zip(v.as_slice())
                {
                    let m_hat = mm / bc1;
                    let v_hat = vv / bc2;
                    *x -= lr * m_hat / (v_hat.sqrt() + eps);
                }
            });
        }
    }

    fn zero_grad(&mut self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn params(&self) -> &[Tensor] {
        &self.params
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Rescales gradients in place so their global L2 norm is at most
/// `max_norm`. Returns the pre-clip norm.
pub fn clip_grad_norm(params: &[Tensor], max_norm: f32) -> f32 {
    let mut total = 0.0f32;
    for p in params {
        if let Some(g) = p.grad() {
            total += g.as_slice().iter().map(|x| x * x).sum::<f32>();
        }
    }
    let norm = total.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for p in params {
            if let Some(mut g) = p.grad() {
                g.scale_assign(scale);
                p.zero_grad();
                p.accum_grad(&g);
            }
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_loss(x: &Tensor) -> Tensor {
        // loss = Σ x², minimised at 0.
        x.l2_sum()
    }

    #[test]
    fn sgd_descends_quadratic() {
        let x = Tensor::parameter(Matrix::from_vec(1, 2, vec![2.0, -3.0]));
        let mut opt = Sgd::new(vec![x.clone()], 0.1);
        for _ in 0..100 {
            opt.zero_grad();
            quadratic_loss(&x).backward();
            opt.step();
        }
        assert!(x.value().max_abs() < 1e-3);
    }

    #[test]
    fn adam_descends_quadratic() {
        let x = Tensor::parameter(Matrix::from_vec(1, 2, vec![5.0, -7.0]));
        let mut opt = Adam::new(vec![x.clone()], 0.2);
        for _ in 0..300 {
            opt.zero_grad();
            quadratic_loss(&x).backward();
            opt.step();
        }
        assert!(x.value().max_abs() < 1e-2);
    }

    #[test]
    fn adam_converges_faster_than_sgd_on_ill_conditioned() {
        // loss = x₀² + 100·x₁²: a stiff quadratic.
        let loss_of = |x: &Tensor| {
            let scaled = x.mul(&Tensor::constant(Matrix::from_vec(1, 2, vec![1.0, 10.0])));
            scaled.l2_sum()
        };
        let run = |mut opt: Box<dyn Optimizer>, x: Tensor| {
            for _ in 0..50 {
                opt.zero_grad();
                loss_of(&x).backward();
                opt.step();
            }
            x.value().max_abs()
        };
        let x1 = Tensor::parameter(Matrix::from_vec(1, 2, vec![1.0, 1.0]));
        let x2 = Tensor::parameter(Matrix::from_vec(1, 2, vec![1.0, 1.0]));
        let adam = run(Box::new(Adam::new(vec![x1.clone()], 0.1)), x1);
        let sgd = run(Box::new(Sgd::new(vec![x2.clone()], 0.001)), x2);
        assert!(adam < sgd, "adam {adam} should beat tiny-lr sgd {sgd}");
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let x = Tensor::parameter(Matrix::full(1, 4, 1.0));
        let mut opt = Sgd::new(vec![x.clone()], 0.1).with_weight_decay(0.5);
        // No task gradient: decay alone should shrink the weights.
        x.zero_grad();
        x.accum_grad(&Matrix::zeros(1, 4));
        opt.step();
        assert!(x.value().max_abs() < 1.0);
    }

    #[test]
    fn step_skips_params_without_grad() {
        let x = Tensor::parameter(Matrix::full(1, 2, 1.0));
        let y = Tensor::parameter(Matrix::full(1, 2, 1.0));
        let mut opt = Sgd::new(vec![x.clone(), y.clone()], 0.5);
        quadratic_loss(&x).backward();
        opt.step();
        assert!(x.value().max_abs() < 1.0);
        assert!(y.value().approx_eq(&Matrix::full(1, 2, 1.0), 0.0));
    }

    #[test]
    fn clip_grad_norm_bounds_norm() {
        let x = Tensor::parameter(Matrix::from_vec(1, 2, vec![0.0, 0.0]));
        x.accum_grad(&Matrix::from_vec(1, 2, vec![3.0, 4.0]));
        let pre = clip_grad_norm(std::slice::from_ref(&x), 1.0);
        assert!((pre - 5.0).abs() < 1e-5);
        let g = x.grad().unwrap();
        let post = (g.as_slice().iter().map(|v| v * v).sum::<f32>()).sqrt();
        assert!((post - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clip_grad_norm_noop_below_threshold() {
        let x = Tensor::parameter(Matrix::from_vec(1, 2, vec![0.0, 0.0]));
        x.accum_grad(&Matrix::from_vec(1, 2, vec![0.3, 0.4]));
        clip_grad_norm(std::slice::from_ref(&x), 1.0);
        assert!(x
            .grad()
            .unwrap()
            .approx_eq(&Matrix::from_vec(1, 2, vec![0.3, 0.4]), 1e-6));
    }
}
