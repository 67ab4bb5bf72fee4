//! Network building blocks: [`Linear`] layers and [`Mlp`] stacks.
//!
//! Parameter ownership stays with the layer; to run a training forward pass
//! the layer is *bound* to a [`Tape`] (trainably via [`Module::bind`] or
//! frozen via [`Module::bind_frozen`]), which pushes its parameters as tape
//! nodes in a fixed, documented order. Inference ([`Mlp::features`]) runs
//! the tape-free forward of `infer.rs` instead, with the same bits.

use rand::Rng;

use taglets_tensor::{Init, Tape, Tensor, Var};

/// A set of named parameters that can be bound to a [`Tape`].
///
/// The order of [`Module::parameters`] defines the binding order and the
/// positional pairing used by optimizers.
pub trait Module {
    /// Immutable views of all parameters, in binding order.
    fn parameters(&self) -> Vec<&Tensor>;

    /// Mutable views of all parameters, in the same order.
    fn parameters_mut(&mut self) -> Vec<&mut Tensor>;

    /// Number of scalar parameters in the module.
    fn num_scalars(&self) -> usize {
        self.parameters().iter().map(|p| p.numel()).sum()
    }

    /// Pushes every parameter onto `tape` as a trainable leaf.
    fn bind(&self, tape: &mut Tape) -> Vec<Var> {
        self.parameters()
            .into_iter()
            .map(|p| tape.leaf(p.clone()))
            .collect()
    }

    /// Pushes every parameter onto `tape` as a constant (no gradients).
    fn bind_frozen(&self, tape: &mut Tape) -> Vec<Var> {
        self.parameters()
            .into_iter()
            .map(|p| tape.constant(p.clone()))
            .collect()
    }
}

/// Two modules trained jointly (a shared encoder and an extra head, say)
/// bind as one: `a`'s parameters, then `b`'s.
impl<A: Module, B: Module> Module for (A, B) {
    fn parameters(&self) -> Vec<&Tensor> {
        let mut p = self.0.parameters();
        p.extend(self.1.parameters());
        p
    }

    fn parameters_mut(&mut self) -> Vec<&mut Tensor> {
        let (a, b) = self;
        let mut p = a.parameters_mut();
        p.extend(b.parameters_mut());
        p
    }
}

/// A fully-connected layer `y = xW + b`.
///
/// Binding order: `[w, b]`.
///
/// # Examples
///
/// ```
/// use taglets_nn::{Linear, Module};
/// use taglets_tensor::{Tape, Tensor};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let layer = Linear::new(4, 2, &mut rng);
/// let mut tape = Tape::new();
/// let vars = layer.bind(&mut tape);
/// let x = tape.constant(Tensor::zeros(&[3, 4]));
/// let y = layer.forward(&mut tape, &vars, x);
/// assert_eq!(tape.value(y).shape(), &[3, 2]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    w: Tensor,
    b: Tensor,
}

impl Linear {
    /// A new layer with Kaiming-normal weights and zero bias.
    pub fn new<R: Rng + ?Sized>(fan_in: usize, fan_out: usize, rng: &mut R) -> Self {
        Linear::with_init(fan_in, fan_out, Init::KaimingNormal, rng)
    }

    /// A new layer with an explicit initialiser.
    pub fn with_init<R: Rng + ?Sized>(
        fan_in: usize,
        fan_out: usize,
        init: Init,
        rng: &mut R,
    ) -> Self {
        Linear {
            w: init.weight(fan_in, fan_out, rng),
            b: init.bias(fan_out),
        }
    }

    /// Builds a layer from explicit weight and bias tensors.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not rank 2 or `b` length differs from `w` columns.
    pub fn from_parts(w: Tensor, b: Tensor) -> Self {
        assert_eq!(w.rank(), 2, "weight must be rank 2");
        assert_eq!(w.cols(), b.numel(), "bias must match output width");
        Linear { w, b }
    }

    /// Input width.
    pub fn fan_in(&self) -> usize {
        self.w.rows()
    }

    /// Output width.
    pub fn fan_out(&self) -> usize {
        self.w.cols()
    }

    /// The weight matrix `[fan_in, fan_out]`.
    pub fn weight(&self) -> &Tensor {
        &self.w
    }

    /// The bias vector `[fan_out]`.
    pub fn bias(&self) -> &Tensor {
        &self.b
    }

    /// Replaces the weight matrix (used by ZSL-KG to install predicted
    /// class representations as head weights).
    ///
    /// # Panics
    ///
    /// Panics if the new weight's shape differs.
    pub fn set_weight(&mut self, w: Tensor) {
        assert_eq!(
            w.shape(),
            self.w.shape(),
            "replacement weight shape mismatch"
        );
        self.w = w;
    }

    /// Forward pass `xW + b` using vars produced by `bind`/`bind_frozen`.
    pub fn forward(&self, tape: &mut Tape, vars: &[Var], x: Var) -> Var {
        debug_assert_eq!(vars.len(), 2, "Linear binds exactly [w, b]");
        let y = tape.matmul(x, vars[0]);
        tape.add_row(y, vars[1])
    }
}

impl Module for Linear {
    fn parameters(&self) -> Vec<&Tensor> {
        vec![&self.w, &self.b]
    }

    fn parameters_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.w, &mut self.b]
    }
}

/// Nonlinearity applied after each [`Mlp`] layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activation {
    /// Rectified linear unit (the default, matching CNN feature maps).
    #[default]
    Relu,
    /// Hyperbolic tangent (smooth; used where gradients are finite-difference
    /// checked and by the GNN in `taglets-graph`).
    Tanh,
}

/// A multi-layer perceptron with a pointwise activation between layers and
/// optional inverted dropout after each hidden activation.
///
/// This is the stand-in for the paper's convolutional backbones: the input is
/// a flat "image" vector and the output is a feature embedding.
///
/// Binding order: `[w0, b0, w1, b1, ...]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Linear>,
    dropout: f32,
    activation: Activation,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `[32, 64, 32]` for
    /// one hidden layer, using ReLU activations.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given or `dropout ∉ [0, 1)`.
    pub fn new<R: Rng + ?Sized>(dims: &[usize], dropout: f32, rng: &mut R) -> Self {
        Mlp::with_activation(dims, dropout, Activation::Relu, rng)
    }

    /// Builds an MLP with an explicit activation function.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given or `dropout ∉ [0, 1)`.
    pub fn with_activation<R: Rng + ?Sized>(
        dims: &[usize],
        dropout: f32,
        activation: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least input and output widths"
        );
        assert!((0.0..1.0).contains(&dropout), "dropout must be in [0,1)");
        let layers = dims
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], rng))
            .collect();
        Mlp {
            layers,
            dropout,
            activation,
        }
    }

    /// Assembles an MLP from explicit layers (used by deserialization).
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty, consecutive widths disagree, or
    /// `dropout ∉ [0, 1)`.
    pub fn from_layers(layers: Vec<Linear>, dropout: f32, activation: Activation) -> Self {
        assert!(!layers.is_empty(), "an MLP needs at least one layer");
        assert!((0.0..1.0).contains(&dropout), "dropout must be in [0,1)");
        for pair in layers.windows(2) {
            assert_eq!(
                pair[0].fan_out(),
                pair[1].fan_in(),
                "layer widths must chain"
            );
        }
        Mlp {
            layers,
            dropout,
            activation,
        }
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.layers[0].fan_in() // lint: panicfree(both constructors reject empty layer lists)
    }

    /// Output (feature) width.
    pub fn output_dim(&self) -> usize {
        // Both constructors reject empty layer lists, so the fallback arm is
        // unreachable; 0 keeps the accessor total without a panic path.
        self.layers.last().map_or(0, Linear::fan_out)
    }

    /// Number of linear layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// The linear layers, in forward order (read-only; used by the
    /// tape-free inference forward).
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// The activation applied after every layer.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Forward pass. `training` enables dropout; `rng` drives the masks.
    ///
    /// ReLU is applied after every layer *including the last*, so features
    /// are non-negative — mirroring a post-activation CNN feature map.
    pub fn forward<R: Rng + ?Sized>(
        &self,
        tape: &mut Tape,
        vars: &[Var],
        x: Var,
        training: bool,
        rng: &mut R,
    ) -> Var {
        debug_assert_eq!(
            vars.len(),
            2 * self.layers.len(),
            "MLP binds 2 vars per layer"
        );
        let mut h = x;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(tape, &vars[2 * i..2 * i + 2], h);
            h = match self.activation {
                Activation::Relu => tape.relu(h),
                Activation::Tanh => tape.tanh(h),
            };
            if self.dropout > 0.0 && i + 1 < self.layers.len() {
                h = tape.dropout(h, self.dropout, training, rng);
            }
        }
        h
    }

    /// Inference-only feature extraction, via the tape-free forward in
    /// `infer.rs` (dropout off).
    pub fn features(&self, x: &Tensor) -> Tensor {
        crate::infer::inference_forward(self, None, x, None, &mut crate::InferScratch::new())
    }
}

impl Module for Mlp {
    fn parameters(&self) -> Vec<&Tensor> {
        self.layers.iter().flat_map(|l| l.parameters()).collect()
    }

    fn parameters_mut(&mut self) -> Vec<&mut Tensor> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.parameters_mut())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use taglets_tensor::check_gradients;

    #[test]
    fn linear_forward_shape_and_value() {
        let layer = Linear::from_parts(
            Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]),
            Tensor::from_vec(vec![1.0, -1.0]),
        );
        let mut tape = Tape::new();
        let vars = layer.bind_frozen(&mut tape);
        let x = tape.constant(Tensor::from_rows(&[&[2.0, 3.0]]));
        let y = layer.forward(&mut tape, &vars, x);
        assert_eq!(tape.value(y).data(), &[3.0, 2.0]);
    }

    #[test]
    fn mlp_output_dim_and_nonnegativity() {
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = Mlp::new(&[8, 16, 4], 0.0, &mut rng);
        let x = Tensor::randn(&[5, 8], 1.0, &mut rng);
        let f = mlp.features(&x);
        assert_eq!(f.shape(), &[5, 4]);
        assert!(f.data().iter().all(|&v| v >= 0.0), "post-ReLU features");
    }

    #[test]
    fn mlp_parameter_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let mlp = Mlp::new(&[8, 16, 4], 0.0, &mut rng);
        // (8*16 + 16) + (16*4 + 4)
        assert_eq!(mlp.num_scalars(), 8 * 16 + 16 + 16 * 4 + 4);
        assert_eq!(mlp.parameters().len(), 4);
    }

    #[test]
    fn mlp_gradients_match_finite_differences() {
        // Tanh activation: smooth everywhere, so central differences are
        // reliable (ReLU kinks would poison the comparison).
        let mut rng = StdRng::seed_from_u64(2);
        let mlp = Mlp::with_activation(&[3, 5, 2], 0.0, Activation::Tanh, &mut rng);
        let x = Tensor::randn(&[4, 3], 1.0, &mut rng);
        // Check the first layer's weight.
        let w0 = mlp.parameters()[0].clone();
        let report = check_gradients(&w0, 1e-2, |value| {
            let mut probe = mlp.clone();
            *probe.parameters_mut()[0] = value.clone();
            let mut tape = Tape::new();
            let vars = probe.bind(&mut tape);
            let xv = tape.constant(x.clone());
            let mut r = StdRng::seed_from_u64(0);
            let out = probe.forward(&mut tape, &vars, xv, false, &mut r);
            let loss = tape.mean(out);
            (tape, vars[0], loss)
        });
        assert!(report.passes(5e-2), "{report:?}");
    }

    #[test]
    fn frozen_binding_yields_no_gradients() {
        let mut rng = StdRng::seed_from_u64(3);
        let mlp = Mlp::new(&[3, 4], 0.0, &mut rng);
        let mut tape = Tape::new();
        let vars = mlp.bind_frozen(&mut tape);
        let x = tape.constant(Tensor::randn(&[2, 3], 1.0, &mut rng));
        let out = mlp.forward(&mut tape, &vars, x, false, &mut rng);
        let loss = tape.mean(out);
        let grads = tape.backward(loss);
        assert!(grads.get(vars[0]).is_none());
    }

    #[test]
    fn set_weight_validates_shape() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut layer = Linear::new(3, 2, &mut rng);
        layer.set_weight(Tensor::zeros(&[3, 2]));
        assert!(layer.weight().data().iter().all(|&v| v == 0.0));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            layer.set_weight(Tensor::zeros(&[2, 3]));
        }));
        assert!(result.is_err());
    }
}
