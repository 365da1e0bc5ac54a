//! Sequential multi-layer perceptrons built from dense layers.

use serde::{Deserialize, Serialize};

use crate::activation::Activation;
use crate::layer::{Dense, LayerCache, LayerGradients};
use crate::loss::{mse, mse_gradient};

/// A sequential stack of [`Dense`] layers.
///
/// # Examples
///
/// ```
/// use mavfi_nn::activation::Activation;
/// use mavfi_nn::network::Mlp;
///
/// let mlp = Mlp::builder(4)
///     .layer(8, Activation::Relu)
///     .layer(2, Activation::Identity)
///     .build(42);
/// assert_eq!(mlp.forward(&[0.1, 0.2, 0.3, 0.4]).len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
}

/// Gradients for every layer of an [`Mlp`], in layer order.
#[derive(Debug, Clone, PartialEq)]
pub struct Gradients {
    /// Per-layer parameter gradients.
    pub layers: Vec<LayerGradients>,
}

/// Builder collecting the layer sizes of an [`Mlp`].
#[derive(Debug, Clone)]
pub struct MlpBuilder {
    input_dim: usize,
    layers: Vec<(usize, Activation)>,
}

/// Reusable forward-pass scratch: two ping-pong activation buffers sized to
/// the widest layer, so [`Mlp::forward_into`] performs no heap allocation
/// once the buffers have grown to capacity (after the first call).
///
/// One scratch serves any number of networks; buffers grow to the widest
/// layer seen.  Scratches hold no semantic state — a fresh one produces the
/// same results as a reused one.
#[derive(Debug, Clone, Default)]
pub struct MlpScratch {
    current: Vec<f64>,
    next: Vec<f64>,
}

impl MlpScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

impl MlpBuilder {
    /// Appends a dense layer with `output_dim` neurons.
    pub fn layer(mut self, output_dim: usize, activation: Activation) -> Self {
        self.layers.push((output_dim, activation));
        self
    }

    /// Builds the network, initialising weights deterministically from
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if no layers were added.
    pub fn build(self, seed: u64) -> Mlp {
        assert!(!self.layers.is_empty(), "an MLP needs at least one layer");
        let mut layers = Vec::with_capacity(self.layers.len());
        let mut input_dim = self.input_dim;
        for (index, (output_dim, activation)) in self.layers.into_iter().enumerate() {
            layers.push(Dense::new(
                input_dim,
                output_dim,
                activation,
                seed.wrapping_add(index as u64),
            ));
            input_dim = output_dim;
        }
        Mlp { layers }
    }
}

impl Mlp {
    /// Starts building a network with the given input dimension.
    pub fn builder(input_dim: usize) -> MlpBuilder {
        MlpBuilder { input_dim, layers: Vec::new() }
    }

    /// The network's input dimension.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map_or(0, Dense::input_dim)
    }

    /// The network's output dimension.
    pub fn output_dim(&self) -> usize {
        self.layers.last().map_or(0, Dense::output_dim)
    }

    /// The layers, in order.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Mutable access to the layers (used by optimizers).
    pub fn layers_mut(&mut self) -> &mut [Dense] {
        &mut self.layers
    }

    /// Total number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers
            .iter()
            .map(|layer| layer.input_dim() * layer.output_dim() + layer.output_dim())
            .sum()
    }

    /// Forward pass.
    pub fn forward(&self, input: &[f64]) -> Vec<f64> {
        let mut current = input.to_vec();
        for layer in &self.layers {
            current = layer.forward(&current);
        }
        current
    }

    /// Forward pass through caller-provided scratch buffers: the
    /// allocation-free counterpart of [`Mlp::forward`], bit-identical in its
    /// results.  Returns the output activations as a slice into `scratch`,
    /// valid until the next use of the scratch.
    pub fn forward_into<'scratch>(
        &self,
        input: &[f64],
        scratch: &'scratch mut MlpScratch,
    ) -> &'scratch [f64] {
        let MlpScratch { current, next } = scratch;
        current.clear();
        current.extend_from_slice(input);
        for layer in &self.layers {
            layer.forward_into(current, next);
            std::mem::swap(current, next);
        }
        current
    }

    fn forward_cached(&self, input: &[f64]) -> Vec<LayerCache> {
        let mut caches = Vec::with_capacity(self.layers.len());
        let mut current = input.to_vec();
        for layer in &self.layers {
            let cache = layer.forward_cached(&current);
            current = cache.output.clone();
            caches.push(cache);
        }
        caches
    }

    /// Computes the MSE loss of reconstructing `target` from `input` and the
    /// parameter gradients via back-propagation.
    pub fn loss_and_gradients(&self, input: &[f64], target: &[f64]) -> (f64, Gradients) {
        let caches = self.forward_cached(input);
        let output = &caches.last().expect("network has layers").output;
        let loss = mse(output, target);
        let mut gradient = mse_gradient(output, target);
        let mut layer_gradients = vec![None; self.layers.len()];
        for (index, (layer, cache)) in self.layers.iter().zip(&caches).enumerate().rev() {
            let (grads, input_gradient) = layer.backward(cache, &gradient);
            layer_gradients[index] = Some(grads);
            gradient = input_gradient;
        }
        let layers = layer_gradients.into_iter().map(|g| g.expect("filled in loop")).collect();
        (loss, Gradients { layers })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_constructs_expected_shape() {
        let mlp = Mlp::builder(13)
            .layer(6, Activation::Relu)
            .layer(3, Activation::Relu)
            .layer(13, Activation::Identity)
            .build(0);
        assert_eq!(mlp.input_dim(), 13);
        assert_eq!(mlp.output_dim(), 13);
        assert_eq!(mlp.layers().len(), 3);
        assert_eq!(mlp.parameter_count(), 13 * 6 + 6 + 6 * 3 + 3 + 3 * 13 + 13);
    }

    #[test]
    fn full_network_gradient_matches_numerical() {
        let mut mlp =
            Mlp::builder(3).layer(4, Activation::Tanh).layer(3, Activation::Identity).build(3);
        let input = [0.25, -0.5, 0.75];
        let target = [0.0, 1.0, -1.0];
        let (_, grads) = mlp.loss_and_gradients(&input, &target);

        let eps = 1e-6;
        // Check a handful of weights in each layer.
        for layer_index in 0..2 {
            for row in 0..mlp.layers()[layer_index].output_dim() {
                for col in 0..mlp.layers()[layer_index].input_dim() {
                    let original = mlp.layers()[layer_index].weights().get(row, col);
                    *mlp.layers_mut()[layer_index].weights_mut().get_mut(row, col) = original + eps;
                    let plus = crate::loss::mse(&mlp.forward(&input), &target);
                    *mlp.layers_mut()[layer_index].weights_mut().get_mut(row, col) = original - eps;
                    let minus = crate::loss::mse(&mlp.forward(&input), &target);
                    *mlp.layers_mut()[layer_index].weights_mut().get_mut(row, col) = original;
                    let numeric = (plus - minus) / (2.0 * eps);
                    let analytic = grads.layers[layer_index].weights.get(row, col);
                    assert!(
                        (numeric - analytic).abs() < 1e-5,
                        "layer {layer_index} ({row},{col}): {numeric} vs {analytic}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn empty_builder_panics() {
        let _ = Mlp::builder(3).build(0);
    }
}
