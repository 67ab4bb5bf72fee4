//! Model serialization — saving and loading classifiers without external
//! dependencies.
//!
//! The paper's motivation is producing classifiers that can be *served*;
//! serving requires persisting them. The format is a small, versioned binary
//! layout: a magic tag, the backbone activation (v2), the layer widths, and
//! little-endian `f32` parameter buffers in [`Module::parameters`] order.
//!
//! Version history:
//!
//! * `TAGLETS1` — dims + params only; the activation was never written, so
//!   every v1 file is a ReLU model by construction (loading hardcoded ReLU).
//! * `TAGLETS2` — one activation byte after the magic, then the v1 layout.
//!   Writers emit v2; readers accept both.

use std::io::{self, Read, Write};

use crate::{Activation, Classifier, Linear, Mlp, Module};
use taglets_tensor::Tensor;

/// Legacy format tag: no activation byte, always a ReLU backbone.
const MAGIC_V1: &[u8; 8] = b"TAGLETS1";
/// Current format tag: activation byte follows the magic.
const MAGIC_V2: &[u8; 8] = b"TAGLETS2";

/// Wire encoding of [`Activation`] in v2 headers.
fn activation_to_byte(a: Activation) -> u8 {
    match a {
        Activation::Relu => 0,
        Activation::Tanh => 1,
    }
}

fn activation_from_byte(b: u8) -> Option<Activation> {
    match b {
        0 => Some(Activation::Relu),
        1 => Some(Activation::Tanh),
        _ => None,
    }
}

/// Largest layer width a well-formed model file may declare. Every model in
/// the workspace is orders of magnitude below this; the cap exists so a
/// corrupted header cannot request an absurd allocation.
const MAX_LAYER_WIDTH: usize = 1 << 20;

/// Largest single parameter tensor (in scalars) a model file may declare
/// (64M scalars = 256 MB) — the per-tensor allocation guard behind
/// [`load_classifier`].
const MAX_TENSOR_SCALARS: usize = 1 << 26;

/// Writes a classifier to `w`.
///
/// # Errors
///
/// Propagates any I/O error from the writer.
pub fn save_classifier<W: Write>(clf: &Classifier, mut w: W) -> io::Result<()> {
    w.write_all(MAGIC_V2)?;
    let backbone = clf.backbone();
    w.write_all(&[activation_to_byte(backbone.activation())])?;
    // Layer widths: backbone dims then head output.
    let mut dims = vec![backbone.input_dim() as u32];
    // Recover hidden widths from parameter shapes (w matrices are [in, out]).
    for p in backbone.parameters().iter().step_by(2) {
        dims.push(p.cols() as u32);
    }
    dims.push(clf.num_classes() as u32);
    w.write_all(&(dims.len() as u32).to_le_bytes())?;
    for d in &dims {
        w.write_all(&d.to_le_bytes())?;
    }
    for p in clf.parameters() {
        for &v in p.data() {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Reads a classifier previously written by [`save_classifier`].
///
/// # Errors
///
/// Returns `InvalidData` if the magic tag or layout is malformed or any
/// parameter is NaN or infinite, and propagates reader I/O errors. Accepts both the current `TAGLETS2` format
/// and legacy `TAGLETS1` files (which are always ReLU models — v1 never
/// stored the activation and every v1 writer produced ReLU backbones).
pub fn load_classifier<R: Read>(mut r: R) -> io::Result<Classifier> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    let activation = if &magic == MAGIC_V2 {
        let mut abyte = [0u8; 1];
        r.read_exact(&mut abyte)?;
        activation_from_byte(abyte[0])
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unknown activation byte"))?
    } else if &magic == MAGIC_V1 {
        Activation::Relu
    } else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a TAGLETS model file",
        ));
    };
    let mut u32buf = [0u8; 4];
    r.read_exact(&mut u32buf)?;
    let n_dims = u32::from_le_bytes(u32buf) as usize;
    if !(3..=64).contains(&n_dims) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "implausible layer count",
        ));
    }
    let mut dims = Vec::with_capacity(n_dims);
    for _ in 0..n_dims {
        r.read_exact(&mut u32buf)?;
        dims.push(u32::from_le_bytes(u32buf) as usize);
    }
    if dims.contains(&0) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "zero-width layer",
        ));
    }
    // Cap plausible layer widths *before* sizing any buffer: a corrupted
    // header must produce `InvalidData`, never a multi-gigabyte allocation.
    if dims.iter().any(|&d| d > MAX_LAYER_WIDTH) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "implausible layer width",
        ));
    }

    let mut read_tensor = |shape: &[usize]| -> io::Result<Tensor> {
        let numel: usize = shape.iter().product();
        if numel > MAX_TENSOR_SCALARS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "implausible tensor size",
            ));
        }
        let mut data = vec![0f32; numel];
        let mut fbuf = [0u8; 4];
        for v in data.iter_mut() {
            r.read_exact(&mut fbuf)?;
            *v = f32::from_le_bytes(fbuf);
            // No trained model holds a non-finite weight; one here means a
            // corrupted file that would otherwise serve NaN probabilities.
            if !v.is_finite() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "non-finite parameter",
                ));
            }
        }
        Tensor::from_shape(shape.to_vec(), data)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    };

    // Backbone: dims[0..n-1]; head: dims[n-2] → dims[n-1].
    let backbone_dims = &dims[..dims.len() - 1];
    let mut layers = Vec::new();
    for pair in backbone_dims.windows(2) {
        let w = read_tensor(&[pair[0], pair[1]])?;
        let b = read_tensor(&[pair[1]])?;
        layers.push(Linear::from_parts(w, b));
    }
    let head_w = read_tensor(&[dims[dims.len() - 2], dims[dims.len() - 1]])?;
    let head_b = read_tensor(&[dims[dims.len() - 1]])?;

    let backbone = Mlp::from_layers(layers, 0.0, activation);
    Ok(Classifier::from_parts(
        backbone,
        Linear::from_parts(head_w, head_b),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn classifier_round_trips_exactly() {
        let mut rng = StdRng::seed_from_u64(0);
        let clf = Classifier::from_dims(&[6, 10, 4], 3, 0.0, &mut rng);
        let mut buf = Vec::new();
        save_classifier(&clf, &mut buf).unwrap();
        let loaded = load_classifier(buf.as_slice()).unwrap();
        let x = Tensor::randn(&[5, 6], 1.0, &mut rng);
        assert_eq!(clf.logits(&x), loaded.logits(&x));
        assert_eq!(clf.parameters(), loaded.parameters());
        assert_eq!(loaded.backbone().activation(), Activation::Relu);
    }

    #[test]
    fn tanh_backbone_round_trips_with_its_activation() {
        // v1 could not represent this model at all: it hardcoded ReLU on
        // load, which silently changes a Tanh network's predictions.
        let mut rng = StdRng::seed_from_u64(4);
        let backbone = Mlp::with_activation(&[5, 9, 6], 0.0, Activation::Tanh, &mut rng);
        let clf = Classifier::new(backbone, 3, &mut rng);
        let mut buf = Vec::new();
        save_classifier(&clf, &mut buf).unwrap();
        let loaded = load_classifier(buf.as_slice()).unwrap();
        assert_eq!(loaded.backbone().activation(), Activation::Tanh);
        let x = Tensor::randn(&[7, 5], 1.0, &mut rng);
        assert_eq!(clf.logits(&x), loaded.logits(&x));
    }

    #[test]
    fn legacy_v1_files_still_load_as_relu_models() {
        // Reconstruct a v1 file from a v2 one: swap the magic and drop the
        // activation byte. This is byte-for-byte what v1 writers produced.
        let mut rng = StdRng::seed_from_u64(5);
        let clf = Classifier::from_dims(&[6, 10, 4], 3, 0.0, &mut rng);
        let mut v2 = Vec::new();
        save_classifier(&clf, &mut v2).unwrap();
        let mut v1 = Vec::new();
        v1.extend_from_slice(MAGIC_V1);
        v1.extend_from_slice(&v2[MAGIC_V2.len() + 1..]);
        let loaded = load_classifier(v1.as_slice()).unwrap();
        assert_eq!(loaded.backbone().activation(), Activation::Relu);
        assert_eq!(clf.parameters(), loaded.parameters());
    }

    #[test]
    fn unknown_activation_byte_is_rejected() {
        let mut rng = StdRng::seed_from_u64(6);
        let clf = Classifier::from_dims(&[4, 4], 2, 0.0, &mut rng);
        let mut buf = Vec::new();
        save_classifier(&clf, &mut buf).unwrap();
        buf[MAGIC_V2.len()] = 0x7F;
        let err = load_classifier(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let buf = b"NOTAMODL____".to_vec();
        let err = load_classifier(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn implausible_header_dims_are_rejected_before_allocating() {
        // A header that claims two 2^24-wide layers would ask for a
        // petabyte-scale weight matrix; loading must fail fast instead.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC_V2);
        buf.push(0); // activation byte: ReLU
        buf.extend_from_slice(&3u32.to_le_bytes());
        for d in [1u32 << 24, 1 << 24, 4] {
            buf.extend_from_slice(&d.to_le_bytes());
        }
        let err = load_classifier(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn non_finite_parameters_are_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        let clf = Classifier::from_dims(&[4, 4], 2, 0.0, &mut rng);
        let mut buf = Vec::new();
        save_classifier(&clf, &mut buf).unwrap();
        let last = buf.len() - 4;
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            buf[last..].copy_from_slice(&bad.to_le_bytes());
            let err = load_classifier(buf.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bad}");
        }
    }

    #[test]
    fn truncated_file_is_an_error_not_a_panic() {
        let mut rng = StdRng::seed_from_u64(1);
        let clf = Classifier::from_dims(&[4, 4], 2, 0.0, &mut rng);
        let mut buf = Vec::new();
        save_classifier(&clf, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(load_classifier(buf.as_slice()).is_err());
    }
}
