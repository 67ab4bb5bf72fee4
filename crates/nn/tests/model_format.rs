//! Pins the on-disk model format with checked-in bytes.
//!
//! Round-trip tests only show that a writer and reader agree with each
//! other; they cannot notice a change to the layout both sides share. The
//! fixture `fixtures/classifier_v2.bin` is the `TAGLETS2` file of the model
//! built by [`fixture_model`], so any change to the byte layout, the
//! parameter order or the activation encoding fails here.

use rand::{rngs::StdRng, SeedableRng};
use taglets_nn::{load_classifier, save_classifier, Classifier, Linear, Mlp, Module};
use taglets_tensor::Tensor;

const FIXTURE: &[u8] = include_bytes!("fixtures/classifier_v2.bin");

/// The model the fixture holds. The head is drawn at random rather than
/// zero-initialised as `Classifier::from_dims` does, so the prediction
/// check below depends on every parameter, not only on the backbone.
fn fixture_model() -> Classifier {
    let mut rng = StdRng::seed_from_u64(2022);
    let backbone = Mlp::new(&[6, 10, 4], 0.0, &mut rng);
    let head = Linear::new(4, 3, &mut rng);
    Classifier::from_parts(backbone, head)
}

#[test]
fn saving_the_fixture_model_reproduces_the_checked_in_bytes() {
    let mut buf = Vec::new();
    save_classifier(&fixture_model(), &mut buf).unwrap();
    assert_eq!(buf.len(), FIXTURE.len());
    assert!(buf == FIXTURE, "saved bytes differ from the fixture");
}

#[test]
fn resaving_the_loaded_fixture_reproduces_its_bytes() {
    let loaded = load_classifier(FIXTURE).unwrap();
    let mut buf = Vec::new();
    save_classifier(&loaded, &mut buf).unwrap();
    assert_eq!(buf.len(), FIXTURE.len());
    assert!(buf == FIXTURE, "re-saved bytes differ from the fixture");
}

#[test]
fn loading_the_fixture_reproduces_tape_predictions_bitwise() {
    let model = fixture_model();
    let loaded = load_classifier(FIXTURE).unwrap();
    assert_eq!(loaded.parameters(), model.parameters());
    let x = Tensor::randn(&[16, 6], 1.0, &mut StdRng::seed_from_u64(7));
    let (expect, got) = (model.predict_proba(&x), loaded.predict_proba(&x));
    assert_eq!(got.shape(), expect.shape());
    assert!(got
        .data()
        .iter()
        .zip(expect.data())
        .all(|(a, b)| a.to_bits() == b.to_bits()));
}
