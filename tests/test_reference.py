"""Step and clip outputs of the bundled configs against committed references.

``tests/data/reference.npz`` is written by ``scripts/make_reference.py``;
outputs are compared within 1e-6 of each output's largest magnitude, not
bit for bit, because BLAS rounding varies by build.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from conftest import max_rel_dev

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "tests" / "data" / "reference.npz"
CONFIGS = sorted(p.stem for p in (ROOT / "configs").glob("*.json"))
TOL = 1e-6


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("make_reference",
                                                  ROOT / "scripts" / "make_reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def outputs(script):
    return script.reference_outputs()


@pytest.fixture(scope="module")
def reference():
    with np.load(REFERENCE) as ref:
        return dict(ref)


def test_reference_covers_every_config_dtype_and_mode(outputs, reference):
    assert set(reference) == set(outputs) == {
        f"{c}/{dt}/{mode}" for c in CONFIGS for dt in ("f32", "f64") for mode in ("step", "clip")}
    assert all(len(a) for a in reference.values())  # every config emits


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("mode", ["step", "clip"])
def test_outputs_match_the_reference(outputs, reference, config, dtype, mode):
    name = f"{config}/{dtype}/{mode}"
    y, ref = outputs[name], reference[name]
    assert y.shape == ref.shape and y.dtype == ref.dtype
    assert np.isfinite(y).all()
    assert max_rel_dev(y, ref) <= TOL, name


def test_compare_reports_identical_moved_and_missing_keys(script):
    ref = {"a/f32/step": np.array([1.0, -2.0], np.float32),
           "b/f64/clip": np.array([[4.0, 0.5]]),
           "c/f32/clip": np.zeros(2, np.float32),
           "gone/f32/step": np.ones(1, np.float32)}
    new = {"a/f32/step": ref["a/f32/step"].copy(),
           "b/f64/clip": np.array([[4.0, 0.5 + 2e-3]]),
           "c/f32/clip": np.zeros(3, np.float32),
           "added/f64/clip": np.ones(1)}
    assert script.compare(new, ref) == {
        "a/f32/step": "bit-identical",
        "added/f64/clip": "missing from the reference",
        "b/f64/clip": pytest.approx(5e-4, rel=1e-9),
        "c/f32/clip": "(3,) float32 against reference (2,) float32",
        "gone/f32/step": "missing from the outputs",
    }
    # -0.0 == 0.0 but its bits differ: a move of 0, not bit-identical
    assert script.compare({"z": np.array([-0.0])}, {"z": np.array([0.0])}) == {"z": 0.0}
