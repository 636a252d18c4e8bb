"""A canary for the numpy random streams that sampled manifests and synthetic
populations are drawn from. Each output byte of `sample` and `synth` follows
from these draws, so a numpy release that changes one of them changes the
outputs; this file says which draw changed, under which numpy.

The generators are built as sampler._stratum_rng (SeedSequence of seed,
granularity, period code and class code) and synth._generate_month
(SeedSequence of seed and month offset) build theirs, and each draw is made
on a fresh generator, as those functions make it.
"""
import numpy as np
import pytest


def _generator(*entropy: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(entropy))))


def _pinned(method: str, got: list, want: list, rtol: float = 0.0) -> None:
    same = np.allclose(got, want, rtol=rtol, atol=0) if rtol else got == want
    assert same, f"numpy {np.__version__} changed Generator.{method}: got {got}, pinned {want}"


@pytest.mark.parametrize(
    "entropy, n, want",
    [
        ((0, 0, 528, 0), 10, [9, 5, 3, 7, 1, 0, 8, 6, 4, 2]),
        ((3, 1, 44, 1), 16, [1, 12, 5, 15, 2, 10, 0, 8, 4, 7, 14, 6, 13, 9, 11, 3]),
        ((3, 1, 10**6, 0), 12, [0, 3, 6, 9, 11, 5, 7, 8, 10, 4, 2, 1]),
        (
            (0, 0, 528, 2),
            40,
            [18, 35, 19, 5, 27, 26, 13, 21, 29, 11, 9, 8, 39, 17, 31, 33, 34, 24, 12, 2,
             7, 28, 6, 3, 20, 14, 4, 10, 22, 1, 23, 15, 37, 0, 32, 30, 36, 38, 16, 25],
        ),
    ],
)
def test_stratum_permutation(entropy, n, want):
    _pinned("permutation", _generator(*entropy).permutation(n).tolist(), want)


def test_month_integers():
    got = _generator(7, 0).integers(0, 2678400, size=6).tolist()
    _pinned("integers", got, [2530833, 1674255, 1832507, 2403097, 1548898, 2077596])


def test_month_lognormal():
    got = _generator(7, 0).lognormal(mean=np.log(30.0), sigma=0.5, size=4).tolist()
    want = [30.018457976315712, 34.83317197454767, 26.157303759532656, 19.219040152977353]
    # exp() may round differently by a unit in the last place from one libm to another
    _pinned("lognormal", got, want, rtol=1e-12)


def test_month_random():
    got = _generator(7, 0).random(4).tolist()
    _pinned("random", got, [0.625095466604667, 0.8972138009695755, 0.7756856902451935, 0.22520718999059186])


def test_month_choice_with_weights():
    got = _generator(7, 0).choice(3, size=8, p=np.array([0.7, 0.2, 0.1])).tolist()
    _pinned("choice(p=...)", got, [0, 1, 1, 0, 0, 1, 0, 1])


def test_month_choice():
    got = _generator(7, 0).choice(5, size=8).tolist()
    _pinned("choice", got, [4, 3, 3, 4, 2, 3, 4, 1])
