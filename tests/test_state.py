"""Tests for state merging, decomposition with structural selection, and
entropy bookkeeping."""

import warnings

import numpy as np
import pytest

import treetn.state
from conftest import random_isometry
from treetn.errors import NumericalError
from treetn.linalg import cut_spectrum, entanglement_entropy, full_svd, spectrum_cut
from treetn.state import (
    PAIRINGS,
    TTNState,
    _renyi2_entropy,
    cooled_temperature,
    decompose_tensor,
    isometry_defect,
    merge_center,
    selection_probabilities,
    site_ee,
)
from treetn.topology import Topology


def bell_pair_state():
    """Two 'diagonal copy' isometries with flat weights: Schmidt across the
    center is a pair of equal values."""
    v = np.zeros((2, 2, 2))
    v[0, 0, 0] = v[1, 1, 1] = 1.0
    topo = Topology(n_sites=4, edges=[[0, 1, 4], [2, 3, 4]], center=4)
    w = np.full(2, 2**-0.5)
    return TTNState(topology=topo, tensors=[v, v.copy()], center_weights=w)


class TestMergeCenter:
    def test_product_isometries(self):
        a = np.zeros((2, 3, 1))
        a[1, 2, 0] = 1.0
        b = np.zeros((2, 2, 1))
        b[0, 1, 0] = 1.0
        topo = Topology(n_sites=4, edges=[[0, 1, 4], [2, 3, 4]], center=4)
        state = TTNState(topology=topo, tensors=[a, b], center_weights=np.ones(1))
        psi = merge_center(state, 0, 1)
        expected = np.zeros((2, 3, 2, 2))
        expected[1, 2, 0, 1] = 1.0
        np.testing.assert_allclose(psi, expected)

    def test_bell_schmidt_values(self):
        state = bell_pair_state()
        psi = merge_center(state, 0, 1)
        vals = full_svd(psi.reshape(4, 4)).values
        np.testing.assert_allclose(vals[:2], [2**-0.5, 2**-0.5], atol=1e-14)

    def test_random_canonical_norm(self, rng):
        v1 = random_isometry(rng, 2, 3, 4)
        v2 = random_isometry(rng, 3, 2, 4)
        w = np.sort(rng.random(4))[::-1]
        w /= np.linalg.norm(w)
        topo = Topology(n_sites=4, edges=[[0, 1, 4], [2, 3, 4]], center=4)
        state = TTNState(topology=topo, tensors=[v1, v2], center_weights=w)
        psi = merge_center(state, 0, 1)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)


def product_tensor(rng, dims=(2, 2, 2, 2)):
    legs = [rng.standard_normal(d) for d in dims]
    psi = np.einsum("a,b,c,d->abcd", *legs)
    return psi / np.linalg.norm(psi)


def rainbow_tensor():
    """Maximal entanglement between legs (0,2) and between (1,3)."""
    bell = np.eye(2) / np.sqrt(2)
    return np.einsum("ac,bd->abcd", bell, bell)


class TestDecompose:
    def test_product_keeps_original(self, rng):
        # every pairing is unentangled, so none can beat pairing 0 by eps_s:
        # both others are ruled out by their Rényi-2 entropy
        psi = product_tensor(rng)
        _, w, _, choice = decompose_tensor(psi, chi=4, mode=1)
        assert choice.pairing == 0
        assert choice.entropies[0] == pytest.approx(0.0, abs=1e-12)
        assert np.isnan(choice.entropies[1:]).all()
        assert len(w) == 1

    def test_rainbow_selects_pairing_two(self):
        # pairing 1 cuts both Bell pairs, a flat spectrum whose Rényi-2
        # entropy equals pairing 0's entropy: it is ruled out
        psi = rainbow_tensor()
        _, _, _, choice = decompose_tensor(psi, chi=4, mode=1)
        assert choice.pairing == 2
        np.testing.assert_allclose(choice.entropies[2], 0.0, atol=1e-12)
        np.testing.assert_allclose(choice.entropies[0], 2 * np.log(2), atol=1e-12)
        assert np.isnan(choice.entropies[1])

    def test_heat_bath_zero_temperature_limit(self, rng):
        psi = rng.standard_normal((2, 2, 2, 2))
        psi /= np.linalg.norm(psi)
        _, _, _, det = decompose_tensor(psi, chi=4, mode=1)
        gen = np.random.Generator(np.random.Philox(5))
        for _ in range(100):
            _, _, _, stoch = decompose_tensor(
                psi, chi=4, mode=1, temperature=1e-12, rng=gen
            )
            assert stoch.pairing == np.argmin(stoch.entropies)
            assert stoch.pairing == det.pairing

    def test_all_pairings_reconstruct(self, rng):
        psi = rng.standard_normal((2, 3, 2, 3))
        psi /= np.linalg.norm(psi)
        for pairing, perm in enumerate(PAIRINGS):
            forced = psi.transpose(perm)
            v_l, w, v_r, _ = decompose_tensor(forced, chi=36, mode=0)
            rebuilt = np.einsum("abc,c,dec->abde", v_l, w, v_r)
            assert np.linalg.norm(rebuilt - forced) < 1e-10

    def test_isometries_and_weights_valid(self, rng):
        psi = rng.standard_normal((3, 2, 3, 2)) + 1j * rng.standard_normal((3, 2, 3, 2))
        psi /= np.linalg.norm(psi)
        v_l, w, v_r, _ = decompose_tensor(psi, chi=4, mode=2)
        assert isometry_defect(v_l) < 1e-10
        assert isometry_defect(v_r) < 1e-10
        assert float(np.sum(w**2)) == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(w) <= 1e-14)

    def test_original_retained_within_eps(self, rng):
        # symmetric tensor: all three pairings have identical entropies
        psi = np.zeros((2, 2, 2, 2))
        psi[0, 0, 0, 0] = psi[1, 1, 1, 1] = 2**-0.5
        _, _, _, choice = decompose_tensor(psi, chi=4, mode=1, eps_s=1e-8)
        assert choice.pairing == 0

    def test_mode2_minimizes_truncation(self):
        psi = rainbow_tensor()
        _, _, _, choice = decompose_tensor(psi, chi=2, mode=2)
        assert choice.pairing == 2
        assert choice.truncation_errors[2] == pytest.approx(0.0, abs=1e-12)
        assert choice.truncation_errors[0] > 0.1

    def test_mode2_entropy_fallback_on_ties(self, rng):
        # chi large enough that no pairing truncates: errors all ~0, EE decides
        psi = rainbow_tensor()
        _, _, _, choice = decompose_tensor(psi, chi=4, mode=2)
        assert choice.pairing == 2

    def test_mode2_product_keeps_original(self):
        """Every pairing of a product tensor is exact and unentangled; the
        entropies differ only by rounding, so mode 2 keeps pairing 0 within
        eps_s, as mode 1 does."""
        rng = np.random.default_rng(11)
        for _ in range(200):
            psi = product_tensor(rng, (2, 3, 2, 3))
            _, _, _, choice = decompose_tensor(psi, chi=4, mode=2)
            assert choice.pairing == 0

    def test_selected_entropy_matches_kept_weights(self, rng):
        psi = rng.standard_normal((2, 2, 2, 2))
        psi /= np.linalg.norm(psi)
        _, w, _, choice = decompose_tensor(psi, chi=2, mode=0)
        assert choice.selected_entropy == pytest.approx(
            entanglement_entropy(w), abs=1e-13
        )

    def test_invalid_chi(self, rng):
        psi = product_tensor(rng)
        with pytest.raises(ValueError):
            decompose_tensor(psi, chi=0)


def counted_svds(monkeypatch):
    """Record every spectrum ``decompose_tensor`` computes: ``"full"`` for
    a full SVD, ``"values"`` for a values-only SVD and ``"gram"`` for values
    from the Gram matrix."""
    calls = []
    real = treetn.state.full_svd

    def full_svd(matrix, vectors=True, gram=False, **kwargs):
        calls.append("full" if vectors else "gram" if gram else "values")
        return real(matrix, vectors=vectors, gram=gram, **kwargs)

    monkeypatch.setattr(treetn.state, "full_svd", full_svd)
    return calls


def oracle_pairings(psi, chi):
    """Entropy and truncation error of each pairing from np.linalg.svd, for
    spectra without ties or zeros."""
    entropies, errors = [], []
    for perm in PAIRINGS:
        d = psi.shape
        mat = psi.transpose(perm).reshape(d[perm[0]] * d[perm[1]], -1)
        w = np.linalg.svd(mat, compute_uv=False) ** 2
        entropies.append(-np.sum(w * np.log(w)))
        errors.append(1.0 - np.sum(w[:chi]))
    return entropies, errors


# the spectra of pairings 1 and 2 that each mode computes for the Bell-pair
# tensors below: mode 1 reads only entropies, from Gram matrices, and rules
# out each pairing whose Rényi-2 entropy already exceeds pairing 0's less
# eps_s (for the rainbow tensor, pairing 1); mode 2 also cuts both
# degeneracy-aware
KEPT_SPECTRA = {1: [], 2: ["values"] * 2}
RAINBOW_SPECTRA = {1: ["gram"], 2: ["values"] * 2}


class TestDecomposeCost:
    """Each mode decomposes only what it reads."""

    def test_mode0_one_full_svd(self, rng, monkeypatch):
        calls = counted_svds(monkeypatch)
        _, _, _, choice = decompose_tensor(rng.standard_normal((2, 3, 2, 3)), chi=2)
        assert calls == ["full"]
        assert choice.pairing == 0
        assert not np.isnan(choice.entropies[0])
        assert not np.isnan(choice.truncation_errors[0])
        assert np.isnan(choice.entropies[1:]).all()
        assert np.isnan(choice.truncation_errors[1:]).all()

    @pytest.mark.parametrize("mode", [1, 2])
    def test_kept_original_one_full_svd(self, monkeypatch, mode):
        # Bell pairs (0,1) and (2,3): pairing 0 is the one without entanglement
        bell = np.eye(2) / np.sqrt(2)
        calls = counted_svds(monkeypatch)
        _, _, _, choice = decompose_tensor(
            np.einsum("ab,cd->abcd", bell, bell), chi=2, mode=mode
        )
        assert choice.pairing == 0
        assert calls == ["full"] + KEPT_SPECTRA[mode]

    @pytest.mark.parametrize("mode", [1, 2])
    def test_reconnect_second_full_svd(self, monkeypatch, mode):
        calls = counted_svds(monkeypatch)
        _, _, _, choice = decompose_tensor(rainbow_tensor(), chi=2, mode=mode)
        assert choice.pairing == 2
        assert calls == ["full"] + RAINBOW_SPECTRA[mode] + ["full"]

    @pytest.mark.parametrize(
        "mode, temperature, spectrum", [(1, 0.5, "gram"), (2, 0.0, "values")])
    def test_every_pairing_evaluated_unscreened(
        self, rng, monkeypatch, mode, temperature, spectrum
    ):
        """Heat-bath selection needs all three entropies and mode 2 the small
        values: neither screens, even where every pairing is unentangled."""
        calls = counted_svds(monkeypatch)
        _, _, _, choice = decompose_tensor(
            product_tensor(rng), chi=2, mode=mode, temperature=temperature, rng=rng
        )
        # all three entropies tie, so the sampled pairing may need its full SVD
        assert calls == ["full", spectrum, spectrum] + ["full"] * (choice.pairing != 0)
        assert not np.isnan(choice.entropies).any()
        assert not np.isnan(choice.truncation_errors).any()

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_entries_checked_once(self, monkeypatch, mode):
        """Every entry is checked for finiteness once, before the first
        LAPACK call, however many pairings are split."""
        checks = []
        isfinite = np.isfinite

        def counted(a):
            checks.append(a.size)
            return isfinite(a)

        monkeypatch.setattr(np, "isfinite", counted)
        psi = rainbow_tensor()
        with warnings.catch_warnings():  # pairing 0 straddles the cap
            warnings.simplefilter("ignore", RuntimeWarning)
            _, _, _, choice = decompose_tensor(psi, chi=2, mode=mode)
        assert checks == [psi.size]
        assert choice.pairing == (0 if mode == 0 else 2)
        bad = psi.copy()
        bad[1, 0, 1, 0] = np.nan
        with pytest.raises(NumericalError, match="non-finite"):
            decompose_tensor(bad, chi=2, mode=mode)

    @pytest.mark.parametrize("mode", [1, 2])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_all_pairings_match_oracle(self, rng, mode, complex_):
        shape = (2, 3, 4, 5)
        psi = rng.standard_normal(shape)
        if complex_:
            psi = psi + 1j * rng.standard_normal(shape)
        psi /= np.linalg.norm(psi)
        entropies, errors = oracle_pairings(psi, chi=3)
        v_l, w, v_r, choice = decompose_tensor(psi, chi=3, mode=mode)
        # a pairing ruled out under mode 1 has neither value
        evaluated = ~np.isnan(choice.entropies)
        assert evaluated[0] and (mode == 1 or evaluated.all())
        assert (evaluated == ~np.isnan(choice.truncation_errors)).all()
        assert evaluated[choice.pairing]
        np.testing.assert_allclose(
            np.array(choice.entropies)[evaluated], np.array(entropies)[evaluated],
            rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            np.array(choice.truncation_errors)[evaluated], np.array(errors)[evaluated],
            rtol=0, atol=1e-12)
        perm = PAIRINGS[choice.pairing]
        assert v_l.shape == (shape[perm[0]], shape[perm[1]], 3)
        assert v_r.shape == (shape[perm[2]], shape[perm[3]], 3)


def exact_pairings(psi):
    """Entropy and Rényi-2 entropy ``-ln sum w^2`` of each pairing of a
    normalized tensor, from the squares ``w`` of np.linalg.svd's values."""
    out = []
    for perm in PAIRINGS:
        d = psi.shape
        mat = psi.transpose(perm).reshape(d[perm[0]] * d[perm[1]], -1)
        w = np.linalg.svd(mat, compute_uv=False) ** 2
        w = w[w > 0.0]
        out.append((-np.sum(w * np.log(w)), -np.log(np.sum(w**2))))
    return out


class TestRenyiScreen:
    """Zero-temperature entropy selection (mode 1) rules out a pairing
    without its spectrum only where its exact entropy could not win."""

    @staticmethod
    def tensors(kind, gen):
        for _ in range(25):
            d = int(gen.integers(2, 5))
            shape = tuple(int(n) for n in gen.integers(2, 5, size=4))
            if kind == "real":
                psi = gen.standard_normal(shape)
            elif kind == "complex":
                psi = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
            elif kind == "product":
                psi = product_tensor(gen, shape)
            elif kind == "tied":  # every pairing splits into d equal values
                psi = sum(np.einsum("i,j,k,l->ijkl", *[np.eye(d)[i]] * 4) for i in range(d))
            else:  # legs (0, 2) and (1, 3) entangled, plus noise
                pairs = np.einsum("ac,bd->abcd", np.eye(d), np.eye(d))
                psi = pairs + gen.uniform(0.01, 0.3) * gen.standard_normal((d,) * 4)
            yield psi / np.linalg.norm(psi)

    @pytest.mark.parametrize("kind", ["real", "complex", "product", "tied", "reconnect"])
    def test_matches_exact_spectra(self, kind):
        eps_s = 1e-8
        gen = np.random.default_rng(29)
        ruled_out = 0
        for psi in self.tensors(kind, gen):
            exact = exact_pairings(psi)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # tied cuts straddle chi
                _, _, _, choice = decompose_tensor(psi, chi=2, mode=1, eps_s=eps_s)
            # the choice from all three exact entropies
            best = min(range(3), key=lambda k: exact[k][0])
            want = 0 if exact[0][0] - exact[best][0] < eps_s else best
            assert choice.pairing == want
            for k, (entropy, renyi2) in enumerate(exact):
                if np.isnan(choice.entropies[k]):
                    ruled_out += 1
                    assert k != 0 and np.isnan(choice.truncation_errors[k])
                    assert entropy >= renyi2 - 1e-12
                    assert renyi2 > exact[0][0] - eps_s
                else:
                    assert choice.entropies[k] == pytest.approx(entropy, rel=0, abs=1e-12)
        if kind in ("product", "tied"):  # no pairing can beat pairing 0 by eps_s
            assert ruled_out > 0

    @pytest.mark.parametrize("offset, pairing", [(-1e-9, 2), (1e-9, 0)])
    def test_threshold_is_tight(self, offset, pairing):
        """Pairing 2 of the rainbow tensor has one value, so its Rényi-2
        entropy equals its entropy, 0. It is evaluated, and wins, while
        pairing 0's entropy 2 ln 2 exceeds it by ``eps_s``; it is ruled out
        once that gap falls below ``eps_s``."""
        eps_s = 2 * np.log(2) + offset
        _, _, _, choice = decompose_tensor(rainbow_tensor(), chi=4, mode=1, eps_s=eps_s)
        assert choice.pairing == pairing
        assert np.isnan(choice.entropies[2]) == (pairing == 0)


class TestTruncationWarnings:
    """Only the kept split warns about a multiplet straddling the cap."""

    def test_rejected_pairing_is_silent(self):
        # pairing 0 straddles the cap at chi=2, but pairing 2 is kept
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, _, _, choice = decompose_tensor(rainbow_tensor(), chi=2, mode=2)
        assert choice.pairing == 2

    @pytest.mark.parametrize(
        "psi, chi, mode",
        [
            (rainbow_tensor(), 2, 0),
            # all three pairings tie at two equal values; pairing 0 is kept
            (np.einsum("i,j,k,l->ijkl", *[[1, 0]] * 4)
             + np.einsum("i,j,k,l->ijkl", *[[0, 1]] * 4), 1, 2),
        ],
        ids=["rainbow-mode0", "ghz-mode2"],
    )
    def test_kept_straddle_warns_once(self, psi, chi, mode):
        psi = psi / np.linalg.norm(psi)
        with pytest.warns(RuntimeWarning, match="straddles") as caught:
            _, w, _, choice = decompose_tensor(psi, chi=chi, mode=mode)
        assert len(caught) == 1
        assert choice.pairing == 0
        assert len(w) == chi


def composed_decomposition(psi, chi, mode, eps_s=1e-8, sigma=0.0, delta_s=1e-8):
    """``decompose_tensor`` at zero temperature, composed from ``full_svd``,
    ``spectrum_cut``, ``cut_spectrum`` and ``entanglement_entropy``."""
    def matrix(pairing):
        perm = PAIRINGS[pairing]
        return psi.transpose(perm).reshape(psi.shape[perm[0]] * psi.shape[perm[1]], -1)

    spec = full_svd(matrix(0))
    entropies, errors = [np.nan] * 3, [np.nan] * 3

    def measure(k, values):
        entropies[k] = entanglement_entropy(values)
        errors[k] = 1.0 - spectrum_cut(values, chi, sigma, delta_s)[1]

    measure(0, spec.values)
    for k in (1, 2) if mode != 0 else ():
        # mode 1 rules out a pairing whose Rényi-2 entropy clears S_0 - eps_s
        bound = entropies[0] - eps_s + treetn.state.SCREEN_MARGIN
        if mode == 2 or not _renyi2_entropy(matrix(k)) > bound:
            measure(k, full_svd(matrix(k), vectors=False, gram=mode == 1))
    pairing = 0
    if mode != 0:
        ranked = errors if mode == 2 else [0.0] * 3
        tied = [k for k in range(3)
                if ranked[k] - min(ranked) < 1e-13 and not np.isnan(entropies[k])]
        best = min(tied, key=lambda k: entropies[k])
        if not (0 in tied and entropies[0] - entropies[best] < eps_s):
            pairing = best
    if pairing != 0:
        spec = full_svd(matrix(pairing))
        entropies[pairing] = entanglement_entropy(spec.values)
    cut = spectrum_cut(spec.values, chi, sigma, delta_s)
    kept, errors[pairing] = cut_spectrum(spec, *cut), 1.0 - cut[1]
    perm = PAIRINGS[pairing]
    v_left = kept.left_vectors.reshape(psi.shape[perm[0]], psi.shape[perm[1]], -1)
    v_right = np.moveaxis(
        kept.right_vectors.reshape(-1, psi.shape[perm[2]], psi.shape[perm[3]]), 0, 2
    )
    selected = entanglement_entropy(kept.values)
    return v_left, kept.values, v_right, pairing, entropies, errors, selected


def bits(x):
    return np.asarray(x).tobytes()


class TestDecomposeComposition:
    """``decompose_tensor`` returns bit for bit what its parts give."""

    @staticmethod
    def tensor(kind):
        gen = np.random.default_rng(11)
        if kind == "real":
            return gen.standard_normal((2, 3, 4, 2))
        if kind == "complex":
            return gen.standard_normal((3, 2, 2, 3)) + 1j * gen.standard_normal((3, 2, 2, 3))
        if kind == "reconnect":  # legs (0, 2) and (1, 3) entangled, plus noise
            pairs = np.einsum("ac,bd->abcd", np.eye(3), np.eye(3))
            return pairs + 0.05 * gen.standard_normal((3, 3, 3, 3))
        # tied: all three pairings split into two equal values
        return np.einsum("i,j,k,l->ijkl", *[[1, 0]] * 4) + np.einsum("i,j,k,l->ijkl", *[[0, 1]] * 4)

    @pytest.mark.parametrize("mode", [0, 1, 2])
    @pytest.mark.parametrize(
        "kind, chi", [("real", 3), ("complex", 3), ("reconnect", 4), ("tied", 1)]
    )
    def test_matches_composed_parts(self, kind, chi, mode):
        psi = self.tensor(kind)
        psi = psi / np.linalg.norm(psi)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the tied cut straddles chi
            v_l, w, v_r, choice = decompose_tensor(psi, chi, mode=mode)
            ref_l, ref_w, ref_r, pairing, entropies, errors, selected = composed_decomposition(
                psi, chi, mode
            )
        if kind == "reconnect" and mode != 0:
            assert choice.pairing != 0
        assert choice.pairing == pairing and choice.probabilities is None
        for got, want in ((v_l, ref_l), (w, ref_w), (v_r, ref_r)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert bits(got) == bits(want)
        assert bits(choice.entropies) == bits(entropies)
        assert bits(choice.truncation_errors) == bits(errors)
        assert bits(choice.selected_entropy) == bits(selected)


class TestSelectionProbabilities:
    def test_sum_to_one(self, rng):
        for _ in range(50):
            s = rng.random(3) * 3
            p = selection_probabilities(s, temperature=rng.random() + 1e-3)
            assert abs(p.sum() - 1.0) <= 1e-14

    def test_shift_invariance(self, rng):
        s = rng.random(3)
        p1 = selection_probabilities(s, 0.7)
        p2 = selection_probabilities(s + 123.456, 0.7)
        np.testing.assert_allclose(p1, p2, atol=1e-14)

    def test_low_temperature_concentrates(self):
        p = selection_probabilities([1.0, 0.2, 0.9], temperature=1e-3)
        assert p[1] == pytest.approx(1.0, abs=1e-12)


class TestSiteEE:
    def test_product_zero(self, rng):
        psi = product_tensor(rng)
        for leg in range(4):
            assert site_ee(psi, leg) == pytest.approx(0.0, abs=1e-12)

    def test_bell_leg(self):
        psi = rainbow_tensor()
        assert site_ee(psi, 0) == pytest.approx(np.log(2), abs=1e-12)

    def test_matches_svd_bipartition(self, rng):
        psi = rng.standard_normal((2, 3, 2, 2))
        psi /= np.linalg.norm(psi)
        for leg in range(4):
            rest = [a for a in range(4) if a != leg]
            mat = psi.transpose([leg] + rest).reshape(psi.shape[leg], -1)
            expected = entanglement_entropy(full_svd(mat).values)
            assert site_ee(psi, leg) == pytest.approx(expected, abs=1e-12)


    def test_lapack_failure_named(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("eigvalsh did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(NumericalError, match=r"eigvalsh of a \(2, 2\) matrix failed"):
            site_ee(rainbow_tensor(), 0)


class TestCooledTemperature:
    def test_zero_stays_zero(self):
        assert cooled_temperature(0.0, 7, 3) == 0.0

    def test_halved_at_tau(self):
        assert cooled_temperature(1.0, 5, 5) == pytest.approx(0.5)

    def test_two_tau(self):
        assert cooled_temperature(2.0, 10, 5) == pytest.approx(0.5)

    def test_invalid(self):
        with pytest.raises(ValueError):
            cooled_temperature(-1.0, 0, 1)
        with pytest.raises(ValueError):
            cooled_temperature(1.0, 0, 0)
