"""The Lambda Gram at the mirror points of the modular group, i and rho,
where the rotation S: w -> -1/w splits it into two halves and the
reflection w -> -conj(w) makes each half real (see ``test_split``): the
pairings of the coset representatives, a pairing that fails, the real
halves' extremes against the complex Gram's blocks, the command's output
against the one complex block of a ball taken to hold neither symmetry,
and its memory at the benchmark's rho size."""

import json
import math
import re

import numpy as np
import pytest
from oracles import traced_peak

from orbitdensity import bergman, cli, frames, fuchsian
from orbitdensity.errors import OracleInconsistencyError
from orbitdensity.hyperbolic import act, canonical, compose, frobenius_sq, inverse

POINTS = {
    "i": 1j,
    "rho": complex(0.5, math.sqrt(3.0) / 2.0),
}
RADII = range(6, 18)


@pytest.fixture(scope="module")
def ball17():
    return fuchsian.ball_enumerate(fuchsian.psl2z(), 17.0)


def transversal(ball, z: complex, alpha: float):
    """Stabiliser, cosets, Lambda orbit and the Lambda counts of the balls
    of radius 6..17, as ``bergman-density`` truncates them."""
    orbit = act(ball.elements, z)
    members, _ = bergman.projective_stabilizer_kernel(ball, z, alpha, orbit)
    cosets = fuchsian.coset_representatives(ball, members)
    norms_sq = frobenius_sq(ball.elements)
    counts = [
        int(np.searchsorted(cosets.rep_index, np.count_nonzero(norms_sq <= r * r + 1e-9)))
        for r in RADII
    ]
    return orbit, members, cosets, counts


@pytest.mark.parametrize("point", sorted(POINTS))
def test_pairing_is_an_involution_within_every_ball(ball17, point):
    z = POINTS[point]
    _, members, cosets, counts = transversal(ball17, z, 2.0)
    mirror = fuchsian.mirror_of(z)
    p, q = fuchsian.coset_pairing(ball17, cosets, counts, z)
    for pairing in (p, q):
        assert np.array_equal(pairing[pairing], np.arange(len(pairing)))
        for k in counts:
            assert np.array_equal(np.sort(pairing[:k]), np.arange(k))
    # by the group, not by the tiles: rep_p(a)^-1 S rep_a and
    # rep_q(a)^-1 sigma rep_a sigma g0 lie in the stabiliser
    reps = ball17.elements[cosets.rep_index]
    for pairing, images in (
        (p, compose(canonical(fuchsian.ROTATION), reps)),
        (q, compose(fuchsian.reflected(reps), canonical(mirror))),
    ):
        h = compose(inverse(reps[pairing]), images)
        assert np.isin(ball17.index_of(h), members).all()
    # S fixes i, so the stabiliser's own coset is its only fixed one; at rho
    # S moves the stabiliser's coset onto another
    assert np.count_nonzero(p == np.arange(len(p))) == (1 if point == "i" else 0)


def test_pairing_failure_is_an_inconsistency(ball17):
    # sizes that cut a pair apart are not truncations by norm: S's last pair
    # at rho, and at i the first size that S closes and the reflection cuts
    # (at rho the reflection closes every size that S closes)
    for point, name in (("rho", "rotation S"), ("i", "reflection w -> -conj(w)")):
        z = POINTS[point]
        _, _, cosets, counts = transversal(ball17, POINTS[point], 3.0)
        p, q = fuchsian.coset_pairing(ball17, cosets, counts, z)
        if point == "rho":
            cut = int(np.flatnonzero(p > np.arange(len(p)))[-1]) + 1
        else:
            cut = next(k for k in range(1, len(p)) if p[:k].max() < k <= q[:k].max())
        with pytest.raises(OracleInconsistencyError, match=re.escape(f"the {name} does not pair")):
            fuchsian.coset_pairing(ball17, cosets, [cut], z)
    # three representatives moved round a cycle: their images are no involution
    rep_index = cosets.rep_index.copy()
    rep_index[[1, 2, 3]] = rep_index[[2, 3, 1]]
    shuffled = fuchsian.CosetSystem(rep_index=rep_index, tile=cosets.tile)
    with pytest.raises(OracleInconsistencyError, match="does not pair"):
        fuchsian.coset_pairing(ball17, shuffled, counts, z)


@pytest.mark.parametrize("point", sorted(POINTS))
@pytest.mark.parametrize("alpha", [2.0, 3.0, 5.0, 7.0, 13.0])
def test_real_form_extremes_match_the_complex_blocks(ball17, point, alpha):
    # the extremes the command reports at a mirror point, from the two real
    # halves, against the complex Gram's blocks
    orbit, members, cosets, counts = transversal(ball17, POINTS[point], alpha)
    bounds = bergman.transversal_riesz_bounds(ball17, cosets, POINTS[point], orbit, alpha, counts)
    lam = orbit[cosets.rep_index]
    G = bergman.kernel_gram(lam, lam, alpha)
    for k, (lo, hi) in zip(counts, bounds):
        reference = np.linalg.eigvalsh(G[:k, :k])
        bound = 64.0 * np.finfo(float).eps * np.linalg.norm(G[:k, :k])
        assert abs(lo - reference[0]) <= bound
        assert abs(hi - reference[-1]) <= bound


def run_density(capsys, monkeypatch, argv, *, complex_path=False):
    """stdout of ``bergman-density``; with ``complex_path`` the ball is
    taken to hold neither S nor the reflection, so the Lambda Gram is one
    complex block."""
    with monkeypatch.context() as patch:
        if complex_path:
            patch.setattr(fuchsian, "coset_pairing", lambda ball, cosets, sizes, z: [None, None])
        code = cli.main(["bergman-density", *argv])
    out = capsys.readouterr().out
    assert code == 0
    return out


def assert_reports_match(split, complex_):
    """Every field byte-identical but the Riesz bounds, and those within
    1e-13 of the largest one."""
    (names, *got_rows), (names_c, *want_rows) = (
        [line.split(",") for line in out.splitlines()] for out in (split, complex_)
    )
    assert names == names_c
    riesz_max = max(float(row[names.index("riesz_max")]) for row in want_rows)
    for got, want in zip(got_rows, want_rows, strict=True):
        for name, a, b in zip(names, got, want, strict=True):
            if name in ("riesz_min", "riesz_max") or name.startswith("diag_riesz_trace_"):
                for x, y in zip(a.split(";"), b.split(";"), strict=True):
                    assert abs(float(x) - float(y)) <= 1e-13 * riesz_max
            else:
                assert a == b


@pytest.mark.parametrize("z", ["0.5+0.866i", "-0.3+1.4i"])
def test_points_off_the_mirrors_keep_the_complex_path(capsys, monkeypatch, z):
    argv = ["--alpha", "2.5", f"--z={z}", "--ball", "9", "--format", "csv"]
    # 0.5+0.866i is 2.5e-5 from rho, which its trivial stabiliser tells apart
    split = run_density(capsys, monkeypatch, argv)
    complex_ = run_density(capsys, monkeypatch, argv, complex_path=True)
    assert_reports_match(split, complex_)


@pytest.mark.parametrize(
    "argv", [("--alpha", "7", "--z", "i"), ("--alpha", "5", "--z", "0.5+0.8660254037844386i")]
)
def test_mirror_points_report_as_the_complex_path(capsys, monkeypatch, argv):
    argv = [*argv, "--ball", "11", "--format", "csv"]
    split, complex_ = (run_density(capsys, monkeypatch, argv, complex_path=c) for c in (False, True))
    assert_reports_match(split, complex_)


def test_rho_peak_is_at_most_the_complex_paths(capsys, monkeypatch):
    # At the benchmark's rho size, 434 representatives. Beyond the Lambda
    # Gram's buffers, validating and eigensolving the two halves holds no
    # more than the complex path does with its one block, and the command's
    # peak stays within one and a half complex Grams.
    argv = ["--alpha", "3", "--z=0.5+0.8660254037844386i", "--ball", "17", "--refine-steps", "5"]
    run_density(capsys, monkeypatch, argv)  # imports and first-call caches
    gram, peaks = frames.gram, []

    def traced(G, sizes):
        result, peak = traced_peak(gram, G, sizes)
        peaks.append(peak)
        return result

    monkeypatch.setattr(frames, "gram", traced)
    run_density(capsys, monkeypatch, argv)
    halves = max(peaks)
    peaks.clear()
    run_density(capsys, monkeypatch, argv, complex_path=True)
    assert halves <= max(peaks)
    monkeypatch.setattr(frames, "gram", gram)
    out, peak = traced_peak(run_density, capsys, monkeypatch, [*argv, "--format", "json"])
    m = json.loads(out.splitlines()[-2])["diag_lambda_count"]
    assert m == 434
    assert peak <= 1.5 * 16 * m * m
