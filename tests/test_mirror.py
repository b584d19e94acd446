"""The real-form eigensolve of the Lambda Gram at points on a mirror of the
modular group (i and rho): the pairing of coset representatives, the
rephasing, the spectra against the complex path, and the command's output,
eigensolves and memory."""

import json
import math

import numpy as np
import pytest
from oracles import mirror_point, rephased_gram_oracle, traced_peak

from orbitdensity import bergman, cli, commands, frames, fuchsian
from orbitdensity.bergman import KernelVector, Weight
from orbitdensity.errors import OracleInconsistencyError
from orbitdensity.hyperbolic import MoebiusMap, UpperHalfPoint, frobenius_sq

POINTS = {
    "i": (UpperHalfPoint(0.0, 1.0), "imaginary_axis"),
    "rho": (UpperHalfPoint(0.5, math.sqrt(3.0) / 2.0), "unit_circle"),
}
RADII = range(6, 18)


@pytest.fixture(scope="module")
def ball17():
    return fuchsian.ball_enumerate(fuchsian.psl2z(), 17.0)


def transversal(ball, z: UpperHalfPoint, alpha: float):
    """Cosets of the kernel stabiliser, Lambda orbit and Lambda counts of the
    balls of radius 6..17, as ``bergman-density`` truncates them."""
    kernel = KernelVector(z, Weight(alpha))
    orbit = bergman.orbit_system(ball.elements, kernel)
    members, _ = bergman.projective_stabilizer_kernel(ball, kernel, orbit)
    cosets = fuchsian.coset_representatives(ball, members)
    norms_sq = frobenius_sq(ball.elements)
    counts = [
        int(np.searchsorted(cosets.rep_index, np.count_nonzero(norms_sq <= r * r + 1e-9)))
        for r in RADII
    ]
    return cosets, orbit.take(cosets.rep_index), counts


def test_point_mirror():
    psl2z = fuchsian.psl2z()
    assert fuchsian.point_mirror(psl2z, UpperHalfPoint(0.0, 1.0)) == "imaginary_axis"
    assert fuchsian.point_mirror(psl2z, UpperHalfPoint(0.0, 2.0)) == "imaginary_axis"
    assert fuchsian.point_mirror(psl2z, POINTS["rho"][0]) == "unit_circle"
    assert fuchsian.point_mirror(psl2z, UpperHalfPoint(0.6, 0.8)) == "unit_circle"
    # |z|^2 = 1 - 4.4e-5 and 1 + 1e-12, both beyond 4 eps, and generic points
    for x, y in ((0.5, 0.866), (1e-6, 1.0), (0.3, 1.5), (-0.3, 1.4)):
        assert fuchsian.point_mirror(psl2z, UpperHalfPoint(x, y)) is None
    other = fuchsian.LatticeSpec("halfcont", (MoebiusMap(1.0, 2.0, 0.0, 1.0),), covolume=1.0)
    assert fuchsian.point_mirror(other, UpperHalfPoint(0.0, 1.0)) is None


@pytest.mark.parametrize("point", sorted(POINTS))
def test_pairing_is_an_involution_within_every_ball(ball17, point):
    z, mirror = POINTS[point]
    cosets, lam, counts = transversal(ball17, z, 2.0)
    p = fuchsian.mirror_pairing(ball17, cosets, mirror, counts)
    assert np.array_equal(p[p], np.arange(len(p)))
    for k in counts:
        assert np.array_equal(np.sort(p[:k]), np.arange(k))
    # the partner's point is the mirror image, so p pairs vectors, not only elements
    assert np.abs(lam.z[p] - mirror_point(lam.z, mirror)).max() <= 1e-12 * np.abs(lam.z).max()
    assert np.count_nonzero(p == np.arange(len(p))) < len(p) // 10


def test_pairing_failure_is_an_inconsistency(ball17):
    z, mirror = POINTS["rho"]
    cosets, _, counts = transversal(ball17, z, 3.0)
    # counts that cut a pair apart are not truncations by norm
    p = fuchsian.mirror_pairing(ball17, cosets, mirror, counts)
    cut = int(np.flatnonzero(p > np.arange(len(p)))[-1]) + 1
    with pytest.raises(OracleInconsistencyError, match="does not pair"):
        fuchsian.mirror_pairing(ball17, cosets, mirror, [cut])


@pytest.mark.parametrize("point", sorted(POINTS))
@pytest.mark.parametrize("alpha", [2.0, 3.0, 5.0, 7.0, 13.0])
def test_real_form_extremes_match_the_complex_blocks(ball17, point, alpha):
    z, mirror = POINTS[point]
    cosets, lam, counts = transversal(ball17, z, alpha)
    p = fuchsian.mirror_pairing(ball17, cosets, mirror, counts)
    rephased = bergman.mirror_rephased(lam, mirror)
    spectra = frames.gram(bergman.kernel_gram(rephased, rephased), counts, mirror=p)
    # the complex Gram of the unrephased vectors, eigensolved as before
    G = bergman.kernel_gram(lam, lam)
    for k, spectrum in zip(counts, spectra):
        assert spectrum.eigenvalues.dtype == np.float64
        reference = np.linalg.eigvalsh(G[:k, :k])
        bound = 64.0 * np.finfo(float).eps * np.linalg.norm(G[:k, :k])
        assert abs(spectrum.extremes[0] - reference[0]) <= bound
        assert abs(spectrum.extremes[1] - reference[-1]) <= bound


@pytest.mark.parametrize("point", sorted(POINTS))
@pytest.mark.parametrize("alpha", [2.0, 3.5, 7.0])
def test_rephased_gram_is_conjugated_by_the_mirror(point, alpha):
    z, mirror = POINTS[point]
    ball = fuchsian.ball_enumerate(fuchsian.psl2z(), 9.0)
    cosets, lam, counts = transversal(ball, z, alpha)
    p = fuchsian.mirror_pairing(ball, cosets, mirror, counts[: RADII.index(9) + 1])
    # per pair, from the points alone: the Gram at the mirrored points is conj(G)
    G, G_mirrored = rephased_gram_oracle(lam.z.tolist(), z.as_complex, alpha, mirror)
    scale = np.linalg.norm(G)
    assert np.linalg.norm(G_mirrored - G.conj()) <= 1e-12 * scale
    assert np.linalg.norm(G[p][:, p] - G.conj()) <= 1e-12 * scale
    rephased = bergman.mirror_rephased(lam, mirror)
    assert np.linalg.norm(bergman.kernel_gram(rephased, rephased) - G) <= 1e-12 * scale


def run_density(capsys, monkeypatch, argv, *, complex_path=False):
    """stdout of ``bergman-density``; with ``complex_path`` no mirror is
    found, so the Lambda Gram is eigensolved as a complex matrix."""
    with monkeypatch.context() as patch:
        if complex_path:
            patch.setattr(fuchsian, "point_mirror", lambda spec, z: None)
        code = cli.main(["bergman-density", *argv])
    out = capsys.readouterr().out
    assert code == 0
    return out


@pytest.mark.parametrize("z", ["0.5+0.866i", "-0.3+1.4i"])
def test_points_off_the_mirrors_keep_the_complex_path(capsys, monkeypatch, z):
    argv = ["--alpha", "2.5", f"--z={z}", "--ball", "9"]
    assert fuchsian.point_mirror(fuchsian.psl2z(), commands.parse_point(z)) is None
    mirrored = run_density(capsys, monkeypatch, argv)
    assert mirrored == run_density(capsys, monkeypatch, argv, complex_path=True)


@pytest.mark.parametrize(
    "argv", [("--alpha", "7", "--z", "i"), ("--alpha", "5", "--z", "0.5+0.8660254037844386i")]
)
def test_mirror_points_report_as_the_complex_path(capsys, monkeypatch, argv):
    argv = [*argv, "--ball", "11", "--format", "csv"]
    rows = [run_density(capsys, monkeypatch, argv, complex_path=c) for c in (False, True)]
    (names, *real), (_, *complex_) = ([line.split(",") for line in out.splitlines()] for out in rows)
    riesz_max = max(float(row[names.index("riesz_max")]) for row in complex_)
    for got, want in zip(real, complex_, strict=True):
        for name, a, b in zip(names, got, want, strict=True):
            if name in ("riesz_min", "riesz_max") or name.startswith("diag_riesz_trace_"):
                for x, y in zip(a.split(";"), b.split(";"), strict=True):
                    assert abs(float(x) - float(y)) <= 1e-13 * riesz_max
            else:
                assert a == b


RHO_GOLDEN = ["--alpha", "3", "--z", "0.5+0.8660254037844386i", "--ball", "6"]


def test_rho_lambda_eigensolves_are_real(capsys, monkeypatch):
    solves = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        solves.append((a.dtype, a.shape[-1]))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    run_density(capsys, monkeypatch, [*RHO_GOLDEN, "--probes", "40"])
    real = [size for dtype, size in solves if dtype == np.float64]
    assert len(real) == 3  # refine_steps
    assert all(size <= 40 for dtype, size in solves if dtype == np.complex128)
    assert len(solves) == 3 + 3  # and one whitened probe matrix per truncation


def test_rho_peak_is_at_most_the_complex_paths(capsys, monkeypatch):
    # At the benchmark's rho size, 434 representatives. The command's peak
    # is set by assembling the Lambda Gram, on both paths; beyond that
    # buffer, validating and eigensolving its real form holds less than the
    # complex path does.
    argv = ["--alpha", "3", "--z=0.5+0.8660254037844386i", "--ball", "17", "--refine-steps", "5"]
    run_density(capsys, monkeypatch, argv)  # imports and first-call caches
    beyond_gram = {}
    gram = frames.gram

    def traced(G, sizes, mirror=None):
        result, beyond_gram[mirror is not None] = traced_peak(gram, G, sizes, mirror=mirror)
        return result

    monkeypatch.setattr(frames, "gram", traced)
    run_density(capsys, monkeypatch, argv)
    run_density(capsys, monkeypatch, argv, complex_path=True)
    assert beyond_gram[True] <= beyond_gram[False]
    monkeypatch.setattr(frames, "gram", gram)
    out, peak = traced_peak(run_density, capsys, monkeypatch, [*argv, "--format", "json"])
    m = json.loads(out.splitlines()[-2])["diag_lambda_count"]
    assert m == 434
    assert peak <= 1.5 * 16 * m * m
