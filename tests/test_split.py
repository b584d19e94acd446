"""The symmetry split of the Lambda Gram: the pairings of the coset
representatives by the rotation S: w -> -1/w and, at points on a mirror
through i, by the reflection w -> -conj(w), and their phases; the spectra
of the two halves, real at mirror points, against the unsplit Gram;
lattices with and without S; and the command's eigensolves and memory."""

import json
import math

import numpy as np
import pytest
from oracles import traced_peak, unsplit_gram_spectra

from orbitdensity import bergman, cli, commands, frames, fuchsian
from orbitdensity.errors import EXIT_NUMERICAL
from orbitdensity.hyperbolic import UpperHalfPoint, act, frobenius_sq

RHO = UpperHalfPoint(0.5, math.sqrt(3.0) / 2.0)
POINTS = {
    "i": UpperHalfPoint(0.0, 1.0),  # S fixes i: one coset is its own partner
    "rho": RHO,  # an order-3 stabiliser
    "near-rho": UpperHalfPoint(0.5, 0.866),  # 2.5e-5 from rho
    "generic": UpperHalfPoint(0.3, 1.5),
    "generic-left": UpperHalfPoint(-0.3, 1.4),
}
# points on the mirrors Re z = 0 and |z| = 1, the last two with a trivial stabiliser
MIRRORS = {
    "i": POINTS["i"],
    "rho": RHO,
    "1.3i": UpperHalfPoint(0.0, 1.3),
    "0.6+0.8i": UpperHalfPoint(0.6, 0.8),
}
ALPHAS = [2.0, 3.0, 7.0, 13.0, 30.0, 60.0]
RADII = range(6, 18)
EPS = np.finfo(float).eps


@pytest.fixture(scope="module")
def ball17():
    return fuchsian.ball_enumerate(fuchsian.psl2z(), 17.0)


def transversal(ball, z: UpperHalfPoint, alpha: float, radii=RADII):
    """Orbit, stabiliser, cosets and the Lambda counts of the balls of
    radius 6..17, or ``radii``, as ``bergman-density`` truncates them."""
    orbit = act(ball.elements, z.as_complex)
    members, _ = bergman.projective_stabilizer_kernel(ball, z, alpha, orbit)
    cosets = fuchsian.coset_representatives(ball, members)
    norms_sq = frobenius_sq(ball.elements)
    counts = [
        int(np.searchsorted(cosets.rep_index, np.count_nonzero(norms_sq <= r * r + 1e-9)))
        for r in radii
    ]
    return orbit, members, cosets, counts


def half_sizes(members, counts) -> np.ndarray:
    return np.searchsorted(members, counts)


def assert_halves_have_the_unsplit_spectrum(ball, z, orbit, alpha, cosets, counts):
    """The transversal's Gram splits into two halves, real where the point
    lies on a mirror, and each truncation's spectrum is the union of the
    halves' leading blocks'."""
    lam = orbit[cosets.rep_index]
    rotation, reflection = bergman.transversal_symmetry(ball, cosets, z.as_complex, orbit, alpha, counts)
    halves = bergman.symmetry_halves(lam, alpha, rotation, reflection)
    assert len(halves) == 2
    dtype = np.complex128 if reflection is None else np.float64
    assert all(M.dtype == dtype for M, _ in halves)
    split = [[] for _ in counts]
    for M, half_members in halves:
        sizes = half_sizes(half_members, counts)
        for j, spectrum in enumerate(frames.gram(M, sizes)):
            split[j].append(spectrum.eigenvalues)
    for k, parts, reference in zip(counts, split, unsplit_gram_spectra(lam, alpha, counts)):
        got = np.sort(np.concatenate(parts))
        assert len(got) == k
        assert np.abs(got - reference).max() <= 64.0 * k * EPS * reference[-1]


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("point", sorted(POINTS))
def test_halves_have_the_spectrum_of_the_unsplit_gram(ball17, point, alpha):
    orbit, _, cosets, counts = transversal(ball17, POINTS[point], alpha)
    assert_halves_have_the_unsplit_spectrum(ball17, POINTS[point], orbit, alpha, cosets, counts)


@pytest.mark.parametrize("alpha", [2.0, 5.0, 7.0, 13.0])
@pytest.mark.parametrize("point", sorted(MIRRORS))
def test_real_halves_have_the_spectrum_of_the_unsplit_gram(ball17, point, alpha):
    z = MIRRORS[point]
    orbit, _, cosets, counts = transversal(ball17, z, alpha)
    assert bergman.transversal_symmetry(ball17, cosets, z.as_complex, orbit, alpha, counts)[1] is not None
    assert_halves_have_the_unsplit_spectrum(ball17, z, orbit, alpha, cosets, counts)


@pytest.mark.parametrize("point", sorted(MIRRORS))
def test_reflection_pairing_is_an_involution_that_commutes_with_s(ball17, point):
    z = MIRRORS[point]
    orbit, _, cosets, counts = transversal(ball17, z, 3.0)
    mirror = fuchsian.mirror_of(z.as_complex)
    assert mirror == (fuchsian.IDENTITY if z.x == 0.0 else fuchsian.ROTATION)
    p, q = fuchsian.coset_pairing(ball17, cosets, counts, z.as_complex)
    assert np.array_equal(q[q], np.arange(len(q)))
    assert np.array_equal(q[p], p[q])
    for k in counts:
        assert np.array_equal(np.sort(q[:k]), np.arange(k))
    # the partner's point is the mirrored point
    lam = orbit[cosets.rep_index]
    assert np.all(np.abs(-lam.conj() - lam[q]) <= 1e-12 * np.abs(lam[q]))


@pytest.mark.parametrize(
    "z, mirror",
    [
        ("i", fuchsian.IDENTITY), ("1.00002i", fuchsian.IDENTITY), ("0.6+0.8i", fuchsian.ROTATION),
        ("-0.6+0.8i", fuchsian.ROTATION), ("0.5+0.8660254037844386i", fuchsian.ROTATION),
        ("0.3+1.5i", None), ("0.5+0.866i", None), ("1e-9+1.3i", None),
    ],
)
def test_the_mirror_is_decided_by_the_point_alone(z, mirror):
    assert fuchsian.mirror_of(commands.parse_point(z).as_complex) == mirror


# points off both mirrors: two fixed ones and the benchmark's generic points
# of seeds 0 to 2
OFF_MIRRORS = [
    "0.3+1.5i", "0.5+0.866i",
    "0.2755374812200385+1.6227106094846067i",
    "-0.29250860471007906+1.672263797823931i",
    "0.3648274175113996+1.7118941809281485i",
]


@pytest.mark.parametrize("z", OFF_MIRRORS)
def test_points_off_the_mirrors_keep_the_complex_halves(capsys, monkeypatch, z):
    def refuse(*args):
        raise AssertionError("a real form off the mirrors")

    monkeypatch.setattr(bergman, "_real_form", refuse)
    for alpha in ("2", "3", "7", "13"):
        code, _, _ = run_density(capsys, ["--alpha", alpha, f"--z={z}", "--ball", "6", "--probes", "8"])
        assert code == 0


@pytest.mark.parametrize("point", sorted(POINTS))
def test_pairing_is_an_involution_that_closes_every_truncation(ball17, point):
    z = POINTS[point].as_complex
    orbit, members, cosets, counts = transversal(ball17, POINTS[point], 3.0)
    p, _ = fuchsian.coset_pairing(ball17, cosets, counts, z)
    index = np.arange(len(p))
    assert np.array_equal(p[p], index)
    for k in counts:
        assert np.array_equal(np.sort(p[:k]), np.arange(k))
    # the partner's point is the rotated point, so p pairs vectors, not only cosets
    lam = orbit[cosets.rep_index]
    assert np.all(np.abs(-1.0 / lam - lam[p]) <= 1e-12 * np.abs(lam[p]))
    assert np.count_nonzero(p == index) == (1 if point == "i" else 0)
    # the halves split every truncation evenly, the fixed coset aside
    halves = bergman.symmetry_halves(lam, 3.0, *bergman.transversal_symmetry(ball17, cosets, z, orbit, 3.0, counts))
    sizes = [half_sizes(half_members, counts) for _, half_members in halves]
    assert np.array_equal(sum(sizes), counts)
    for half in sizes:
        assert np.all(half <= -(-np.array(counts) // 2))


def run_density(capsys, argv):
    code = cli.main(["bergman-density", *argv])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize(
    "corruption, check",
    [
        ("swapped partners", "point"),
        ("leader sign", "phase product"),
        ("modulus", "phase modulus"),
        ("fixed", "phase product"),  # t_f^2 = -1
        ("reflected partners", "point"),
        ("reflection sign", "phase product"),  # conj(s_a) s_q(a) = -1
        ("reflection pair turned", "commute"),  # R still an involution, RW != WR
        ("moved point", "imaginary part"),
    ],
)
def test_a_corrupted_pairing_or_phase_exits_3(capsys, monkeypatch, corruption, check):
    pairing, phases, halves = fuchsian.coset_pairing, bergman.symmetry_phases, bergman.symmetry_halves
    reflection = corruption.startswith("refl")

    def swapped(ball, cosets, sizes, z):
        # the partners of the first two pairs exchanged: still an involution,
        # but the mapped points miss their partners'
        pairings = pairing(ball, cosets, sizes, z)
        p = pairings[reflection].copy()
        a, b = np.flatnonzero(p > np.arange(len(p)))[:2]
        p[[a, b, p[a], p[b]]] = p[b], p[a], b, a
        pairings[reflection] = p
        return pairings

    def corrupted(w, alpha, p, unitary):
        t = phases(w, alpha, p, unitary)
        index = np.arange(len(p))
        if unitary == reflection:
            return t
        if corruption in ("leader sign", "reflection sign"):
            t[np.flatnonzero(p > index)[0]] *= -1.0
        elif corruption == "reflection pair turned":
            # both phases of a pair whose rotated point lies outside the pair
            rotated = [int(np.argmin(np.abs(w + 1.0 / wk))) for wk in w]
            a = next(a for a in np.flatnonzero(p > index) if rotated[a] not in (a, p[a]))
            t[[a, p[a]]] *= 1j
        elif corruption == "modulus":
            t *= 1.0 + 1e-9
        else:  # the fixed coset's phase turned by i
            t[p == index] *= 1j
        return t

    def moved(points, alpha, *symmetries):
        # after the pairings and phases passed: only the real form's
        # imaginary part compares the entries of mirrored points
        z = points.copy()
        z[1] += 1e-9
        return halves(z, alpha, *symmetries)

    if corruption.endswith("partners"):
        monkeypatch.setattr(fuchsian, "coset_pairing", swapped)
    elif corruption == "moved point":
        monkeypatch.setattr(bergman, "symmetry_halves", moved)
    else:
        monkeypatch.setattr(bergman, "symmetry_phases", corrupted)
    code, _, err = run_density(capsys, ["--alpha", "3", "--z", "i", "--ball", "8", "--probes", "8"])
    assert code == EXIT_NUMERICAL
    if corruption == "moved point":
        assert "a real form of the Gram is not real: imaginary part" in err
    elif check == "commute":
        assert "the reflection w -> -conj(w) does not commute with the rotation S: mismatch" in err
    else:
        name = "reflection w -> -conj(w)" if reflection else "rotation S"
        assert f"the {name} does not map the transversal onto itself: {check} mismatch" in err


@pytest.mark.parametrize(
    "z, order",
    [
        (UpperHalfPoint(0.0, 1.00002), 1),
        (UpperHalfPoint(0.5, 0.866), 1),
        (UpperHalfPoint(0.0, 1.0), 2),
        (UpperHalfPoint(0.5, 0.8660254037844386), 3),
    ],
    ids=["near-i", "near-rho", "i", "rho"],
)
def test_stab_order_does_not_depend_on_alpha(z, order):
    # the stabiliser is of the point alone: S moves 1.00002i by 4e-5 and the
    # rotations about rho move 0.5+0.866i by 5e-5, at every alpha
    ball = fuchsian.ball_enumerate(fuchsian.psl2z(), 6.0)
    for alpha in (2.0, 20.0, 60.0):
        reports = bergman.density_analysis(fuchsian.psl2z(), z, alpha, 6.0, probes=8)
        assert [r.stab_order for r in reports] == [order] * len(reports)
        # and S splits the Gram, also near i where it is no longer taken
        # into the stabiliser
        orbit, _, cosets, counts = transversal(ball, z, alpha, radii=[4.0, 5.0, 6.0])
        assert_halves_have_the_unsplit_spectrum(ball, z, orbit, alpha, cosets, counts)


GAMMA2 = (
    "lattice.name = gamma2\n"
    "lattice.generators = 1,2,0,1;1,0,2,1\n"
    "lattice.covolume = 6.283185307179586\n"
)
MODULAR = (
    "lattice.name = modular\n"
    "lattice.generators = 0,-1,1,0;1,1,0,1\n"
    "lattice.covolume = 1.0471975511965976\n"
    "lattice.integral = true\n"
)


@pytest.mark.parametrize("z", ["i", "0.3+1.5i"])
def test_a_lattice_without_s_is_one_block_as_before(capsys, monkeypatch, tmp_path, z):
    # Gamma(2) is torsion-free and does not hold S
    cfg = tmp_path / "gamma2.cfg"
    cfg.write_text(GAMMA2)
    assembled, solved, inside = [], [], []
    kernel_gram, gram, halves = bergman.kernel_gram, frames.gram, bergman.symmetry_halves

    def recording_kernel_gram(left, right, alpha):
        if inside:
            assembled.append((len(left), len(right)))
        return kernel_gram(left, right, alpha)

    def marked_halves(*args):
        inside.append(True)
        try:
            return halves(*args)
        finally:
            inside.pop()

    def recording_gram(G, sizes):
        solved.append((G.copy(), list(sizes)))
        return gram(G, sizes)

    monkeypatch.setattr(bergman, "kernel_gram", recording_kernel_gram)
    monkeypatch.setattr(bergman, "symmetry_halves", marked_halves)
    monkeypatch.setattr(frames, "gram", recording_gram)
    argv = ["--lattice", "gamma2", "--config", str(cfg), "--alpha", "3", f"--z={z}"]
    code, out, _ = run_density(capsys, [*argv, "--ball", "9", "--probes", "8", "--format", "json"])
    assert code == 0
    counts = [r["diag_lambda_count"] for r in map(json.loads, out.splitlines()[:-1])]
    # one block: one Gram of all m representatives, assembled once
    (G, sizes), = solved
    m = max(counts)
    assert G.shape == (m, m) and sizes == counts
    assert assembled == [(m, m), (m, 0)]  # the Gram and an empty partner block
    # and off the mirrors it is bitwise the Gram of the transversal, which
    # the unsplit path eigensolved with the same call. Gamma(2) is symmetric
    # under w -> -conj(w), so at i the block is that Gram's real form, with
    # its spectrum.
    spec = commands.lattice_from_config("gamma2", commands.load_config(str(cfg)))
    ball = fuchsian.ball_enumerate(spec, 9.0)
    orbit, members, cosets, _ = transversal(ball, commands.parse_point(z), 3.0)
    assert len(members) == 1
    lam = orbit[cosets.rep_index]
    if z == "i":
        assert G.dtype == np.float64
        reference = np.linalg.eigvalsh(kernel_gram(lam, lam, 3.0))
        assert np.abs(np.linalg.eigvalsh(G) - reference).max() <= 64.0 * m * EPS * reference[-1]
    else:
        assert np.array_equal(G, kernel_gram(lam, lam, 3.0))


def test_a_configured_modular_group_gets_the_split(capsys, monkeypatch, tmp_path):
    cfg = tmp_path / "modular.cfg"
    cfg.write_text(MODULAR)
    solved = []
    gram = frames.gram

    def recording_gram(G, sizes):
        solved.append(G.shape[0])
        return gram(G, sizes)

    argv = ["--alpha", "3", "--z=0.3+1.5i", "--ball", "9", "--probes", "8", "--format", "csv"]
    _, psl2z, _ = run_density(capsys, argv)
    monkeypatch.setattr(frames, "gram", recording_gram)
    code, modular, _ = run_density(capsys, [*argv, "--lattice", "modular", "--config", str(cfg)])
    assert code == 0
    # found from the ball, not from the name: two halves, the same report
    assert len(solved) == 2
    assert modular.replace(",modular,", ",psl2z,") == psl2z


# PSL(2, Z) turned through 0.3 rad about i: it holds S, which commutes with
# the rotations about i, but w -> -conj(w) does not map it onto itself
TURNED = (
    "lattice.name = turned\n"
    "lattice.generators = 0.0,1.0,-1.0,0.0; 1.2823212366975179,0.9126678074548393,"
    "-0.08733219254516086,0.7176787633024824\n"
    "lattice.covolume = 1.0471975511965976\n"
)


def test_a_lattice_with_s_but_not_the_reflection_keeps_the_complex_halves(capsys, monkeypatch, tmp_path):
    # 1.3i lies on the mirror Re z = 0, but the ball is not closed under the
    # reflection, so S splits the Gram and no real form is taken
    cfg = tmp_path / "turned.cfg"
    cfg.write_text(TURNED)
    spec = commands.lattice_from_config("turned", commands.load_config(str(cfg)))
    ball = fuchsian.ball_enumerate(spec, 8.0)
    z = UpperHalfPoint(0.0, 1.3)
    orbit, _, cosets, counts = transversal(ball, z, 3.0, radii=[6.0, 7.0, 8.0])
    p, q = fuchsian.coset_pairing(ball, cosets, counts, z.as_complex)
    assert p is not None and q is None
    assert_halves_have_the_unsplit_spectrum(ball, z, orbit, 3.0, cosets, counts)

    def refuse(*args):
        raise AssertionError("a real form without the reflection")

    monkeypatch.setattr(bergman, "_real_form", refuse)
    argv = ["--lattice", "turned", "--config", str(cfg), "--alpha", "3", "--z=1.3i", "--ball", "8", "--probes", "8"]
    assert run_density(capsys, argv)[0] == 0


# the benchmark's density commands: its seed-0 generic point, then rho
BENCHMARK_COMMANDS = {
    "generic": ["--alpha", "2", "--z=0.2755374812200385+1.6227106094846067i", "--ball", "13"],
    "rho": [
        "--alpha", "3", "--z=0.5+0.8660254037844386i", "--ball", "17",
        "--refine-steps", "5", "--refine-delta", "1.5",
    ],
}


@pytest.mark.parametrize("command", sorted(BENCHMARK_COMMANDS))
def test_benchmark_lambda_eigensolves_are_halves(capsys, monkeypatch, command):
    argv = [*BENCHMARK_COMMANDS[command], "--probes", "40", "--format", "json"]
    solves, inside, dtypes = [], [], set()
    eigvalsh, gram = np.linalg.eigvalsh, frames.gram

    def recording_eigvalsh(a, *args, **kwargs):
        if inside:
            solves.append(a.shape[-1])
            dtypes.add(a.dtype)
        return eigvalsh(a, *args, **kwargs)

    def marked_gram(G, sizes):
        inside.append(True)
        try:
            return gram(G, sizes)
        finally:
            inside.pop()

    monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
    monkeypatch.setattr(frames, "gram", marked_gram)
    code, out, _ = run_density(capsys, argv)
    assert code == 0
    counts = [r["diag_lambda_count"] for r in map(json.loads, out.splitlines()[:-1])]
    # one eigensolve per half and truncation, the -1 half first
    minus, plus = np.array(solves[: len(counts)]), np.array(solves[len(counts) :])
    assert len(solves) == 2 * len(counts)
    assert np.array_equal(minus + plus, counts)
    assert np.all(np.maximum(minus, plus) <= -(-np.array(counts) // 2))
    # rho lies on the mirror |z| = 1, so its halves are real; the generic point's are not
    assert dtypes == {np.dtype(np.float64 if command == "rho" else np.complex128)}


@pytest.mark.parametrize("command", sorted(BENCHMARK_COMMANDS))
def test_benchmark_lambda_stage_peak_is_at_most_the_unsplit_one(command):
    argv = BENCHMARK_COMMANDS[command]
    z = commands.parse_point(argv[2].partition("=")[2])
    ball = fuchsian.ball_enumerate(fuchsian.psl2z(), float(argv[4]))
    alpha = float(argv[1])
    orbit = act(ball.elements, z.as_complex)
    members, _ = bergman.projective_stabilizer_kernel(ball, z, alpha, orbit)
    cosets = fuchsian.coset_representatives(ball, members)
    counts = [len(cosets.rep_index)]
    lam = orbit[cosets.rep_index]

    def unsplit():
        # the stage as it was: the whole Gram in one buffer, one gram call
        return frames.gram(bergman.kernel_gram(lam, lam, alpha), counts)

    unsplit()  # first-call caches
    bounds, split_peak = traced_peak(
        bergman.transversal_riesz_bounds, ball, cosets, z.as_complex, orbit, alpha, counts
    )
    spectra, unsplit_peak = traced_peak(unsplit)
    assert split_peak <= unsplit_peak
    lo, hi = spectra[0].extremes
    assert abs(bounds[0][0] - lo) <= 64.0 * counts[0] * EPS * hi
    assert abs(bounds[0][1] - hi) <= 64.0 * counts[0] * EPS * hi
