import io
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import oracles
import pytest
from oracles import column_rows, pi_shift_matrix, verify_windows

from orbitdensity import cli, frames, linalg
from orbitdensity import finite_gabor as fg
from orbitdensity.errors import (
    DimensionError,
    OracleInconsistencyError,
    ResourceLimitError,
    TheoremViolationError,
    UsageError,
)

E1 = np.array([1.0, 0.0], dtype=complex)


def subgroup_by_elements(n, elements):
    for sub in fg.subgroup_enumerate(n):
        if sub.elements == tuple(sorted(elements)):
            return sub
    raise AssertionError(f"subgroup {elements} not found")


class TestShift:
    def test_identity(self):
        rng = np.random.default_rng(51)
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert np.allclose(oracles.pi_shift(0, 0, v), v, atol=0.0)

    def test_translation_moves_basis(self):
        assert np.allclose(oracles.pi_shift(1, 0, E1), np.array([0.0, 1.0]), atol=0.0)

    def test_modulation_on_support_zero(self):
        assert np.allclose(oracles.pi_shift(0, 1, E1), E1, atol=0.0)

    def test_unitarity(self):
        rng = np.random.default_rng(52)
        for n in (2, 3, 5, 8):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            for a in range(n):
                for b in range(n):
                    w = oracles.pi_shift(a, b, v)
                    assert abs(np.vdot(w, w).real - np.vdot(v, v).real) <= 1e-12 * np.vdot(v, v).real

    def test_projective_relation_exhaustive(self):
        for n in (2, 3, 4, 5, 6):
            mats = {
                (a, b): pi_shift_matrix(a, b, n)
                for a in range(n)
                for b in range(n)
            }
            for x in itertools.product(range(n), repeat=2):
                for y in itertools.product(range(n), repeat=2):
                    xy = ((x[0] + y[0]) % n, (x[1] + y[1]) % n)
                    lhs = mats[x] @ mats[y]
                    rhs = oracles.sigma_finite(x, y, n) * mats[xy]
                    assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestSigma:
    def test_identity_argument(self):
        assert oracles.sigma_finite((0, 0), (3, 1), 4) == 1.0 + 0.0j

    def test_hand_value_n4(self):
        value = oracles.sigma_finite((1, 0), (0, 1), 4)
        assert abs(value - np.exp(-1j * np.pi / 2.0)) <= 1e-15

    def test_cocycle_identity_exhaustive(self):
        for n in (2, 3, 4, 5, 6):
            pairs = list(itertools.product(range(n), repeat=2))
            for x in pairs:
                for y in pairs:
                    xy = ((x[0] + y[0]) % n, (x[1] + y[1]) % n)
                    for z in pairs:
                        yz = ((y[0] + z[0]) % n, (y[1] + z[1]) % n)
                        lhs = oracles.sigma_finite(x, y, n) * oracles.sigma_finite(xy, z, n)
                        rhs = oracles.sigma_finite(y, z, n) * oracles.sigma_finite(x, yz, n)
                        assert abs(lhs - rhs) <= 1e-12


class TestFormalDegree:
    def test_value(self):
        assert oracles.formal_degree_finite(2) == Fraction(1, 2)
        assert oracles.formal_degree_finite(3) == Fraction(1, 3)

    def test_hand_sum_n2(self):
        # f = g = e1: the four terms are 1, 1, 0, 0
        total = sum(
            abs(np.vdot(oracles.pi_shift(a, b, E1), E1)) ** 2
            for a in range(2)
            for b in range(2)
        )
        assert abs(total - 2.0) <= 1e-15

    def test_tight_frame_property_full_group(self):
        rng = np.random.default_rng(54)
        for n in (2, 3, 5):
            g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            gsq = float(np.vdot(g, g).real)
            S = np.zeros((n, n), dtype=complex)
            for a in range(n):
                for b in range(n):
                    v = oracles.pi_shift(a, b, g)
                    S += np.outer(v, v.conj())
            assert np.max(np.abs(S - n * gsq * np.eye(n))) <= 1e-10 * n * gsq

    def test_modulus_validation(self):
        with pytest.raises(UsageError):
            oracles.formal_degree_finite(1)


class TestSubgroupEnumeration:
    def test_n2_orders(self):
        subs = fg.subgroup_enumerate(2)
        assert sorted(s.order for s in subs) == [1, 2, 2, 2, 4]

    def test_prime_counts(self):
        # p + 3 subgroups of Z_p x Z_p for prime p
        assert len(fg.subgroup_enumerate(2)) == 5
        assert len(fg.subgroup_enumerate(3)) == 6
        assert len(fg.subgroup_enumerate(5)) == 8

    def test_closed_under_addition(self):
        for n in (2, 3, 4, 6):
            for sub in fg.subgroup_enumerate(n):
                elems = set(sub.elements)
                assert (0, 0) in elems
                for x in elems:
                    for y in elems:
                        assert ((x[0] + y[0]) % n, (x[1] + y[1]) % n) in elems

    def test_orders_divide_n_squared(self):
        for n in (2, 3, 4, 5, 6):
            for sub in fg.subgroup_enumerate(n):
                assert (n * n) % sub.order == 0

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            fg.subgroup_enumerate(17)

    def test_hermite_normal_forms_match_pair_closure(self):
        for n in range(2, 13):
            hnf = [(s.order, s.elements, s.generators) for s in fg.subgroup_enumerate(n)]
            pairs = [
                (s.order, s.elements, s.generators) for s in oracles.subgroup_enumerate_pairs(n)
            ]
            assert hnf == pairs
            # counting law: Z_n x Z_n has sum of gcd(a, b) over divisors a, b of n subgroups
            divisors = [d for d in range(1, n + 1) if n % d == 0]
            assert len(hnf) == sum(math.gcd(a, b) for a in divisors for b in divisors)

    def test_subgroup_check_matches_pair_closure(self):
        def assert_refused_as_subgroup(elements, n):
            # whatever generators it names, since every span is a subgroup
            for generators in ((), elements[:1], elements[:2], elements):
                with pytest.raises(UsageError):
                    fg.SubgroupDescr(n=n, generators=generators, elements=elements)

        rng = np.random.default_rng(57)
        for n in range(2, 9):
            subgroups = {sub.elements for sub in fg.subgroup_enumerate(n)}
            pairs = list(itertools.product(range(n), repeat=2))
            candidates = []
            for elements in sorted(subgroups):
                assert oracles.is_subgroup_table(elements, n) and oracles.is_subgroup_pairs(elements, n)
                # one element dropped, one added
                drop = elements[rng.integers(len(elements))]
                candidates.append(tuple(e for e in elements if e != drop))
                candidates.append(tuple(sorted({*elements, pairs[rng.integers(len(pairs))]})))
            for _ in range(100):
                size = rng.integers(1, len(pairs) + 1)
                picked = rng.choice(len(pairs), size, replace=False)
                candidates.append(tuple(pairs[k] for k in picked))
            non_subgroups = [c for c in candidates if tuple(sorted(c)) not in subgroups]
            assert len(non_subgroups) >= 50
            for elements in non_subgroups:
                assert not oracles.is_subgroup_table(elements, n)
                assert not oracles.is_subgroup_pairs(elements, n)
                assert_refused_as_subgroup(elements, n)
        # empty, a duplicate, outside Z_2 x Z_2
        for elements in ((), ((0, 0), (0, 0)), ((0, 0), (0, 2)), ((0, 0), (-1, 0))):
            assert not oracles.is_subgroup_table(elements, 2)
            assert not oracles.is_subgroup_pairs(elements, 2)
            assert_refused_as_subgroup(elements, 2)

    def test_rejects_element_list_that_is_not_closed(self):
        with pytest.raises(UsageError):
            fg.SubgroupDescr(n=4, generators=((1, 0),), elements=((0, 0), (1, 0)))


def stabilizers(sub, windows):
    """The (stabiliser elements, window indices) classes of a window stack
    over one subgroup, as the scan forms them, each checked to be a subgroup
    of the order that its cosets report."""
    windows = np.asarray(windows, dtype=complex)
    V = fg.orbit_system(windows, sub.elements)
    owner = np.zeros(len(windows), dtype=int)
    classes = []
    for _, mask, members in fg.stabilizer_classes([sub], owner, windows, V):
        stab = tuple(itertools.compress(sub.elements, mask))
        assert oracles.is_subgroup_pairs(stab, sub.n)
        assert fg.lex_coset_representatives(sub, mask)[0] == len(stab)
        classes.append((stab, members))
    return classes


class TestProjectiveStabilizer:
    def test_basis_window_full_group(self):
        full = subgroup_by_elements(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        ((stab, members),) = stabilizers(full, [E1])
        assert stab == ((0, 0), (0, 1))
        assert list(members) == [0]
        # both members fix e1 with phase 1
        for a, b in stab:
            assert np.array_equal(oracles.pi_shift(a, b, E1), E1)

    def test_generic_window_trivial(self):
        rng = np.random.default_rng(55)
        for n in (2, 3, 4):
            full = max(fg.subgroup_enumerate(n), key=lambda s: s.order)
            g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            ((stab, _),) = stabilizers(full, [g])
            assert len(stab) == 1

    def test_flat_window_translation_invariant(self):
        full = subgroup_by_elements(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        g = np.ones(2, dtype=complex) / np.sqrt(2.0)
        ((stab, _),) = stabilizers(full, [g])
        assert (1, 0) in stab
        assert len(stab) >= 2

    def test_windows_grouped_by_stabilizer(self):
        full = subgroup_by_elements(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        flat = np.ones(2, dtype=complex)
        generic = np.array([1.0, 0.3 + 0.4j])
        classes = stabilizers(full, [E1, generic, flat, 2.0 * E1])
        by_window = {int(w): stab for stab, members in classes for w in members}
        assert by_window == {
            0: ((0, 0), (0, 1)),
            1: ((0, 0),),
            2: ((0, 0), (1, 0)),
            3: ((0, 0), (0, 1)),
        }
        assert len(classes) == 3

    def test_packed_row_classes_match_unique_rows(self, monkeypatch):
        seen = []
        unique_rows = fg._unique_rows

        def recording(labels, masks):
            seen.append((labels.copy(), masks.copy()))
            return unique_rows(labels, masks)

        monkeypatch.setattr(fg, "_unique_rows", recording)
        fg.exhaustive_scan(8, windows_per_case=3, seed=1)
        monkeypatch.undo()
        # widths that are not a multiple of 8, repeated rows, and labels that
        # need more than one byte
        rng = np.random.default_rng(58)
        for width in range(1, 18):
            rows = rng.random((40, width)) < 0.5
            picked = rng.integers(len(rows), size=60)
            seen.append((rng.choice([0, 3, 255, 256, 70000], size=60), rows[picked]))
        assert {masks.shape[1] for _, masks in seen} >= set(range(1, 18)) | {64}
        assert max(len(np.unique(labels)) for labels, _ in seen[:-17]) > 1
        for labels, masks in seen:
            got_labels, classes, class_of = fg._unique_rows(labels, masks)
            want, want_class_of = np.unique(
                np.column_stack([labels, masks]), axis=0, return_inverse=True
            )
            assert np.array_equal(got_labels, want[:, 0])
            assert np.array_equal(classes, want[:, 1:].astype(bool))
            assert np.array_equal(class_of, want_class_of.ravel())

    def test_one_subgroup_description_per_subgroup(self, monkeypatch):
        # the stabilisers are masks, never a SubgroupDescr of their own
        built = []
        post_init = fg.SubgroupDescr.__post_init__

        def counting(sub):
            built.append(sub)
            post_init(sub)

        monkeypatch.setattr(fg.SubgroupDescr, "__post_init__", counting)
        columns, violations = fg.exhaustive_scan(7, windows_per_case=6, seed=1)
        assert len(columns["n"]) + len(violations) == 971
        assert len(built) == 74 == sum(len(fg.subgroup_enumerate(n)) for n in range(2, 8))

    def test_stabilizer_that_is_not_a_subgroup_is_an_inconsistency(self):
        full = subgroup_by_elements(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        with pytest.raises(OracleInconsistencyError, match="not closed under addition"):
            fg.lex_coset_representatives(full, [False, True, True, False])
        # not closed, without (0, 0), and empty
        for mask in ([True, False, True, True], [False, True, False, False], [False] * 4):
            with pytest.raises(OracleInconsistencyError):
                fg.lex_coset_representatives(full, mask)
        # with (0, 0) and of an order that divides 16, but without (1, 0) + (1, 0)
        z4 = subgroup_by_elements(4, list(itertools.product(range(4), repeat=2)))
        with pytest.raises(OracleInconsistencyError):
            fg.lex_coset_representatives(z4, [gamma in ((0, 0), (1, 0)) for gamma in z4.elements])


class TestCosetTransversal:
    def test_lexicographic_choice(self):
        full = subgroup_by_elements(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        stab = [(0, 0), (0, 1)]
        stab_order, cols, coset = fg.lex_coset_representatives(full, [gamma in stab for gamma in full.elements])
        assert stab_order == 2
        assert [full.elements[k] for k in cols] == [(0, 0), (1, 0)]
        for gamma, lam_idx in zip(full.elements, coset, strict=True):
            # gamma - lambda lies in the stabiliser
            lam = full.elements[cols[lam_idx]]
            assert ((gamma[0] - lam[0]) % 2, (gamma[1] - lam[1]) % 2) in stab

    def test_cosets_match_listed_cosets(self):
        # every stabiliser mask H of every subgroup Gamma, n <= 8, over the
        # sorted elements and over them reversed
        for n in range(2, 9):
            subgroups = fg.subgroup_enumerate(n)
            for sub in subgroups:
                for full in (sub, fg.SubgroupDescr(n=n, generators=sub.generators, elements=sub.elements[::-1])):
                    members = set(full.elements)
                    for stab in (h.elements for h in subgroups if members.issuperset(h.elements)):
                        mask = [gamma in stab for gamma in full.elements]
                        stab_order, cols, coset = fg.lex_coset_representatives(full, mask)
                        minima = oracles.coset_minima(full.elements, stab, n)
                        assert stab_order == len(stab)
                        # the cosets' minima, in lexicographic order: increasing
                        # columns over the sorted elements
                        assert [full.elements[k] for k in cols] == sorted(set(minima))
                        assert full is not sub or cols == sorted(cols)
                        assert [full.elements[cols[i]] for i in coset] == minima
                        for (a, b), (c, d) in zip(full.elements, minima, strict=True):
                            assert ((a - c) % n, (b - d) % n) in stab


def verify_one(sub, window):
    """The scan row of one window, or the violation it raises."""
    (outcome,) = verify_windows(sub, np.asarray(window, dtype=complex)[None, :])
    if isinstance(outcome, TheoremViolationError):
        raise outcome
    return outcome


class TestVerifyDensityTheorem:
    def test_full_group_basis_window(self):
        full = subgroup_by_elements(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        v = verify_one(full, E1)
        assert v["is_frame"] and v["is_riesz"]
        assert v["stab_order"] == 2 and v["lambda_size"] == 2
        assert v["verdict_i"] == "pass" and v["verdict_ii"] == "pass"
        assert v["vol_times_d"] == pytest.approx(0.5)
        assert v["max_identity_residual"] <= 1e-12

    def test_modulation_subgroup_basis_window(self):
        sub = subgroup_by_elements(2, [(0, 0), (0, 1)])
        v = verify_one(sub, E1)
        assert not v["is_frame"]
        assert v["is_riesz"]
        assert v["lambda_size"] == 1
        assert v["verdict_i"] == "na" and v["verdict_ii"] == "pass"
        assert v["vol_times_d"] == pytest.approx(1.0)
        assert v["calibration_deviation"] is None

    def test_full_group_random_window(self):
        rng = np.random.default_rng(56)
        full = max(fg.subgroup_enumerate(3), key=lambda s: s.order)
        g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = verify_one(full, g)
        assert v["is_frame"]
        assert v["stab_order"] == 1
        assert v["verdict_i"] == "pass"

    def test_window_validation(self):
        sub = subgroup_by_elements(2, [(0, 0), (0, 1)])
        with pytest.raises(UsageError):
            verify_windows(sub, np.zeros((1, 2)))
        with pytest.raises(DimensionError):
            verify_windows(sub, np.ones(2))


def scan_csv(n_max, **kwargs) -> str:
    """The scan table as the CLI writes it in CSV mode."""
    columns, _ = fg.exhaustive_scan(n_max, **kwargs)
    stream = io.StringIO()
    cli.Emitter("csv", stream).table("scan_row", {c: columns[c] for c in fg.SCAN_CSV_COLUMNS})
    return stream.getvalue()


class TestBatchedScan:
    def test_eigensolves_scale_with_batches_not_cases(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):

            def counting(*args, _original=getattr(np.linalg, name), **kwargs):
                calls.append(name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        columns, violations = fg.exhaustive_scan(5, windows_per_case=4, seed=7)
        monkeypatch.undo()
        batches = 0
        for n in range(2, 6):
            for si, sub in enumerate(fg.subgroup_enumerate(n)):
                _, windows = fg.scan_windows(n, si, 4, 7)
                batches += len(stabilizers(sub, windows))
        # a per-case design makes four eigensolves per case
        assert 4 * batches < len(columns["n"]) + len(violations)
        assert len(calls) <= 4 * batches

    def test_two_n_by_n_eigensolves_per_pass(self, monkeypatch):
        shapes = []
        for name in ("eigh", "eigvalsh"):

            def counting(a, *args, _original=getattr(np.linalg, name), **kwargs):
                shapes.append(np.shape(a))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        columns, violations = fg.exhaustive_scan(7, windows_per_case=6, seed=1)
        monkeypatch.undo()
        expected, nontrivial = [], 0
        for n in range(2, 8):
            windows, transversals = 0, 0
            for si, sub in enumerate(fg.subgroup_enumerate(n)):
                _, stack = fg.scan_windows(n, si, 6, 1)
                windows += len(stack)
                transversals += sum(len(members) for stab, members in stabilizers(sub, stack) if len(stab) > 1)
            expected += [(windows, n, n), (transversals, n, n)]
            nontrivial += transversals
        # each n <= 7 is one pass: its full orbits' frame operators in one
        # eigensolve, its nontrivial transversals' in another; a trivial
        # stabiliser's transversal is the full orbit. No |Gamma| x |Gamma| or
        # |Lambda| x |Lambda| Gram.
        assert shapes == expected
        # 52 calls with one batch per (n, order), 78 calls and 1942 matrices
        # when every class was eigensolved
        assert len(shapes) == 12
        assert sum(math.prod(shape[:-2]) for shape in shapes) == 1229
        assert len(columns["n"]) + len(violations) + nontrivial == 1229

    def test_trivial_stabilizer_spectrum_is_the_transversal_eigensolve(self, monkeypatch):
        trivial = []
        parseval = frames.parseval_norm_check

        def recording(V_full, V_red, R_full, R_red, lam_index, stab_order, *, generator):
            if stab_order == 1:
                trivial.append((V_full, V_red, R_full, R_red))
            return parseval(V_full, V_red, R_full, R_red, lam_index, stab_order, generator=generator)

        monkeypatch.setattr(frames, "parseval_norm_check", recording)
        for n in range(2, 7):
            for si, sub in enumerate(fg.subgroup_enumerate(n)):
                # reversed elements make each trivial transversal a true
                # column permutation of the full orbit
                reversed_sub = fg.SubgroupDescr(n=n, generators=sub.generators, elements=sub.elements[::-1])
                _, windows = fg.scan_windows(n, si, 6, 3)
                expected = verify_windows(sub, windows)
                for got, want in zip(verify_windows(reversed_sub, windows), expected):
                    for name, value in want.items():
                        if isinstance(value, float):
                            assert abs(got[name] - value) <= 1e-12
                        else:
                            assert got[name] == value
        monkeypatch.undo()
        assert any(not np.array_equal(V_red, V_full) for V_full, V_red, *_ in trivial)
        for V_full, V_red, R_full, R_red in trivial:
            # the pass hands the full orbit's inverse square root to the transversal
            assert R_red is R_full
            w_full, _ = linalg.hermitian_eigen(frames.frame_operator(V_full))
            w_red, U_red = linalg.hermitian_eigen(frames.frame_operator(V_red))
            scale = w_full[:, -1:]
            assert np.array_equal(linalg.rank(w_red), linalg.rank(w_full))
            assert np.all(np.abs(w_red - w_full) <= 1e-12 * scale)
            R_gap = np.abs(linalg.inverse_sqrt(w_red, U_red) - R_full).max(axis=(-2, -1))
            assert np.all(R_gap <= 1e-9 * np.abs(R_full).max(axis=(-2, -1)))

    @pytest.mark.parametrize("seed", [1, 4])
    def test_pass_budget_changes_only_the_number_of_passes(self, monkeypatch, seed):
        # a fault keyed by window content hits the same window under every budget
        _, windows = fg.scan_windows(6, 12, 6, seed)
        target = windows[-2]
        original = frames.parseval_norm_check

        def corrupt(*args, generator, **kwargs):
            max_dev, gen_psq = original(*args, generator=generator, **kwargs)
            hit = [np.array_equal(g, target) for g in generator]
            return np.where(hit, 1.0, max_dev), gen_psq

        passes = []  # per pass: its order count, window count, n and eigensolve stack sizes
        verify_pass = fg._verify_pass

        def recording(batches):
            stack = [windows for cases in batches for _, windows in cases]
            passes.append((len(batches), sum(map(len, stack)), stack[0].shape[-1], []))
            return verify_pass(batches)

        def counting(a, *args, _original=np.linalg.eigh, **kwargs):
            passes[-1][-1].append(len(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(frames, "parseval_norm_check", corrupt)
        monkeypatch.setattr(fg, "_verify_pass", recording)
        monkeypatch.setattr(np.linalg, "eigh", counting)
        reports, orders_per_pass, eigensolves = [], [], []
        for budget in (fg.PASS_STACK_BYTES, 1 << 16, 0):
            monkeypatch.setattr(fg, "PASS_STACK_BYTES", budget)
            passes.clear()
            reports.append(fg.exhaustive_scan(7, windows_per_case=6, seed=seed))
            for orders, count, n, stacks in passes:
                assert max(stacks) <= count
                # only a pass of one order may exceed the budget
                assert orders == 1 or count * n * n * 16 <= budget
                assert all(k * n * n * 16 <= budget for k in stacks) or orders == 1
            orders_per_pass.append([orders for orders, *_ in passes])
            eigensolves.append(sum(len(stacks) for *_, stacks in passes))
        monkeypatch.undo()
        default, middle, per_order = orders_per_pass
        # each n <= 7 one pass, some passes of several orders, one pass per (n, order)
        assert len(default) == 6
        assert len(default) < len(middle) < len(per_order) == 26
        assert max(middle) > 1 and set(per_order) == {1}
        # per (n, order): the full orbits' and the nontrivial transversals'
        # eigensolves, where one batch per (n, order) made 52 with one per
        # nontrivial stabiliser order
        assert (eigensolves[0], eigensolves[2]) == (12, 46)
        (violation,) = reports[0][1]
        assert violation["window_id"] == "rand004"
        assert all(report == reports[0] for report in reports[1:])

    def test_batch_classes_equal_per_subgroup_classes(self):
        for n in range(2, 9):
            by_order = itertools.groupby(enumerate(fg.subgroup_enumerate(n)), lambda item: item[1].order)
            for _, group in by_order:
                subgroups, stacks, expected = [], [], []
                offset = 0
                for si, sub in group:
                    _, windows = fg.scan_windows(n, si, 3, 4)
                    for stab, members in stabilizers(sub, windows):
                        expected.append((len(subgroups), stab, (members + offset).tolist()))
                    subgroups.append(sub)
                    stacks.append(windows)
                    offset += len(windows)
                g = np.concatenate(stacks)
                owner = np.repeat(np.arange(len(stacks)), [len(w) for w in stacks])
                V = np.concatenate([fg.orbit_system(w, sub.elements) for sub, w in zip(subgroups, stacks)])
                got = [
                    (si, tuple(itertools.compress(subgroups[si].elements, mask)), members.tolist())
                    for si, mask, members in fg.stabilizer_classes(subgroups, owner, g, V)
                ]
                assert got == expected

    @pytest.mark.parametrize("seed", [2, 9])
    @pytest.mark.parametrize("faulty", [False, True], ids=["clean", "faulty"])
    def test_scan_equals_one_subgroup_at_a_time(self, monkeypatch, seed, faulty):
        if faulty:
            # a fault keyed by window content hits the same windows on both paths
            original = frames.parseval_norm_check

            def corrupt(*args, generator, **kwargs):
                max_dev, gen_psq = original(*args, generator=generator, **kwargs)
                return np.where(generator[:, 0].real > 1.0, 2.0, max_dev), gen_psq

            monkeypatch.setattr(frames, "parseval_norm_check", corrupt)
        columns, scan_violations = fg.exhaustive_scan(6, windows_per_case=3, seed=seed)
        rows, violations = [], []
        for n in range(2, 7):
            for si, sub in enumerate(fg.subgroup_enumerate(n)):
                window_ids, windows = fg.scan_windows(n, si, 3, seed)
                for window_id, outcome in zip(window_ids, verify_windows(sub, windows)):
                    if isinstance(outcome, TheoremViolationError):
                        violations.append(
                            {
                                "n": n,
                                "subgroup_gens": sub.gens_text(),
                                "window_id": window_id,
                                "seed": seed,
                                "message": str(outcome),
                            }
                        )
                    else:
                        rows.append(dict(outcome, window_id=window_id))
        assert column_rows(columns) == rows
        assert scan_violations == violations
        assert bool(violations) == faulty

    def test_violation_names_its_own_subgroup_within_a_batch(self, monkeypatch):
        # the order-4 subgroups of Z_4 x Z_4 share one batch; "const" is in all of them and
        # its orbit over <(2,1)> differs from its orbit over every other one
        n, seed = 4, 3
        subgroups = [sub for sub in fg.subgroup_enumerate(n) if sub.order == 4]
        (target_sub,) = [sub for sub in subgroups if sub.gens_text() == "(2,1)"]
        const = np.ones(n, dtype=complex) / np.sqrt(n)
        target = fg.orbit_system(const, target_sub.elements)
        orbits = [fg.orbit_system(const, sub.elements) for sub in subgroups]
        assert sum(np.array_equal(V, target) for V in orbits) == 1
        clean = fg.exhaustive_scan(n, windows_per_case=2, seed=seed)
        original = frames.parseval_norm_check

        def corrupt(V_full, *args, **kwargs):
            max_dev, gen_psq = original(V_full, *args, **kwargs)
            return np.where([np.array_equal(V, target) for V in V_full], 1.0, max_dev), gen_psq

        monkeypatch.setattr(frames, "parseval_norm_check", corrupt)
        report = fg.exhaustive_scan(n, windows_per_case=2, seed=seed)
        hit_row = (n, "(2,1)", "const")
        clean_rows = column_rows(clean[0])
        expected = [row for row in clean_rows if (row["n"], row["subgroup_gens"], row["window_id"]) != hit_row]
        assert len(expected) == len(clean_rows) - 1
        columns, (violation,) = report
        assert column_rows(columns) == expected
        assert (violation["n"], violation["subgroup_gens"], violation["window_id"]) == hit_row
        assert violation["message"] == (
            "canonical Parseval norm identity deviation 1.000e+00 "
            f"[n={n}, gens=(2,1), window={const.tolist()!r}]"
        )

    def test_batch_matches_one_window_at_a_time(self):
        n = 4
        for si, sub in enumerate(fg.subgroup_enumerate(n)):
            _, windows = fg.scan_windows(n, si, 3, 9)
            for window, batched in zip(windows, verify_windows(sub, windows)):
                single = verify_one(sub, window)
                for name in ("stab_order", "lambda_size", "is_frame", "is_riesz", "verdict_i"):
                    assert single[name] == batched[name]
                assert abs(single["max_identity_residual"] - batched["max_identity_residual"]) <= 1e-12

    def test_violation_isolated_to_its_window(self, monkeypatch):
        n, seed = 3, 5
        subgroups = fg.subgroup_enumerate(n)
        si = len(subgroups) - 1
        sub = subgroups[si]
        window_ids, windows = fg.scan_windows(n, si, 3, seed)
        target = windows[window_ids.index("rand001")]
        clean = fg.exhaustive_scan(n, windows_per_case=3, seed=seed)
        original = frames.parseval_norm_check

        def corrupt(*args, generator, **kwargs):
            max_dev, gen_psq = original(*args, generator=generator, **kwargs)
            hit = [np.array_equal(g, target) for g in generator]
            return np.where(hit, 1.0, max_dev), gen_psq

        monkeypatch.setattr(frames, "parseval_norm_check", corrupt)
        report = fg.exhaustive_scan(n, windows_per_case=3, seed=seed)
        hit_row = (n, sub.gens_text(), "rand001")
        clean_rows = column_rows(clean[0])
        expected = [row for row in clean_rows if (row["n"], row["subgroup_gens"], row["window_id"]) != hit_row]
        assert len(expected) == len(clean_rows) - 1
        columns, (violation,) = report
        assert column_rows(columns) == expected
        assert (violation["n"], violation["subgroup_gens"], violation["window_id"]) == hit_row
        message = violation["message"]
        assert message.startswith("canonical Parseval norm identity deviation 1.000e+00")
        assert message.endswith(f"[n={n}, gens={sub.gens_text()}, window={target.tolist()!r}]")


    def test_first_failed_check_is_reported(self, monkeypatch):
        # the S-relation is checked before the Parseval identity
        n, seed = 3, 5
        subgroups = fg.subgroup_enumerate(n)
        sub = subgroups[-1]
        _, windows = fg.scan_windows(n, len(subgroups) - 1, 3, seed)
        target = windows[-1]
        s_relation, parseval = frames.operator_relation_residual, frames.parseval_norm_check
        (target_operator,) = frames.frame_operator(fg.orbit_system(target[None], sub.elements))

        def hit(V_full):
            # column 0 of an orbit matrix is its window
            return [np.array_equal(V[:, 0], target) for V in V_full]

        def bad_s_relation(S_full, S_red, stab_order):
            # the scan hands over the frame operators V V*, not the orbits
            hit_operator = [np.allclose(S, target_operator, rtol=0.0, atol=1e-12) for S in S_full]
            return np.where(hit_operator, 2.0, s_relation(S_full, S_red, stab_order))

        def bad_parseval(V_full, *args, **kwargs):
            max_dev, gen_psq = parseval(V_full, *args, **kwargs)
            return np.where(hit(V_full), 1.0, max_dev), gen_psq

        monkeypatch.setattr(frames, "operator_relation_residual", bad_s_relation)
        monkeypatch.setattr(frames, "parseval_norm_check", bad_parseval)
        *others, outcome = verify_windows(sub, windows)
        assert not any(isinstance(o, TheoremViolationError) for o in others)
        assert isinstance(outcome, TheoremViolationError)
        assert str(outcome).startswith(f"frame operator relation residual 2.000e+00 [n={n},")
        # with the S-relation intact, the same window fails on the Parseval identity
        monkeypatch.setattr(frames, "operator_relation_residual", s_relation)
        outcome = verify_windows(sub, windows)[-1]
        assert str(outcome).startswith("canonical Parseval norm identity deviation 1.000e+00 [")


class TestScanWindows:
    def test_deterministic(self):
        ids, windows = fg.scan_windows(5, 3, 4, 11)
        again_ids, again = fg.scan_windows(5, 3, 4, 11)
        assert ids == again_ids
        assert windows.tobytes() == again.tobytes()
        assert ids[-4:] == ["rand000", "rand001", "rand002", "rand003"]
        assert windows.shape == (len(ids), 5) and windows.dtype == complex

    def test_stream_is_pinned(self):
        # real parts, then imaginary parts, of gauss(0, 1) seeded with "7,3,0"; the
        # golden scan compares residuals only to the roundoff floor, so a changed
        # stream would pass it
        _, windows = fg.scan_windows(3, 0, 1, 7)
        assert windows[-1].tolist() == [
            0.5911155492089387 + 1.5464049600370928j,
            0.25753635129713537 + 0.9760596072034069j,
            1.4451526877659804 + 0.27333374545212974j,
        ]

    def test_random_windows_are_the_gauss_stream(self):
        for seed, n, si in [(0, 2, 0), (7, 3, 0), (1, 6, 12), (9, 12, 40), (3, 16, 82)]:
            _, windows = fg.scan_windows(n, si, 5, seed)
            rng = random.Random(f"{seed},{n},{si}")
            draws = np.array([rng.gauss(0.0, 1.0) for _ in range(2 * n * 5)]).reshape(5, 2, n)
            assert windows[-5:].real.tobytes() == draws[:, 0].tobytes()
            assert windows[-5:].imag.tobytes() == draws[:, 1].tobytes()

    def test_fewer_windows_are_a_prefix(self):
        for n, si, seed in [(2, 0, 0), (6, 7, 3), (12, 40, 9)]:
            ids3, w3 = fg.scan_windows(n, si, 3, seed)
            ids6, w6 = fg.scan_windows(n, si, 6, seed)
            assert ids6[: len(ids3)] == ids3
            assert w6[: len(w3)].tobytes() == w3.tobytes()
            ids0, w0 = fg.scan_windows(n, si, 0, seed)
            assert list(fg.structured_windows(n)[0]) == ids0
            assert w0.tobytes() == w3[: len(w0)].tobytes()

    def test_windows_differ_across_seed_n_and_subgroup(self):
        first = {}
        for seed, n, si in itertools.product(range(4), range(2, 7), range(5)):
            _, windows = fg.scan_windows(n, si, 1, seed)
            first[seed, n, si] = tuple(windows[-1, :2].tolist())
        assert len(set(first.values())) == len(first)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_windows_have_trivial_stabilizers(self, seed):
        rows = column_rows(fg.exhaustive_scan(6, windows_per_case=6, seed=seed)[0])
        random_rows = [row for row in rows if row["window_id"].startswith("rand")]
        assert len(random_rows) == 6 * sum(len(fg.subgroup_enumerate(n)) for n in range(2, 7))
        assert {row["stab_order"] for row in random_rows} == {1}


class TestScan:
    def test_small_scan_clean(self):
        columns, violations = fg.exhaustive_scan(2, windows_per_case=10, seed=7)
        assert len(columns["n"]) == 5 * (10 + 2 + 1)
        assert not violations
        for row in column_rows(columns):
            assert row["max_identity_residual"] <= 1e-10

    def test_deterministic_bytes(self):
        a = scan_csv(3, windows_per_case=5, seed=11)
        b = scan_csv(3, windows_per_case=5, seed=11)
        assert a == b
        c = scan_csv(3, windows_per_case=5, seed=12)
        assert a != c

    def test_csv_header(self):
        header = scan_csv(2, windows_per_case=1, seed=0).splitlines()[0]
        assert header == ",".join(fg.SCAN_CSV_COLUMNS)

    def test_orbit_stack_bytes_counts_the_largest_order_batch(self):
        for n in range(2, 17):
            orders = [sub.order for sub in fg.subgroup_enumerate(n)]
            cases = 5 + len(fg.structured_windows(n)[0])
            largest = max(order * orders.count(order) for order in orders)
            assert fg.orbit_stack_bytes(n, 5) == largest * cases * n * 16
        # n = 16 with 50 windows: 31 subgroups of order 16, 70 windows each
        assert fg.orbit_stack_bytes(16, 50) == 31 * 70 * 16 * 16 * 16

    def test_orbit_stack_over_the_cap_is_refused(self, monkeypatch):
        cap = fg.orbit_stack_bytes(4, 2)
        assert fg.orbit_stack_bytes(5, 2) > cap
        monkeypatch.setattr(fg, "ORBIT_STACK_BYTE_CAP", cap)
        assert not fg.exhaustive_scan(4, windows_per_case=2, seed=0)[1]
        with pytest.raises(ResourceLimitError, match=f"at n = 5, over the cap of {cap} bytes"):
            fg.exhaustive_scan(5, windows_per_case=2, seed=0)

    def test_n_max_validation(self):
        with pytest.raises(UsageError):
            fg.exhaustive_scan(0)
        with pytest.raises(UsageError):
            fg.exhaustive_scan(17)
