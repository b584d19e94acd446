"""Command-line driver.

Commands
--------
finite-scan      exhaustive exact verification over finite Weyl-Heisenberg systems
bergman-density  density report for a lattice orbit of Bergman kernels, with
                 the closed-form covolume and formal degree
formal-degree    formal degree by quadrature, with its mesh-halving error
                 estimate and its deviation from the closed form
ball             group-ball enumeration
stabilizer       point and kernel stabilisers of a lattice at a point

Exit codes: 0 success, 1 exact-mode theorem violation, 2 usage error,
3 numerical or resource failure, 4 internal error (a programming bug; the
traceback goes to stderr). Output formats: human, csv (RFC quoting, one
table under a header row; every other record goes to stderr), json (one
object per line plus a final summary object). Floats are printed with 17
significant digits. A flat key=value config file can supply any
parameter; explicit flags win; unknown keys are rejected. Each command
imports only the modules it runs, numpy included, so ``--help`` and a usage
error caught before a command's imports load neither numpy nor any of them.

The process entry is :func:`run`, for both ``python -m orbitdensity.cli``
and the ``orbit-density`` script: it runs :func:`main`, which tests call in
process, then freezes the objects still alive before it exits, so the
interpreter's exit-time garbage collection skips them.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import sys
from typing import TYPE_CHECKING

from .errors import (
    AccuracyError,
    NotRieszError,
    NumericalFailure,
    OracleInconsistencyError,
    ResourceLimitError,
    TheoremViolationError,
    UsageError,
)

if TYPE_CHECKING:
    from .fuchsian import GroupBall, LatticeSpec
    from .hyperbolic import UpperHalfPoint

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_INTERNAL = 4

# OverflowError: a float result left the double range, e.g. a huge weight alpha
_NUMERICAL_FAILURES = (NumericalFailure, ResourceLimitError, NotRieszError, OverflowError)

FORMATS = ("human", "csv", "json")

# configuration keys of the lattice block, accepted by every command
_LATTICE_KEYS = {"lattice.name", "lattice.generators", "lattice.covolume", "lattice.integral"}


def parse_point(text: str) -> UpperHalfPoint:
    """Parse '1.5+0.5i', '2i', 'i' into an upper half-plane point."""
    from .hyperbolic import UpperHalfPoint

    cleaned = text.strip().replace("I", "i").replace("i", "j")
    try:
        z = complex(cleaned)
    except ValueError as exc:
        raise UsageError(f"cannot parse point {text!r}") from exc
    if not z.imag > 0.0:
        raise UsageError(f"point {text!r} is not in the open upper half-plane")
    return UpperHalfPoint(z.real, z.imag)


def parse_grid(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise UsageError(f"grid must look like 400x400, got {text!r}")
    try:
        nx, nt = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise UsageError(f"grid must look like 400x400, got {text!r}") from exc
    if nx < 8 or nt < 8:
        raise UsageError(f"grid must be at least 8x8, got {text!r}")
    return nx, nt


def load_config(path: str) -> dict:
    values = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key = value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in values:
                raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
            values[key] = value.strip()
    return values


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise UsageError(f"cannot parse boolean {text!r}")


def _parse_float(text: str, key: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise UsageError(f"{key}: cannot parse number {text.strip()!r}") from exc


def lattice_from_config(name: str, config: dict) -> LatticeSpec:
    from . import fuchsian
    from .hyperbolic import MoebiusMap

    if name == "psl2z":
        return fuchsian.psl2z()
    if config.get("lattice.name") != name:
        raise UsageError(f"unknown lattice {name!r}; configure a lattice block or use psl2z")
    gens_text = config.get("lattice.generators")
    if not gens_text:
        raise UsageError("lattice block needs lattice.generators (row-major 4-tuples, ';'-separated)")
    generators = []
    for chunk in gens_text.split(";"):
        entries = [_parse_float(v, "lattice.generators") for v in chunk.split(",")]
        if len(entries) != 4:
            raise UsageError(f"generator needs 4 entries, got {chunk!r}")
        generators.append(MoebiusMap(*entries))
    covolume = (
        _parse_float(config["lattice.covolume"], "lattice.covolume")
        if "lattice.covolume" in config
        else None
    )
    integral = _parse_bool(config["lattice.integral"]) if "lattice.integral" in config else False
    return fuchsian.LatticeSpec(
        name=name, generators=tuple(generators), covolume=covolume, is_integral=integral
    )


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if value is None:
        return ""
    return str(value)


class Emitter:
    """Serialises records uniformly into the chosen format.

    A CSV stream holds one table: the records of the first kind written.
    Records of any other kind, and the summary, go to stderr as comment
    lines, so that stdout always parses as a single table.
    """

    def __init__(self, fmt: str, stream):
        self.fmt = fmt
        self.stream = stream
        self._csv_writer = None
        self._csv_columns = None
        self._csv_kind = None

    def record(self, kind: str, data: dict):
        if self.fmt == "json":
            payload = {"type": kind}
            payload.update(data)
            self.stream.write(json.dumps(payload) + "\n")
        elif self.fmt == "csv":
            if self._csv_writer is None:
                self._csv_kind = kind
                self._csv_columns = list(data.keys())
                self._csv_writer = csv.writer(self.stream, lineterminator="\n")
                self._csv_writer.writerow(self._csv_columns)
            if kind == self._csv_kind:
                self._csv_writer.writerow([format_value(data.get(c)) for c in self._csv_columns])
            else:
                print(f"# {kind}: {json.dumps(data)}", file=sys.stderr)
        else:
            self.stream.write(f"[{kind}]\n")
            for key, value in data.items():
                self.stream.write(f"{key} = {format_value(value)}\n")
            self.stream.write("\n")

    def summary(self, data: dict):
        if self.fmt == "json":
            payload = {"type": "summary"}
            payload.update(data)
            self.stream.write(json.dumps(payload) + "\n")
        elif self.fmt == "csv":
            # keep the CSV stream pure data; the summary goes to stderr
            for key, value in data.items():
                print(f"# {key} = {format_value(value)}", file=sys.stderr)
        else:
            self.stream.write("[summary]\n")
            for key, value in data.items():
                self.stream.write(f"{key} = {format_value(value)}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbit-density",
        description="Density conditions for frames and Riesz sequences in lattice orbits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=FORMATS, default=None)
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--config", default=None, help="flat key = value configuration file")
        p.add_argument("--haar-scale", dest="haar_scale", type=float, default=None)

    p = sub.add_parser("finite-scan", help="exhaustive exact verification scan")
    add_common(p)
    p.add_argument("--n-max", dest="n_max", type=int, default=None)
    p.add_argument("--windows", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("bergman-density", help="density report for a Bergman kernel orbit")
    add_common(p)
    p.add_argument("--lattice", default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--z", default=None)
    p.add_argument("--ball", type=float, default=None)
    p.add_argument("--probes", type=int, default=None)
    p.add_argument("--probe-radius", dest="probe_radius", type=float, default=None)
    p.add_argument("--refine-steps", dest="refine_steps", type=int, default=None)
    p.add_argument("--refine-delta", dest="refine_delta", type=float, default=None)
    p.add_argument("--frame-floor", dest="frame_floor", type=float, default=None)
    p.add_argument("--riesz-floor", dest="riesz_floor", type=float, default=None)

    p = sub.add_parser("formal-degree", help="formal degree by quadrature")
    add_common(p)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--z", default=None, help="base point (default i)")
    p.add_argument("--grid", default=None, help="grid resolution, e.g. 400x400")
    p.add_argument("--rel-tol", dest="rel_tol", type=float, default=None)

    p = sub.add_parser("ball", help="enumerate a group ball")
    add_common(p)
    p.add_argument("--lattice", default=None)
    p.add_argument("--norm", type=float, default=None)

    p = sub.add_parser("stabilizer", help="point and kernel stabilisers at a point")
    add_common(p)
    p.add_argument("--lattice", default=None)
    p.add_argument("--z", default=None)
    p.add_argument("--ball", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)

    return parser


class Settings:
    """Merged view of flags, config file, and defaults."""

    def __init__(self, args, config: dict):
        self.args = args
        self.config = config
        # a config key names a parameter of the command's own flags
        allowed = (set(vars(args)) - {"command", "config"}) | _LATTICE_KEYS
        unknown = set(config) - allowed
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")

    def get(self, name: str, default, parse=None):
        value = getattr(self.args, name, None)
        if value is not None:
            return value
        if name in self.config:
            raw = self.config[name]
            if parse is None:
                return raw
            try:
                return parse(raw)
            except ValueError as exc:
                raise UsageError(f"config key {name}: cannot parse {raw!r}") from exc
        return default


def _positive(value: float, name: str) -> float:
    if not value > 0.0:
        raise UsageError(f"{name} must be positive, got {value}")
    return value


def cmd_finite_scan(settings: Settings, emitter: Emitter) -> int:
    n_max = settings.get("n_max", None, int)
    if n_max is None:
        raise UsageError("finite-scan requires --n-max")
    from . import finite_gabor

    windows = settings.get("windows", 50, int)
    seed = settings.get("seed", 0, int)
    if windows < 0 or seed < 0:
        raise UsageError("windows and seed must be nonnegative")
    report = finite_gabor.exhaustive_scan(n_max, windows_per_case=windows, seed=seed)
    for row in report.rows:
        emitter.record("scan_row", {c: row[c] for c in finite_gabor.SCAN_CSV_COLUMNS})
    for violation in report.violations:
        emitter.record("violation", violation)
    emitter.summary(report.summary())
    return EXIT_VIOLATION if report.violations else EXIT_OK


def cmd_formal_degree(settings: Settings, emitter: Emitter) -> int:
    from . import bergman

    alpha = settings.get("alpha", None, float)
    if alpha is None:
        raise UsageError("formal-degree requires --alpha")
    if not alpha > 1.0:
        raise UsageError(f"alpha must exceed 1, got {alpha}")
    weight = bergman.Weight(alpha)
    haar_scale = _positive(settings.get("haar_scale", 1.0, float), "haar_scale")
    base = parse_point(settings.get("z", "i"))
    rel_tol = settings.get("rel_tol", None, float)
    grid_text = settings.get("grid", None)
    grid = None
    if grid_text is not None:
        grid = bergman.default_formal_degree_grid(weight, base, *parse_grid(grid_text))
    degree, diag = bergman.formal_degree(
        weight, grid, base=base, haar_scale=haar_scale, rel_tol=rel_tol, full_output=True
    )
    exact = bergman.formal_degree_closed_form(weight, haar_scale)
    deviation = abs(degree - exact) / exact
    # the mesh-halving estimate does not see the grid's x-range cut-off; the closed form does
    if rel_tol is not None and deviation > rel_tol:
        raise AccuracyError(f"closed_form_rel_deviation {deviation:.3e} exceeds rel_tol {rel_tol:.3e}")
    emitter.record(
        "formal_degree",
        {
            "alpha": alpha,
            "base": f"{base.x}+{base.y}i",
            "haar_scale": haar_scale,
            "formal_degree": degree,
            "est_rel_error": diag["est_rel_error"],
            "closed_form_rel_deviation": deviation,
            "node_count": diag["node_count"],
        },
    )
    emitter.summary({"formal_degree": degree, "est_rel_error": diag["est_rel_error"]})
    return EXIT_OK


def cmd_ball(settings: Settings, emitter: Emitter) -> int:
    from . import fuchsian
    from .hyperbolic import frobenius_sq

    norm = settings.get("norm", None, float)
    if norm is None:
        raise UsageError("ball requires --norm")
    name = settings.get("lattice", "psl2z")
    spec = lattice_from_config(name, settings.config)
    ball = fuchsian.ball_enumerate(spec, norm)
    for (a, b, c, d), norm_sq in zip(ball.elements.tolist(), frobenius_sq(ball.elements).tolist()):
        emitter.record("element", {"a": a, "b": b, "c": c, "d": d, "frobenius_norm": math.sqrt(norm_sq)})
    emitter.summary(
        {
            "lattice": spec.name,
            "norm_bound": norm,
            "size": len(ball.elements),
            "closure_certified": ball.closure_certified,
        }
    )
    return EXIT_OK


def cmd_stabilizer(settings: Settings, emitter: Emitter) -> int:
    import numpy as np

    from . import bergman, fuchsian

    z_text = settings.get("z", None)
    ball_norm = settings.get("ball", None, float)
    if z_text is None or ball_norm is None:
        raise UsageError("stabilizer requires --z and --ball")
    z = parse_point(z_text)
    alpha = settings.get("alpha", 2.0, float)
    if not alpha > 1.0:
        raise UsageError(f"alpha must exceed 1, got {alpha}")
    tol = settings.get("tol", 1e-4, float)
    if not (0.0 < tol <= 1e-4):
        raise UsageError(f"tol must lie in (0, 1e-4], got {tol}")
    name = settings.get("lattice", "psl2z")
    spec = lattice_from_config(name, settings.config)
    ball = fuchsian.ball_enumerate(spec, ball_norm)
    kernel = bergman.KernelVector(z, bergman.Weight(alpha))
    kernel_tol = bergman.kernel_tol_for_point_tol(tol, alpha)
    # raises OracleInconsistencyError unless the kernel and point paths agree as sets
    members, phases = bergman.projective_stabilizer_kernel(
        ball, kernel, bergman.orbit_system(ball.elements, kernel), tol=kernel_tol
    )
    emitter.record(
        "stabilizer",
        {
            "lattice": spec.name,
            "z": f"{z.x}+{z.y}i",
            "ball_norm": ball_norm,
            "ball_size": len(ball.elements),
            "order": len(members),
            "order_kernel": len(members),
            "members": " ".join(
                f"({a:.12g},{b:.12g};{c:.12g},{d:.12g})"
                for a, b, c, d in ball.elements[members].tolist()
            ),
            "max_phase_modulus_error": float(np.max(np.abs(np.abs(phases) - 1.0))),
        },
    )
    emitter.summary({"order": len(members)})
    return EXIT_OK


def _prefix_length(ball: GroupBall, bound_sq: float) -> int:
    """Number of leading ball elements inside the truncation; the ball order
    must be such that exactly these satisfy it."""
    import numpy as np

    from .hyperbolic import frobenius_sq

    inside = frobenius_sq(ball.elements) <= bound_sq
    count = int(np.count_nonzero(inside))
    if not inside[:count].all():
        raise OracleInconsistencyError("truncation is not a leading prefix of the norm-sorted elements")
    return count


def cmd_bergman_density(settings: Settings, emitter: Emitter) -> int:
    import numpy as np

    from . import bergman, frames, fuchsian, linalg

    alpha = settings.get("alpha", None, float)
    if alpha is None:
        raise UsageError("bergman-density requires --alpha")
    if not alpha > 1.0:
        raise UsageError(f"alpha must exceed 1, got {alpha}")
    z_text = settings.get("z", None)
    if z_text is None:
        raise UsageError("bergman-density requires --z")
    z = parse_point(z_text)
    ball_norm = settings.get("ball", None, float)
    if ball_norm is None:
        raise UsageError("bergman-density requires --ball")
    if ball_norm < math.sqrt(2.0):
        raise UsageError(f"ball norm must be at least sqrt(2), got {ball_norm}")
    probes_count = settings.get("probes", 40, int)
    if probes_count < 1:
        raise UsageError(f"probes must be at least 1, got {probes_count}")
    probe_radius = _positive(settings.get("probe_radius", 2.0, float), "probe_radius")
    refine_steps = settings.get("refine_steps", 3, int)
    if refine_steps < 1:
        raise UsageError(f"refine_steps must be at least 1, got {refine_steps}")
    refine_delta = _positive(settings.get("refine_delta", 1.0, float), "refine_delta")
    frame_floor = _positive(settings.get("frame_floor", 1e-6, float), "frame_floor")
    riesz_floor = _positive(settings.get("riesz_floor", 1e-6, float), "riesz_floor")
    haar_scale = _positive(settings.get("haar_scale", 1.0, float), "haar_scale")
    name = settings.get("lattice", "psl2z")
    spec = lattice_from_config(name, settings.config)

    weight = bergman.Weight(alpha)
    kernel = bergman.KernelVector(z, weight)
    covolume = fuchsian.lattice_covolume(spec, haar_scale=haar_scale)
    degree = bergman.formal_degree_closed_form(weight, haar_scale)

    ball = fuchsian.ball_enumerate(spec, ball_norm)
    # the one orbit of the command; every other orbit is a gather from it
    orbit = bergman.orbit_system(ball.elements, kernel)
    stab_members, _phases = bergman.projective_stabilizer_kernel(ball, kernel, orbit)
    stab_order = len(stab_members)
    cosets = fuchsian.coset_representatives(ball, stab_members)
    probes = bergman.probe_kernels(kernel, probes_count, probe_radius)
    gen_norm_sq = bergman.kernel_norm_sq(kernel)

    norms = [
        max(math.sqrt(2.0), ball_norm - refine_delta * (refine_steps - 1 - j))
        for j in range(refine_steps)
    ]
    # Ball elements are sorted by norm and the representatives' ball indices
    # increase, so every truncation below is a leading prefix of both:
    # assemble once at the full radius and slice per step. The Gram of the
    # representatives is the command's one large array: every truncation is
    # validated and eigensolved as a view of it, before the probe matrices
    # are made.
    gamma_counts = [_prefix_length(ball, norm * norm + 1e-9) for norm in norms]
    lam_counts = [int(np.searchsorted(cosets.rep_index, count)) for count in gamma_counts]
    lam_orbit = orbit.take(cosets.rep_index)
    # At a point on a mirror through i, the mirror pairs the representatives
    # within every truncation; rephased, the Gram is eigensolved in real form.
    mirror = fuchsian.point_mirror(spec, z)
    pairing = None
    if mirror is not None:
        pairing = fuchsian.mirror_pairing(ball, cosets, mirror, lam_counts)
        lam_orbit = bergman.mirror_rephased(lam_orbit, mirror)
    riesz_spectra = frames.gram(
        bergman.kernel_gram(lam_orbit, lam_orbit), lam_counts, mirror=pairing
    )
    probe_matrix = bergman.kernel_gram(probes, orbit).T
    whitener = linalg.psd_eigen(
        bergman.kernel_gram(probes, probes).T, name="probe Gram matrix"
    ).whitener()
    # The S-relation compares the synthesis of the fully tiled
    # representatives with that of every rep * h, whose columns come from
    # the other ball elements of each coset.
    fully_tiled = np.all(cosets.tile >= 0, axis=1)
    synth_red = bergman.kernel_gram(orbit.take(cosets.rep_index[fully_tiled]), probes).T
    synth_full = bergman.kernel_gram(orbit.take(cosets.tile[fully_tiled].ravel()), probes).T

    riesz_trace_min, riesz_trace_max = [], []
    probe_trace_min, probe_trace_max = [], []
    reports = []
    for norm, gamma_count, lam_count, riesz_spectrum in zip(
        norms, gamma_counts, lam_counts, riesz_spectra
    ):
        riesz_lo, riesz_hi = riesz_spectrum.extremes
        probe_lo, probe_hi, probe_diag = frames.frame_bounds_probe(
            probe_matrix[:gamma_count], whitener
        )
        riesz_trace_min.append(riesz_lo)
        riesz_trace_max.append(riesz_hi)
        probe_trace_min.append(probe_lo)
        probe_trace_max.append(probe_hi)

        window = min(3, len(probe_trace_min))
        frame_decision = all(
            lo >= frame_floor * probe_hi for lo in probe_trace_min[-window:]
        )
        riesz_decision = all(
            lo >= riesz_floor * max(hi, 0.0)
            for lo, hi in zip(riesz_trace_min[-window:], riesz_trace_max[-window:])
        )

        tiled_count = np.count_nonzero(fully_tiled[:lam_count])
        s_relation_residual = frames.s_relation_residual(
            synth_full[:, : tiled_count * stab_order], synth_red[:, :tiled_count], stab_order
        )
        diagnostics = {
            "truncation_radius": norm,
            "probe_count": probe_diag["probe_count"],
            "probe_rank": probe_diag["probe_rank"],
            "gamma_count": gamma_count,
            "lambda_count": lam_count,
            "ball_certified": ball.closure_certified,
            "s_relation_residual": s_relation_residual,
            "probe_trace_min": list(probe_trace_min),
            "probe_trace_max": list(probe_trace_max),
            "riesz_trace_min": list(riesz_trace_min),
            "riesz_trace_max": list(riesz_trace_max),
        }
        report = frames.density_verdict(
            lattice=spec.name,
            ball_norm=norm,
            covolume=covolume,
            formal_degree=degree,
            stab_order=stab_order,
            gen_norm_sq=gen_norm_sq,
            frame_decision=frame_decision,
            riesz_decision=riesz_decision,
            a_est=probe_lo,
            b_est=probe_hi,
            riesz_min=riesz_lo,
            riesz_max=riesz_hi,
            diagnostics=diagnostics,
        )
        reports.append(report)
        emitter.record("frame_report", report.to_flat_dict())

    final = reports[-1]
    emitter.summary(
        {
            "lattice": spec.name,
            "alpha": alpha,
            "z": f"{z.x}+{z.y}i",
            "stab_order": final.stab_order,
            "covolume": final.covolume,
            "formal_degree": final.formal_degree,
            "density_product": final.density_product,
            "density_bound": final.density_bound,
            "verdict_i_applicable": final.verdict_i_applicable,
            "verdict_i_pass": final.verdict_i_pass,
            "verdict_ii_applicable": final.verdict_ii_applicable,
            "verdict_ii_pass": final.verdict_ii_pass,
            "verdict_consistency": "pass" if final.consistent else "flagged",
            "note": "numerical mode analyses finite truncations; decisions are trend-based, not proofs",
        }
    )
    return EXIT_OK


_COMMANDS = {
    "finite-scan": cmd_finite_scan,
    "bergman-density": cmd_bergman_density,
    "formal-degree": cmd_formal_degree,
    "ball": cmd_ball,
    "stabilizer": cmd_stabilizer,
}


def _join_point_values(argv: list[str]) -> list[str]:
    """Rewrite ``--z VALUE`` as ``--z=VALUE`` when VALUE is a point with a
    negative real part, which argparse would otherwise read as an option."""
    joined = []
    i = 0
    while i < len(argv):
        token = argv[i]
        value = argv[i + 1] if i + 1 < len(argv) else ""
        if token == "--z" and value[:1] == "-" and (value[1:2].isdigit() or value[1:2] == "."):
            token = f"--z={value}"
            i += 1
        joined.append(token)
        i += 1
    return joined


def _open_output(path: str):
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot open output file: {exc}") from exc


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_join_point_values(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        config = load_config(args.config) if args.config else {}
        settings = Settings(args, config)
        fmt = settings.get("format", "human")
        if fmt not in FORMATS:
            raise UsageError(f"format must be one of {FORMATS}, got {fmt!r}")
        out_path = settings.get("out", None)
        if out_path:
            with _open_output(out_path) as fh:
                return _COMMANDS[args.command](settings, Emitter(fmt, fh))
        return _COMMANDS[args.command](settings, Emitter(fmt, sys.stdout))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TheoremViolationError as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (*_NUMERICAL_FAILURES, BrokenPipeError) as exc:
        # a reader that closes the output early is no bug in this program
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception:
        import traceback  # only an internal error pays for this import

        traceback.print_exc()
        print("internal error: this is a bug in orbit-density", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:
    """:func:`main`, then exit with its code, after freezing every object
    still alive; atexit handlers and the final flush still run."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
