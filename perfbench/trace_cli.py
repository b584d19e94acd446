"""Run one orbitdensity CLI command in-process, with spans around each layer.

Usage: python3 perfbench/trace_cli.py RUN_ID OUT.json ARG...

The public functions listed in TARGETS are wrapped in place, by module or
class attribute, before ``orbitdensity.cli.main(ARGS)`` is called; the
program itself is not changed. Each call records a span (name, start, end,
parent) in memory, plus per-function call counts, self time (span minus
child spans), errors raised, and work counts derived from argument or
return sizes. OUT.json is written once, after the command returns. The
CLI's stdout passes through unchanged and its exit code is this process's.

The per-pair inner-product oracles (``bergman.orbit_inner``,
``frames.vector_inner``) are deliberately not wrapped: they run millions of
times per command, so their cost stays inside the caller's self time and
their call count is derived from system sizes (``inner_calls``).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


def _square_len(args, kwargs, result):
    m = len(args[0])
    return {"entries": m * m, "inner_calls": m * m}


def _probe_calls(args, kwargs, result):
    m, p = len(args[0]), len(args[1])
    return {"inner_calls": m * p + p * p}


def _s_relation_calls(args, kwargs, result):
    p = len(args[3])
    return {"inner_calls": p * (len(args[0]) + len(args[1]))}


def _eigen_size(args, kwargs, result):
    n = len(args[0])
    return {"n3_sum": n**3}


def _result_len(args, kwargs, result):
    return {"vectors": len(result)}


def _ball_size(args, kwargs, result):
    return {"ball_size": len(result.elements)}


def _grid_nodes(args, kwargs, result):
    return {"nodes": args[0].node_count}


# module -> {attribute path: (work counter or None, per-layer metric fields)}
# The fields are the per-function metrics that run.py reports as
# ``<module>.<path>.<field>``: ``self_s``, ``calls``, ``errors`` or a count
# that the work counter returns.
TARGETS = {
    "cli": {"Emitter.record": (None, ()), "Emitter.summary": (None, ())},
    "finite_gabor": {
        "verify_density_theorem": (None, ("self_s", "calls", "errors")),
        "orbit_system": (_result_len, ("self_s",)),
        "projective_stabilizer_finite": (None, ("self_s",)),
        "lex_coset_representatives": (None, ("self_s",)),
        "subgroup_enumerate": (None, ("self_s",)),
        "ScanReport.to_csv": (None, ()),
    },
    "frames": {
        "gram": (_square_len, ("self_s", "calls", "entries")),
        "riesz_extremes": (None, ("self_s",)),
        "frame_bounds_probe": (_probe_calls, ("self_s",)),
        "check_S_relation": (_s_relation_calls, ("self_s",)),
        "check_span_equality": (None, ("self_s",)),
        "parseval_norm_check": (None, ("self_s",)),
        "biorthogonality_check": (None, ("self_s",)),
        "frame_extremes_finite": (None, ("self_s",)),
        "density_sandwich_check": (None, ()),
        "density_verdict": (None, ()),
    },
    "linalg": {
        "hermitian_eigen": (_eigen_size, ("self_s", "calls", "n3_sum")),
        "numerical_rank": (None, ()),
        "inverse_sqrt_psd": (None, ()),
        "generalized_rayleigh_extremes": (None, ()),
    },
    "bergman": {
        "orbit_system": (_result_len, ("self_s", "vectors")),
        "projective_stabilizer_kernel": (None, ("self_s",)),
        "formal_degree": (None, ("self_s",)),
        "probe_kernels": (None, ("self_s",)),
    },
    "fuchsian": {
        "ball_enumerate": (_ball_size, ("self_s",)),
        "brute_force_integer_ball": (None, ("self_s",)),
        "coset_representatives": (None, ("self_s",)),
        "stabilizer_of_point": (None, ("self_s",)),
        "lattice_covolume": (None, ("self_s",)),
    },
    "hyperbolic": {"integrate_invariant": (_grid_nodes, ("self_s", "nodes"))},
}


def reported_fields(targets=TARGETS) -> dict:
    """``{"<module>.<path>": fields}`` for every target with per-layer metrics."""
    return {
        f"{module}.{path}": fields
        for module, functions in targets.items()
        for path, (_, fields) in functions.items()
        if fields
    }


ROOT_SPAN = "cli.main"


class Tracer:
    """Wraps the target functions in place; ``restore`` undoes it.

    A target that does not exist (renamed or removed by a later change) is
    listed in ``missing`` and otherwise ignored. A counter that no longer
    fits its function's arguments is listed in ``counter_failures``.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []  # (name, start, end, parent index or -1)
        self.stats = {}  # name -> {"calls", "total_s", "self_s", "errors", counts...}
        self.missing = []
        self.counter_failures = set()
        self._stack = []  # [span index, child seconds]
        self._patched = []  # (owner, attribute, original)

    def install(self):
        modules = {}
        for module_name in self.targets:
            try:
                modules[module_name] = importlib.import_module(f"orbitdensity.{module_name}")
            except ImportError:
                pass
        for module_name, functions in self.targets.items():
            for path, (counter, _) in functions.items():
                name = f"{module_name}.{path}"
                owner, attr = modules.get(module_name), path
                if owner is not None and "." in path:
                    class_name, attr = path.split(".", 1)
                    owner = getattr(owner, class_name, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if not callable(original):
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, original, counter)
                # functions imported by name into other modules are replaced there too
                holders = [owner] if "." in path else list(modules.values())
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._patched.append((holder, key, original))
                            setattr(holder, key, wrapper)
        return self

    def restore(self):
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    def _wrap(self, name, fn, counter):
        stats = self.stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0})
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats["errors"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                spans[index] = (name, start, end, parent)
                stats["calls"] += 1
                stats["total_s"] += duration
                stats["self_s"] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if counter is not None:
                try:
                    counts = counter(args, kwargs, result)
                except (AttributeError, IndexError, TypeError):
                    self.counter_failures.add(name)
                else:
                    for key, value in counts.items():
                        stats[key] = stats.get(key, 0) + value
            return result

        return traced

    def call(self, fn, *args):
        """Call ``fn`` under the root span."""
        return self._wrap(ROOT_SPAN, fn, None)(*args)

    def report(self, run_id, argv, exit_code):
        origin = self.spans[0][1] if self.spans else 0.0
        return {
            "run_id": run_id,
            "argv": list(argv),
            "exit_code": exit_code,
            "missing": self.missing,
            "counter_failures": sorted(self.counter_failures),
            "functions": self.stats,
            "span_fields": ["name", "start_s", "end_s", "parent"],
            "spans": [
                [name, start - origin, end - origin, parent]
                for name, start, end, parent in self.spans
            ],
        }


def main(argv):
    run_id, out_path, cli_argv = argv[0], argv[1], argv[2:]
    tracer = Tracer().install()
    from orbitdensity import cli

    try:
        exit_code = tracer.call(cli.main, cli_argv)
    finally:
        tracer.restore()
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.report(run_id, cli_argv, exit_code), fh)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
