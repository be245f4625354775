"""Per-layer tracing of ogrlab from outside its source tree.

`Tracer.install()` replaces each traced function or method of ogrlab
wherever an ogrlab module or class binds it (a `from .x import f` copy
included), and `uninstall()` puts the originals back; no file under `src/`
changes.  Timed wrappers keep a span stack on the single thread the
benchmark runs on, so a layer's self time is its span's duration minus the
time its traced children cover.  Times are that thread's CPU time, the
clock of the untraced runs.  Very hot inner calls are counted but not
timed, which keeps the tracing overhead small.
"""
from __future__ import annotations

import importlib
import sys

from speedprobe import clock


class Stat:
    """Counters of one traced layer entry point."""

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.extra = {}

    def bump(self, key, amount=1):
        self.extra[key] = self.extra.get(key, 0) + amount


def _bits(x):
    if hasattr(x, "re"):  # GaussianRational
        return max(_bits(x.re), _bits(x.im))
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _point_bits(stat, args, result):
    bits = max(_bits(v) for v in result.coords.values())
    stat.extra["point_bits"] = max(stat.extra.get("point_bits", 0), bits)


def _built(stat, args, result):
    polys = [item[-1] if isinstance(item, tuple) else item for item in result]
    stat.bump("quadrics", len(polys))
    stat.bump("terms", sum(len(p.terms) for p in polys))


def _evaluated(stat, args, result):
    stat.bump("terms", len(args[0].terms))
    stat.bump("nonzero", int(result != 0))


def _added(stat, args, result):
    stat.bump("grew", int(bool(result)))


def _tested(stat, args, result):
    stat.bump("passed", int(result.verdict))


def _solved_cell(stat, args, result):
    stat.extra.setdefault("cells", set()).add(result.positroid.sort_key())


def _least_squares(stat, args, result):
    stat.bump("nfev", int(result.nfev))
    stat.bump("converged", int(bool(result.success)))


# (layer name, traced attributes under ogrlab, timed, hook run on the result)
SPECS = [
    ("exact_core.minors", ["exact_core.minors"], True, None),
    ("exact_core.det", ["exact_core.Mat.det"], True, None),
    ("forms_points.sample_isotropic", ["forms_points.sample_isotropic"], True, None),
    ("forms_points.plucker", ["forms_points.Subspace.plucker"], True, _point_bits),
    ("ideal_gens.build", [
        "ideal_gens.plucker_relations",
        "ideal_gens.orthogonality_relations",
        "ideal_gens.all_straightening_mu",
        "ideal_gens.all_straightening_lambda",
    ], True, _built),
    ("ideal_gens.evaluate", ["ideal_gens.Polynomial.evaluate"], True, _evaluated),
    ("ideal_gens.span_add", ["ideal_gens.Degree2Span.add"], True, _added),
    ("ideal_gens.span_reduce", ["ideal_gens.Degree2Span.reduce"], True, None),
    ("ideal_gens.leading_monomial", ["ideal_gens.TermOrder.leading_monomial"], True, None),
    ("posets.is_standard_monomial", ["posets.is_standard_monomial"], True, None),
    ("posets.count_standard_monomials", ["posets.count_standard_monomials"], True, None),
    ("weyl.weyl_dim", ["weyl.weyl_dim"], True, None),
    ("orthopositroids.decorated_permutations",
     ["orthopositroids.enumerate_decorated_permutations"], True, None),
    ("orthopositroids.from_dperm", ["orthopositroids.Positroid.from_dperm"], True, None),
    ("orthopositroids.is_orthopositroid", ["orthopositroids.is_orthopositroid"], True, _tested),
    # about 1.2 million calls per ortho-enum-3-7 repetition: counted, not timed
    ("orthopositroids.a_sets", ["orthopositroids.a_sets"], False, None),
    ("orthopositroids.cell_dim", ["orthopositroids.cell_dim_in_ogr_numeric"], True, _solved_cell),
    ("orthopositroids.least_squares", ["orthopositroids.least_squares"], True, _least_squares),
]


def _ratio(num, den):
    return num / den if den else 0.0


def _bindings(path):
    """Every (owner, name, raw attribute) that binds the object at `path`.

    A method is patched on its class.  A module-level function is patched in
    every loaded ogrlab module that binds the same object, because
    `from .x import f` makes a second binding that callers look up.
    """
    module, *attrs = path.split(".")
    owner = importlib.import_module(f"ogrlab.{module}")
    for attr in attrs[:-1]:
        owner = getattr(owner, attr)
    name = attrs[-1]
    if isinstance(owner, type):
        return [(owner, name, owner.__dict__[name])]
    target = getattr(owner, name)
    return [
        (mod, attr, value)
        for mod_name, mod in list(sys.modules.items())
        if mod_name == "ogrlab" or mod_name.startswith("ogrlab.")
        for attr, value in list(vars(mod).items())
        if value is target
    ]


class Tracer:
    """Wraps the layers listed in SPECS and collects their counters."""

    def __init__(self):
        self.stats = {name: Stat() for name, _, _, _ in SPECS}
        self._stack = []
        self._patched = []

    def _timed(self, func, stat, hook):
        stack = self._stack

        def wrapper(*args, **kwargs):
            start = clock()
            stack.append(0)
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stat.calls += 1
                stat.self_ns += end - start - stack.pop()
                if stack:
                    stack[-1] += end - start
            if hook is not None:
                # the hook's own time is covered for the parent, so it
                # lands in no layer's self time (it is trace overhead)
                hook_start = clock()
                hook(stat, args, result)
                if stack:
                    stack[-1] += clock() - hook_start
            return result

        return wrapper

    @staticmethod
    def _counted(func, stat):
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return func(*args, **kwargs)

        return wrapper

    def install(self):
        for name, paths, timed, hook in SPECS:
            stat = self.stats[name]
            for path in paths:
                for owner, attr, raw in _bindings(path):
                    func = raw.__func__ if isinstance(raw, classmethod) else raw
                    new = self._timed(func, stat, hook) if timed else self._counted(func, stat)
                    if isinstance(raw, classmethod):
                        new = classmethod(new)
                    setattr(owner, attr, new)
                    self._patched.append((owner, attr, raw))

    def uninstall(self):
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    def self_seconds(self) -> float:
        return sum(stat.self_ns for stat in self.stats.values()) / 1e9

    def metrics(self) -> dict:
        """The per-layer metrics, named module.function.stat."""
        s = self.stats
        out = {}
        for name in ("exact_core.minors", "exact_core.det", "forms_points.sample_isotropic",
                     "ideal_gens.evaluate", "ideal_gens.span_add", "ideal_gens.span_reduce",
                     "ideal_gens.leading_monomial", "posets.is_standard_monomial",
                     "orthopositroids.from_dperm", "orthopositroids.is_orthopositroid",
                     "orthopositroids.a_sets", "orthopositroids.cell_dim",
                     "orthopositroids.least_squares"):
            out[f"{name}.calls"] = s[name].calls
        for name, stat in s.items():
            if name != "orthopositroids.a_sets":
                out[f"{name}.self_s"] = stat.self_ns / 1e9
        out["forms_points.point_bits"] = s["forms_points.plucker"].extra.get("point_bits", 0)
        build = s["ideal_gens.build"].extra
        out["ideal_gens.build.quadrics"] = build.get("quadrics", 0)
        out["ideal_gens.build.terms"] = build.get("terms", 0)
        evaluate = s["ideal_gens.evaluate"].extra
        out["ideal_gens.evaluate.terms"] = evaluate.get("terms", 0)
        out["ideal_gens.evaluate.nonzero"] = evaluate.get("nonzero", 0)
        add = s["ideal_gens.span_add"]
        out["ideal_gens.span_add.rank_growth_ratio"] = _ratio(add.extra.get("grew", 0), add.calls)
        test = s["orthopositroids.is_orthopositroid"]
        out["orthopositroids.is_orthopositroid.pass_ratio"] = _ratio(
            test.extra.get("passed", 0), test.calls)
        cell = s["orthopositroids.cell_dim"]
        cells = len(cell.extra.get("cells", ()))
        out["orthopositroids.cell_dim.retry_ratio"] = _ratio(cell.calls - cells, cells)
        lsq = s["orthopositroids.least_squares"]
        out["orthopositroids.least_squares.nfev"] = lsq.extra.get("nfev", 0)
        out["orthopositroids.least_squares.converged_ratio"] = _ratio(
            lsq.extra.get("converged", 0), lsq.calls)
        return out
