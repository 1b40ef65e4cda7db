"""Outside-in tracing of confcoh's layers, from the benchmark's own files.

``Tracer.install`` replaces the public functions listed in ``TARGETS`` with
wrappers that record one span per call: name, start, end, parent span and
job id.  A function imported into several modules (``from .cochain import
d_basic`` in ``engine`` and ``cli``) has one binding per module; every
binding that holds the original function is replaced, so calls through any
of them are seen.  Methods are replaced on their class, together with their
aliases (``__rmul__ = __mul__``).

Spans are kept in flat arrays and written out once, by ``write``, as
gzipped JSON.  Per-layer
metrics are derived from the spans: a span's self time is its duration minus
the durations of its direct children.  Exact counters (calls, rows, nonzeros,
pivots, basis elements) are taken at the same boundaries, outside the timed
interval of the span.
"""

import functools
import gzip
import importlib
import json
import sys
from array import array
from time import perf_counter

# (layer, module, function or Class.method)
TARGETS = [
    ("poly", "confcoh.poly", "RatPoly.__mul__"),
    ("poly", "confcoh.poly", "RatPoly.__add__"),
    ("poly", "confcoh.poly", "RatPoly.subst_many"),
    ("poly", "confcoh.poly", "RatPoly.substitute"),
    ("poly", "confcoh.poly", "RatPoly.coeff_of_lams"),
    ("skew", "confcoh.skew", "skew_basis"),
    ("skew", "confcoh.skew", "monomial_coordinates"),
    ("cochain", "confcoh.cochain", "d_basic"),
    ("cochain", "confcoh.cochain", "d_reduced"),
    ("cochain", "confcoh.cochain", "random_skew_cochain"),
    ("engine", "confcoh.engine", "truncation_sweep"),
    ("engine", "confcoh.engine", "verify_cocycle"),
    ("engine", "confcoh.engine", "apply_differential"),
    ("engine", "confcoh.engine", "cochain_coords"),
    ("linalg", "confcoh.linalg", "sparse_rref"),
    ("linalg", "confcoh.linalg", "kernel_of_columns"),
    ("linalg", "confcoh.linalg", "rank"),
    ("linalg", "confcoh.linalg", "intersection_dim"),
    ("linalg", "confcoh.linalg", "reduce_mod_span"),
    ("linalg", "confcoh.linalg", "solve_columns"),
    ("annihilation", "confcoh.annihilation", "ann_bracket"),
    ("annihilation", "confcoh.annihilation", "jth_product"),
    ("annihilation", "confcoh.annihilation", "phi_eval"),
    ("annihilation", "confcoh.annihilation", "ce_differential_eval"),
    ("annihilation", "confcoh.annihilation", "act_level_on_value"),
    ("liealg", "confcoh.liealg", "Rep.__init__"),
    ("liealg", "confcoh.liealg", "equivariant_maps"),
    ("liealg", "confcoh.liealg", "wedge2_rep"),
    ("liealg", "confcoh.liealg", "sym_power_rep"),
    ("liealg", "confcoh.liealg", "quotient_rep"),
    ("algebra", "confcoh.algebra", "check_skew_symmetry"),
    ("algebra", "confcoh.algebra", "check_jacobi"),
    ("algebra", "confcoh.algebra", "check_associativity"),
    ("algebra", "confcoh.algebra", "check_module"),
    ("algebra", "confcoh.algebra", "check_bimodule"),
    ("extensions", "confcoh.extensions", "extend_algebra"),
    ("extensions", "confcoh.extensions", "deform"),
    ("extensions", "confcoh.extensions", "DeformedAlgebra.check_jacobi_mod_eps2"),
    ("calculus", "confcoh.calculus", "contract_lambda"),
    ("calculus", "confcoh.calculus", "lie_theta"),
    ("cli", "confcoh.cli", "main"),
]

LAYERS = ("poly", "skew", "cochain", "engine", "linalg", "annihilation",
          "liealg", "algebra", "extensions", "calculus", "cli")

_CALL_COUNTED = ("algebra", "extensions", "calculus")

# (metric, unit) in report order; every one is reported for every workload
METRICS = [(f"{layer}.self_s", "s") for layer in LAYERS] + [
    ("poly.mul_calls", "count"),
    ("poly.subst_calls", "count"),
    ("skew.basis_elems", "count"),
    ("cochain.d_calls", "count"),
    ("cochain.d_zero_frac", "frac"),
    ("engine.columns", "count"),
    ("linalg.rref_calls", "count"),
    ("linalg.rref_rows_in", "count"),
    ("linalg.rref_nnz_in", "count"),
    ("linalg.pivot_frac", "frac"),
    ("annihilation.bracket_calls", "count"),
    ("annihilation.bracket_repeat_frac", "frac"),
    ("liealg.rep_builds", "count"),
    ("liealg.rep_dense_ops", "ops"),
    ("algebra.calls", "count"),
    ("extensions.calls", "count"),
    ("calculus.calls", "count"),
]


class Tracer:
    """Spans and exact counters for the wrapped functions of one process."""

    def __init__(self):
        self.names = []  # span name per name id: "layer:function"
        self.layer_of = []  # layer per name id
        self.name_id = array("H")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self.job_id = -1
        self._stack = [-1]
        self._brackets = set()
        self._patches = []

    # -- recording -----------------------------------------------------------

    def begin_job(self, job_id):
        """Spans after this call carry job_id; bracket repeats are per job."""
        self.job_id = job_id
        self._brackets.clear()

    def _count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, layer, name, fn):
        nid = len(self.names)
        self.names.append(f"{layer}:{name}")
        self.layer_of.append(layer)
        pre = _PRE.get(name)
        post = _POST.get(name)
        # layers whose only counter is their number of calls
        calls_key = f"{layer}.calls" if layer in _CALL_COUNTED else None
        tracer = self
        stack = self._stack
        ids, parents, jobs = self.name_id, self.parent, self.job
        starts, ends = self.start, self.end

        def traced(*args, **kwargs):
            if pre is not None:
                args = pre(tracer, args)
            if calls_key is not None:
                tracer._count(calls_key)
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            jobs.append(tracer.job_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if post is not None:
                post(tracer, args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    # -- patching -------------------------------------------------------------

    def install(self):
        """Replace every binding of every target; ``uninstall`` restores them."""
        if not self._patches:
            self._patches = self._bindings()
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    def _bindings(self):
        """(owner, name, original, wrapper) for every binding of every target."""
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if mod is not None
                   and (name == "confcoh" or name.startswith("confcoh."))]
        out = []
        for layer, module_name, qualname in TARGETS:
            module = importlib.import_module(module_name)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owners = [getattr(module, cls_name)]
                original = owners[0].__dict__[attr]
            else:
                owners = modules
                original = getattr(module, qualname)
            wrapper = self._wrap(layer, qualname, original)
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        out.append((owner, key, original, wrapper))
        return out

    # -- results ---------------------------------------------------------------

    def layer_times(self, begin=0):
        """Self seconds per layer over the spans from index ``begin`` on.

        Returns two dicts: plain self time, and self time with the polynomial
        kernel's share charged to the layer that called it (the nearest
        ancestor span outside ``poly``), which shows which layer drives it.
        """
        end = len(self.start)
        self_time = [self.end[i] - self.start[i] for i in range(begin, end)]
        for i in range(begin, end):
            p = self.parent[i]
            if p >= begin:
                self_time[p - begin] -= self.end[i] - self.start[i]
        plain = dict.fromkeys(LAYERS, 0.0)
        by_caller = dict.fromkeys(LAYERS, 0.0)
        owner = []  # layer charged for each span; parents precede children
        for i in range(begin, end):
            layer = self.layer_of[self.name_id[i]]
            plain[layer] += self_time[i - begin]
            p = self.parent[i]
            if layer == "poly" and p >= begin:
                layer = owner[p - begin]
            owner.append(layer)
            by_caller[layer] += self_time[i - begin]
        return plain, by_caller

    def write(self, path, header):
        """Write the spans as one gzipped JSON document.

        ``spans`` holds one list per column; ``start`` and ``end`` are whole
        microseconds from the first span's start.
        """
        origin = self.start[0] if self.start else 0.0

        def micros(column):
            return ",".join(str(round((t - origin) * 1e6)) for t in column)

        columns = {
            "name": ",".join(map(str, self.name_id)),
            "parent": ",".join(map(str, self.parent)),
            "job": ",".join(map(str, self.job)),
            "start": micros(self.start),
            "end": micros(self.end),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write('{"header":%s,"names":%s,"spans":{' % (
                json.dumps(header), json.dumps(self.names)))
            fh.write(",".join(f'"{key}":[{text}]'
                              for key, text in columns.items()))
            fh.write("}}\n")


# ratio metrics: (numerator, denominator) counts
_RATIOS = {
    "cochain.d_zero_frac": ("cochain.d_zero", "cochain.d_calls"),
    "linalg.pivot_frac": ("linalg.rref_pivots", "linalg.rref_rows_in"),
    "annihilation.bracket_repeat_frac": ("annihilation.bracket_repeats",
                                         "annihilation.bracket_calls"),
}


def derive_counters(counts):
    """Exact counters and their ratios, keyed as in ``METRICS``."""
    out = {}
    for name, _ in METRICS:
        if name.endswith(".self_s"):
            continue
        if name in _RATIOS:
            num, den = _RATIOS[name]
            out[name] = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
        else:
            out[name] = counts.get(name, 0)
    return out


# -- counter hooks -------------------------------------------------------------
# A pre hook may return replacement args (to materialize an iterator it reads).


def _pre_mul(tracer, args):
    tracer._count("poly.mul_calls")
    return args


def _pre_subst(tracer, args):
    tracer._count("poly.subst_calls")
    return args


def _pre_rref(tracer, args):
    rows = list(args[0])
    tracer._count("linalg.rref_calls")
    tracer._count("linalg.rref_rows_in", len(rows))
    tracer._count("linalg.rref_nnz_in", sum(len(r) for r in rows))
    return (rows,) + tuple(args[1:])


def _post_rref(tracer, args, kwargs, result):
    tracer._count("linalg.rref_pivots", len(result[1]))


def _post_skew_basis(tracer, args, kwargs, result):
    tracer._count("skew.basis_elems", len(result.elements))


def _post_d(tracer, args, kwargs, result):
    tracer._count("cochain.d_calls")
    if result.is_zero():
        tracer._count("cochain.d_zero")


def _pre_column(tracer, args):
    tracer._count("engine.columns")
    return args


def _pre_bracket(tracer, args):
    algebra, x, y = args
    key = (id(algebra), x, y)
    tracer._count("annihilation.bracket_calls")
    if key in tracer._brackets:
        tracer._count("annihilation.bracket_repeats")
    else:
        tracer._brackets.add(key)
    return args


def _post_rep(tracer, args, kwargs, result):
    rep = args[0]
    tracer._count("liealg.rep_builds")
    if kwargs.get("check", args[4] if len(args) > 4 else True):
        # dense validation: dim(g)^2 commutators of two dim x dim products
        g = rep.algebra.dim
        tracer._count("liealg.rep_dense_ops", 2 * g * g * rep.dim ** 3)


_PRE = {
    "RatPoly.__mul__": _pre_mul,
    "RatPoly.subst_many": _pre_subst,
    "RatPoly.substitute": _pre_subst,
    "sparse_rref": _pre_rref,
    "apply_differential": _pre_column,
    "ann_bracket": _pre_bracket,
}
_POST = {
    "sparse_rref": _post_rref,
    "skew_basis": _post_skew_basis,
    "d_basic": _post_d,
    "d_reduced": _post_d,
    "Rep.__init__": _post_rep,
}
