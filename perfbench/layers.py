"""Per-layer metrics of the benchmark and what each one should move.

Layers are named after the permtop modules. `TARGETS` lists the public
names the traced run wraps; `EXPECT` is the layer-to-metric map: for each
per-layer metric, the end-to-end metrics it should move, the workloads it
should move them on, and the workloads where it should not move at all.
Every per-layer metric reported with `--trace 1` is a key of `EXPECT`.
"""

from __future__ import annotations

KINDS = ("tp", "zpp", "zp", "zariski", "cent")


def _subbase_span(args, kwargs):
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    return f"oracle.subbase.{spec.kind}"


def _word_masks_counts(args, kwargs, out):
    n = args[1] if len(args) > 1 else kwargs["n"]
    max_vars = args[2] if len(args) > 2 else kwargs["max_vars"]
    # Words the enumeration visits: 2^m sign patterns times n^m constant
    # tuples for each length m. Computed from the arguments, not counted.
    words = sum((2 * n) ** m for m in range(1, max_vars + 1))
    return {"kernels.word_masks.masks": len(out), "kernels.word_masks.words": words}


def _subbase_counts(args, kwargs, out):
    return {f"{_subbase_span(args, kwargs)}.sets": len(out)}


def _rows_counts(args, kwargs, out):
    return {"kernels.commuting_rows.rows": len(out)}


def _dc_counts(args, kwargs, out):
    return {"central.double_centralizer.outputs": len(out)}


# (module, dotted attribute, span or counter name, how, hook)
#   how = "span": timed span with self time, recorded with its parent span
#   how = "count": call counter only, for names hot enough that a span
#                  would dominate the traced time
# A span name may be a callable of the call's arguments.
TARGETS = [
    ("permtop.perm", "ResiduePerm.__init__", "perm.init", "count", None),
    ("permtop.perm", "ResiduePerm.__mul__", "perm.mul", "span", None),
    ("permtop.perm", "ResiduePerm.inverse", "perm.inverse", "span", None),
    ("permtop.perm", "image", "perm.image", "span", None),
    *[("permtop.epset", f"EPSet.{op}", "epset.ops", "span", None)
      for op in ("__and__", "__or__", "__sub__", "complement", "__invert__",
                 "issubset", "isdisjoint")],
    ("permtop.subbase", "member", "subbase.member", "span", None),
    *[("permtop.witness", fn, "witness", "span", None)
      for fn in ("t1_separator", "stabilizer_closed_witness", "escape_witness",
                 "closed_ball_witness", "point_support_witness",
                 "isolation_witness")],
    *[("permtop.tbeta", fn, "tbeta", "span", None)
      for fn in ("validate_partition", "stabilizes", "nbhd_member",
                 "disjoint_mover_set", "infinite_support_stabilizer",
                 "alpha_basic_equivalence")],
    ("permtop.selfnorm", "certify_self_normalizing", "selfnorm.certify", "span", None),
    ("permtop.selfnorm", "SDElement.__mul__", "selfnorm.sd_mul", "count", None),
    ("permtop.selfnorm", "FreeWord.shifted", "selfnorm.shifted", "count", None),
    ("permtop.central", "double_centralizer_window", "central.double_centralizer",
     "span", _dc_counts),
    ("permtop.central", "centralizer_equals_stabilizer", "central.stabilizer_check",
     "span", None),
    ("permtop.kernels", "commuting_rows", "kernels.commuting_rows", "span", _rows_counts),
    ("permtop.kernels", "word_inequality_masks", "kernels.word_masks", "span",
     _word_masks_counts),
    *[("permtop.oracle", fn, "oracle.group_build", "span", None)
      for fn in ("build_group", "FiniteGroup.symmetric", "FiniteGroup.from_table_text",
                 "FiniteGroup.from_table_file")],
    ("permtop.oracle", "generate_subbase", _subbase_span, "span", _subbase_counts),
    ("permtop.oracle", "min_neighborhoods", "oracle.min_nbhd", "span", None),
    ("permtop.oracle", "compare", "oracle.compare", "span", None),
    ("permtop.oracle", "classify_continuity", "oracle.continuity", "span", None),
]

# Units of per-layer metrics: `.calls`, `.rows`, `.masks` and `.sets` are
# counts per traced pass, `.self_s` is seconds of self time per traced pass.
UNITS = {"calls": "count", "rows": "count", "masks": "count", "sets": "count",
         "self_s": "s"}
RATIO_UNITS = {
    "kernels.word_masks.yield": "masks/word",
    "central.dc_yield": "outputs/row",
    "trace.overhead_frac": "frac",
    "trace.outside_frac": "frac",
}

_L0 = dict(moves=("pass_cpu_s", "task_p50_ms"), on=("algebra",),
           unchanged=("oracle",))
_SELFNORM = dict(moves=("pass_cpu_s", "task_tail_ms"), on=("algebra",), unchanged=())
_L1L2 = dict(moves=("task_p50_ms",), on=("algebra",), unchanged=())
_KERNEL_WORDS = dict(moves=("pass_cpu_s",), on=("oracle",),
                     unchanged=("algebra", "centralizer"))
_SUBBASE = dict(moves=("pass_cpu_s",), on=("oracle",), unchanged=())
_ORACLE = dict(moves=("pass_cpu_s", "task_tail_ms"), on=("oracle",), unchanged=())
_CENTRAL = dict(moves=("pass_cpu_s", "task_tail_ms", "peak_rss_mb"), on=("centralizer",),
                unchanged=("algebra", "oracle"))
_TRACE = dict(moves=(), on=(), unchanged=())

EXPECT = {
    "perm.init.calls": _L0,
    "perm.mul.calls": _L0,
    "perm.mul.self_s": _L0,
    "perm.inverse.self_s": _L0,
    "perm.image.self_s": _L0,
    "epset.ops.self_s": _L0,
    "selfnorm.certify.calls": _SELFNORM,
    "selfnorm.certify.self_s": _SELFNORM,
    "selfnorm.sd_mul.calls": _SELFNORM,
    "selfnorm.shifted.calls": _SELFNORM,
    "subbase.member.calls": _L1L2,
    "subbase.member.self_s": _L1L2,
    "witness.self_s": _L1L2,
    "tbeta.self_s": _L1L2,
    "kernels.word_masks.self_s": _KERNEL_WORDS,
    "kernels.word_masks.masks": _KERNEL_WORDS,
    "kernels.word_masks.yield": _KERNEL_WORDS,
    **{f"oracle.subbase.{k}.{m}": _SUBBASE for k in KINDS for m in ("self_s", "sets")},
    "oracle.group_build.self_s": _ORACLE,
    "oracle.min_nbhd.self_s": _ORACLE,
    "oracle.compare.self_s": _ORACLE,
    "oracle.continuity.self_s": _ORACLE,
    "central.double_centralizer.calls": _CENTRAL,
    "central.double_centralizer.self_s": _CENTRAL,
    "central.stabilizer_check.self_s": _CENTRAL,
    "kernels.commuting_rows.rows": _CENTRAL,
    "kernels.commuting_rows.self_s": _CENTRAL,
    "central.dc_yield": _CENTRAL,
    "trace.overhead_frac": _TRACE,
    "trace.outside_frac": _TRACE,
}


def unit_of(metric: str) -> str:
    return RATIO_UNITS.get(metric) or UNITS[metric.rsplit(".", 1)[1]]
