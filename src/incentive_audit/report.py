"""Report documents: structured (JSON) and aligned-text rendering.

The structured form is a plain dict tree of JSON types only, so it
round-trips losslessly through ``json.dumps``/``json.loads`` and is
byte-identical across reruns (keys are emitted sorted).  Exact rational
values appear as ``{"decimal": ..., "rational": "p/q"}`` nodes; floats
stay plain numbers.  Field names are stable; see docs/report_schema.md.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Optional, Sequence

from .audit import AuditReport, EquilibriumSection, PropertyVerdict
from .expr import Number, evaluate
from .game import ActionProfile
from .solve import EquilibriumResult

SCHEMA_AUDIT = "incentive-audit/report.v1"
SCHEMA_EQUILIBRIUM = "incentive-audit/equilibrium.v1"
SCHEMA_ORACLE = "incentive-audit/oracle.v1"


def number_node(x: Number) -> Any:
    if isinstance(x, float):
        return x
    frac = Fraction(x)
    return {"decimal": float(frac), "rational": str(frac)}


def profile_node(profile: ActionProfile | Sequence[Number]) -> list:
    return [number_node(v) for v in profile]


def _verdict_node(v: PropertyVerdict) -> dict:
    return {
        "name": v.name,
        "status": v.status,
        "note": v.note,
        "tolerance": v.tolerance,
        "witnesses": [dict(sorted(w.items())) for w in v.witnesses],
        "data": dict(sorted(v.data.items())),
    }


def equilibrium_node(eq: EquilibriumResult,
                      operator_cost: Optional[Number] = None) -> dict:
    node = {
        "profile": profile_node(eq.profile),
        "residual": eq.residual,
        "method": eq.method,
        "converged": True,
        "exact": eq.exact,
    }
    if operator_cost is not None:
        node["operator_cost"] = number_node(operator_cost)
    return node


def _section_node(section: EquilibriumSection, operator_cost_expr,
                  opt_outs) -> dict:
    outcome = section.outcome
    j_real = evaluate(operator_cost_expr, outcome.realized.values)
    net = j_real - outcome.total_incentive
    return {
        "realized_profile": profile_node(outcome.realized),
        "anchor_baseline": None if outcome.baseline is None
        else profile_node(outcome.baseline.profile),
        "incentives": [number_node(t) for t in outcome.t_values],
        "total_incentive": number_node(outcome.total_incentive),
        "marginal_costs": [number_node(th)
                           for th in section.decomposition.theta],
        "excess_cost": number_node(section.decomposition.total_excess),
        "operator_cost": number_node(j_real),
        "operator_net_cost": number_node(net),
        "tolerance": section.tolerance,
        "properties": [_verdict_node(v) for v in section.verdicts],
        "conditions": [_verdict_node(v) for v in section.conditions],
        "opt_out_profiles": None if opt_outs is None
        else [None if eq is None else profile_node(eq.profile)
              for eq in opt_outs],
    }


def audit_document(report: AuditReport, operator_cost_expr) -> dict:
    ctx = report.ctx
    baseline = []
    for eq in ctx.baseline:
        cost = evaluate(operator_cost_expr, eq.profile.values)
        baseline.append(equilibrium_node(eq, cost))
    return {
        "schema": SCHEMA_AUDIT,
        "scenario": report.scenario_label,
        "agents": list(ctx.game.names),
        "exact": report.exact,
        "operator_optimum": {
            "profile": profile_node(ctx.optimum.profile),
            "value": number_node(ctx.optimum.value),
            "on_boundary": ctx.optimum.on_boundary,
        },
        "baseline_equilibria": baseline,
        "sections": [_section_node(s, operator_cost_expr, ctx.opt_outs)
                     for s in report.sections],
        "game_conditions": [_verdict_node(v) for v in report.game_conditions],
        "scheme_pattern": report.scheme_pattern,
    }


def to_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# text rendering


def _fmt_node(node: Any) -> str:
    if isinstance(node, dict) and set(node) == {"decimal", "rational"}:
        dec = f"{node['decimal']:.12g}"
        if "/" in node["rational"]:
            return f"{dec} (= {node['rational']})"
        return dec
    if isinstance(node, float):
        return f"{node:.12g}"
    if isinstance(node, bool):
        return "yes" if node else "no"
    if node is None:
        return "-"
    return str(node)


def _fmt_profile(nodes: Optional[list]) -> str:
    if nodes is None:
        return "-"
    return "(" + ", ".join(_fmt_node(v) for v in nodes) + ")"


def _verdict_lines(items: list[dict], indent: str) -> list[str]:
    if not items:
        return []
    width = max(len(v["name"]) for v in items)
    lines = []
    for v in items:
        status = v["status"]
        if v["note"]:
            status = f"{status}  [{v['note']}]"
        lines.append(f"{indent}{v['name']:<{width}}  {status}")
        for w in v["witnesses"]:
            detail = ", ".join(f"{k}={_fmt_node(val)}"
                               for k, val in w.items())
            lines.append(f"{indent}  - {detail}")
    return lines


def render_audit_text(doc: dict) -> str:
    lines = [f"scenario: {doc['scenario']}",
             f"agents:   {', '.join(doc['agents'])}",
             f"exact arithmetic: {'yes' if doc['exact'] else 'no'}",
             ""]
    opt = doc["operator_optimum"]
    lines.append("operator optimum")
    lines.append(f"  profile: {_fmt_profile(opt['profile'])}")
    lines.append(f"  value:   {_fmt_node(opt['value'])}")
    if opt["on_boundary"]:
        lines.append("  note:    minimizer sits on the action bounds")
    lines.append("")
    lines.append("baseline equilibria (no incentive)")
    if not doc["baseline_equilibria"]:
        lines.append("  none verified")
    for k, eq in enumerate(doc["baseline_equilibria"], 1):
        lines.append(
            f"  {k}. {_fmt_profile(eq['profile'])}  "
            f"operator cost {_fmt_node(eq['operator_cost'])}  "
            f"[{eq['method']}, residual {eq['residual']:.3g}]")
    for k, section in enumerate(doc["sections"], 1):
        lines.append("")
        lines.append(f"outcome {k}")
        lines.append(f"  realized profile:  "
                     f"{_fmt_profile(section['realized_profile'])}")
        if section["anchor_baseline"] is not None:
            lines.append(f"  anchored baseline: "
                         f"{_fmt_profile(section['anchor_baseline'])}")
        pairs = ", ".join(
            f"{name}={_fmt_node(t)}"
            for name, t in zip(doc["agents"], section["incentives"]))
        lines.append(f"  incentives:        {pairs}")
        lines.append(f"  total incentive:   "
                     f"{_fmt_node(section['total_incentive'])}")
        lines.append(f"  marginal costs:    "
                     f"{_fmt_profile(section['marginal_costs'])}")
        lines.append(f"  excess cost:       {_fmt_node(section['excess_cost'])}")
        lines.append(f"  operator net cost: "
                     f"{_fmt_node(section['operator_net_cost'])}")
        if section["opt_out_profiles"] is not None:
            for name, prof in zip(doc["agents"], section["opt_out_profiles"]):
                lines.append(f"  opt-out of {name}:     {_fmt_profile(prof)}")
        lines.append("  properties")
        lines.extend(_verdict_lines(section["properties"], "    "))
        lines.append("  conditions")
        lines.extend(_verdict_lines(section["conditions"], "    "))
    lines.append("")
    lines.append("game-level conditions")
    lines.extend(_verdict_lines(doc["game_conditions"], "  "))
    if doc.get("scheme_pattern"):
        lines.append("")
        lines.append("scheme property pattern (Y = unconditional, C = conditional)")
        for prop, cell in sorted(doc["scheme_pattern"].items()):
            cond = f"  (condition: {cell['condition']})" if cell["condition"] else ""
            lines.append(f"  {prop:<22} {cell['claim']}{cond}")
    return "\n".join(lines) + "\n"


def render_equilibrium_text(doc: dict) -> str:
    lines = [f"scenario: {doc['scenario']}",
             f"agents:   {', '.join(doc['agents'])}", ""]
    for k, eq in enumerate(doc["equilibria"], 1):
        lines.append(f"{k}. profile {_fmt_profile(eq['profile'])}  "
                     f"operator cost {_fmt_node(eq['operator_cost'])}  "
                     f"net cost {_fmt_node(eq['operator_net_cost'])}  "
                     f"[{eq['method']}, residual {eq['residual']:.3g}]")
    if not doc["equilibria"]:
        lines.append("no equilibrium verified")
    return "\n".join(lines) + "\n"


def render_oracle_text(doc: dict) -> str:
    lines = [f"scenario: {doc['scenario']}",
             f"grid:     {doc['grid_points_per_axis']} points per axis "
             f"(step {doc['grid_step']:.6g})", ""]
    lines.append("grid equilibria")
    if not doc["grid_equilibria"]:
        lines.append("  none")
    for k, prof in enumerate(doc["grid_equilibria"], 1):
        lines.append(f"  {k}. {_fmt_profile(prof)}")
    gm = doc["grid_minimum"]
    lines.append(f"grid operator minimum: {_fmt_profile(gm['profile'])}  "
                 f"value {_fmt_node(gm['value'])}")
    lines.append("")
    lines.append("cross-check against the analytic pipeline")
    for item in doc["diagnostics"]:
        lines.append(f"  {item}")
    return "\n".join(lines) + "\n"
