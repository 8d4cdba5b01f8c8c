"""Output documents: every report's structure, scenario label and rendering
as JSON or as aligned text, whose layout the document's schema selects.

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

from .audit import (SCHEME_PATTERNS, AuditReport, EquilibriumSection,
                    PropertyVerdict)
from .expr import Number, evaluate
from .game import ActionProfile, IncentiveScheme, Scenario
from .incentive import ScenarioSolve, realized_outcome
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


def _participation(scenario: Scenario) -> str:
    out = sorted(scenario.opted_out)
    if out:
        return "opted out: " + ", ".join(scenario.game.names[i] for i in out)
    return "all participating"


def _audit_label(scenario: Scenario) -> str:
    scheme = scenario.incentive
    if scheme is None:
        return "no incentive"
    return f"{scheme.kind} incentive, {scheme.mode}; {_participation(scenario)}"


def _row_label(scenario: Scenario) -> str:
    """The scenario label of the equilibrium and oracle documents."""
    if scenario.incentive is None:
        return "baseline (no incentive)"
    return f"{scenario.incentive.kind} incentive, {_participation(scenario)}"


def _equilibrium_node(eq: EquilibriumResult, operator_cost: Number) -> dict:
    return {
        "profile": profile_node(eq.profile),
        "residual": eq.residual,
        "method": eq.method,
        "converged": True,
        "exact": eq.profile.exact,
        "operator_cost": number_node(operator_cost),
    }


def _pattern_node(scheme: Optional[IncentiveScheme]) -> Optional[dict]:
    """The scheme's row of the property-comparison table, if it has one."""
    if scheme is None or scheme.kind not in SCHEME_PATTERNS:
        return None
    return {prop: {"claim": claim, "condition": cond}
            for prop, (claim, cond) in SCHEME_PATTERNS[scheme.kind].items()}


def _section_node(section: EquilibriumSection, ctx: ScenarioSolve) -> dict:
    outcome = section.outcome
    j_real = evaluate(ctx.game.operator_cost, outcome.realized.values)
    net = j_real - outcome.total_incentive
    return {
        "realized_profile": profile_node(outcome.realized),
        "anchor_baseline": None if ctx.anticipatory
        else profile_node(outcome.realized),
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
        "opt_out_profiles": None if ctx.opt_outs is None
        else [None if eq is None else profile_node(eq.profile)
              for eq in ctx.opt_outs],
    }


def audit_document(report: AuditReport) -> dict:
    ctx = report.ctx
    baseline = []
    for eq in ctx.baseline:
        cost = evaluate(ctx.game.operator_cost, eq.profile.values)
        baseline.append(_equilibrium_node(eq, cost))
    return {
        "schema": SCHEMA_AUDIT,
        "scenario": _audit_label(ctx.scenario),
        "agents": list(ctx.game.names),
        "exact": report.exact,
        "operator_optimum": {
            "profile": profile_node(ctx.optimum.profile),
            "value": number_node(ctx.optimum.value),
            "on_boundary": ctx.optimum.on_boundary,
        },
        "baseline_equilibria": baseline,
        "sections": [_section_node(s, ctx) for s in report.sections],
        "game_conditions": [_verdict_node(v) for v in report.game_conditions],
        "scheme_pattern": _pattern_node(ctx.scenario.incentive),
    }


def equilibrium_document(ctx: ScenarioSolve) -> dict:
    """The scenario's realized equilibria (its baseline equilibria when it
    has no incentive) with the operator's gross and net cost at each."""
    game = ctx.game
    if ctx.scenario.incentive is None:
        # an empty baseline is a reportable row set, not an error
        rows = [(eq, Fraction(0)) for eq in ctx.baseline]
    else:
        rows = [(outcome.equilibrium, outcome.total_incentive)
                for outcome in realized_outcome(ctx)]
    entries = []
    for eq, paid in rows:
        cost = evaluate(game.operator_cost, eq.profile.values)
        node = _equilibrium_node(eq, cost)
        node["operator_net_cost"] = number_node(cost - paid)
        entries.append(node)
    return {
        "schema": SCHEMA_EQUILIBRIUM,
        "scenario": _row_label(ctx.scenario),
        "agents": list(game.names),
        "equilibria": entries,
    }


def _distance_check(subject: str, point: ActionProfile,
                    others: Sequence[ActionProfile], target: str,
                    step: float) -> tuple[bool, str]:
    """Whether ``point`` lies within one grid step of the nearest of
    ``others``, and the diagnostic line that says so."""
    dist = min((point.max_distance(q) for q in others), default=float("inf"))
    ok = dist <= step + 1e-12
    return ok, (f"{subject} is {dist:.6g} from {target} "
                f"({'ok' if ok else 'DISAGREES'})")


def oracle_document(ctx: ScenarioSolve, grid_eqs: Sequence[ActionProfile],
                    grid_min: tuple[ActionProfile, float],
                    step: float) -> dict:
    """The grid's equilibria and operator minimum, each matched within one
    grid ``step`` against the analytic ones of ``ctx``."""
    gm_profile, gm_value = grid_min
    analytic = [eq.profile for eq in ctx.equilibria(ctx.effective_costs)]
    u_star = ctx.optimum.profile
    checks = [_distance_check(f"analytic equilibrium {tuple(p.as_floats())}",
                              p, grid_eqs, "the nearest grid equilibrium",
                              step)
              for p in analytic]
    checks += [_distance_check(f"grid equilibrium {tuple(g.as_floats())}",
                               g, analytic,
                               "the nearest analytic equilibrium", step)
               for g in grid_eqs]
    checks.append(_distance_check("operator optimum", u_star,
                                  [gm_profile], "the grid minimum", step))
    return {
        "schema": SCHEMA_ORACLE,
        "scenario": _row_label(ctx.scenario),
        "agents": list(ctx.game.names),
        "grid_points_per_axis": ctx.cfg.grid_points_per_axis,
        "grid_step": step,
        "grid_equilibria": [profile_node(p) for p in grid_eqs],
        "grid_minimum": {"profile": profile_node(gm_profile),
                         "value": gm_value},
        "analytic_equilibria": [profile_node(p) for p in analytic],
        "operator_optimum": profile_node(u_star),
        "agreement": all(ok for ok, _ in checks),
        "diagnostics": [line for _, line in checks],
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


def render_text(doc: dict) -> str:
    """The aligned-text form of any document, by its schema."""
    # looked up per call, so the module's current renderers are the ones used
    render = {SCHEMA_AUDIT: render_audit_text,
              SCHEMA_EQUILIBRIUM: render_equilibrium_text,
              SCHEMA_ORACLE: render_oracle_text}[doc["schema"]]
    return render(doc)
