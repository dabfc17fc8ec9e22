"""Structured verification outcomes with stable JSON serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import __version__
from .errors import InternalError

CLAIM_THM1 = "thm1-full-torsion"
CLAIM_LEM32 = "lem32-distinct-kernels"
CLAIM_LEM42 = "lem42-lattice-dims"
CLAIM_THM2 = "thm2-construction"
CLAIM_COUNTEREXAMPLE = "counterexample-v2-w1"
CLAIM_NECESSITY = "necessity-abstract"

VERIFIED = "verified"
VIOLATED = "violated"
NOT_APPLICABLE = "not-applicable"


@dataclass
class VerificationReport:
    """Parameters, counts, claim statuses and replayable violation
    witnesses for one verification run."""

    parameters: dict
    counts: dict = field(default_factory=dict)
    paper_claims: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)
    timing: dict = field(default_factory=dict)
    version: str = __version__

    def add_violation(self, claim: str, witness: dict):
        witness = dict(witness)
        witness["claim"] = claim
        self.violations.append(witness)
        self.paper_claims[claim] = VIOLATED

    def finish(self, seconds: float) -> "VerificationReport":
        self.timing = {"seconds": round(seconds, 6)}
        self.validate()
        return self

    def validate(self):
        bad = [c for c, s in self.paper_claims.items() if s == VIOLATED]
        if bool(self.violations) != bool(bad):
            raise InternalError(
                "report invariant broken: violations list and claim statuses disagree"
            )

    @property
    def clean(self) -> bool:
        return not self.violations

    def to_json(self, indent=None) -> str:
        data = {
            "version": self.version,
            "parameters": self.parameters,
            "counts": self.counts,
            "claims": self.paper_claims,
            "violations": self.violations,
            "timing": self.timing,
        }
        return json.dumps(data, sort_keys=True, indent=indent)

    def text_summary(self) -> str:
        lines = [f"isogeny-lab report (v{self.version})"]
        lines.append("parameters: " + json.dumps(self.parameters, sort_keys=True))
        for k in sorted(self.counts):
            lines.append(f"  {k}: {self.counts[k]}")
        for c in sorted(self.paper_claims):
            lines.append(f"  claim {c}: {self.paper_claims[c]}")
        if self.violations:
            lines.append(f"  VIOLATIONS: {len(self.violations)}")
            for v in self.violations[:10]:
                lines.append("    " + json.dumps(v, sort_keys=True))
        else:
            lines.append("  no violations")
        if self.timing:
            lines.append(f"  time: {self.timing.get('seconds', '?')} s")
        return "\n".join(lines)


def merge_reports(parameters: dict, reports: list[VerificationReport]) -> VerificationReport:
    """Deterministic ordered reduction of per-task reports into one."""
    out = VerificationReport(parameters=parameters)
    seconds = 0.0
    for rep in reports:
        for k, v in rep.counts.items():
            if isinstance(v, (int, float)):
                out.counts[k] = out.counts.get(k, 0) + v
            elif isinstance(v, dict) and all(
                isinstance(x, (int, float)) for x in v.values()
            ):
                slot = out.counts.setdefault(k, {})
                for kk, vv in v.items():
                    slot[kk] = slot.get(kk, 0) + vv
        for claim, status in rep.paper_claims.items():
            prev = out.paper_claims.get(claim)
            if status == VIOLATED or prev == VIOLATED:
                out.paper_claims[claim] = VIOLATED
            elif status == VERIFIED or prev == VERIFIED:
                out.paper_claims[claim] = VERIFIED
            else:
                out.paper_claims[claim] = NOT_APPLICABLE
        out.violations.extend(rep.violations)
        seconds += rep.timing.get("seconds", 0.0)
    out.timing = {"seconds": round(seconds, 6)}
    out.validate()
    return out
