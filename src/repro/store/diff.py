"""Structural profile diffing and regression detection.

Object-relative profiles are *comparable artifacts*: two runs of the
same workload produce documents whose per-(instruction, group) entries,
grammar sizes, and dependence frequencies line up key by key.  The
differ exploits that:

* **LEAP**: per-key LMAD drift -- entries added/removed, descriptor
  count changes, stride-set changes, total-access deltas -- plus
  profile-level movements of the Table 1 quality metrics (bytes per
  access, accesses captured, descriptors per entry).
* **WHOMP**: per-dimension grammar-size deltas (symbols per access is
  the OMSG compression ratio, so growth is compression degradation).
* **dependence**: per-(store, load) frequency changes in the MDF table.

The regression detector turns a diff into verdicts: compression-ratio
or capture degradation past a tolerance is flagged, so a CI job can
fail a run whose profile got structurally worse than the baseline
(``repro-profile diff`` exits nonzero exactly then).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple, Union

from repro.baselines.dependence_lossless import DependenceProfile
from repro.core.profile_io import (
    ProfileFormatError,
    document_from_bytes,
    document_meta,
    profile_from_document,
)
from repro.profilers.leap import LeapProfile

#: default relative-growth tolerance for size/ratio regressions
DEFAULT_RATIO_TOLERANCE = 0.10

#: default absolute-drop tolerance for capture/regularity fractions
DEFAULT_CAPTURE_TOLERANCE = 0.05


@dataclasses.dataclass
class EntryDelta:
    """How one (instruction, group) LEAP entry moved between runs."""

    key: Tuple[int, int]
    lmads_a: int
    lmads_b: int
    total_a: int
    total_b: int
    strides_added: List[Tuple[int, ...]]
    strides_removed: List[Tuple[int, ...]]

    @property
    def changed(self) -> bool:
        return (
            self.lmads_a != self.lmads_b
            or self.total_a != self.total_b
            or bool(self.strides_added)
            or bool(self.strides_removed)
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "instruction": self.key[0],
            "group": self.key[1],
            "lmads": [self.lmads_a, self.lmads_b],
            "total": [self.total_a, self.total_b],
            "strides_added": [list(s) for s in self.strides_added],
            "strides_removed": [list(s) for s in self.strides_removed],
        }


@dataclasses.dataclass
class Regression:
    """One detected degradation between baseline (a) and candidate (b)."""

    metric: str
    baseline: float
    candidate: float
    detail: str

    def to_json(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class ProfileDiff:
    """The structural comparison of two same-format profile documents.

    ``metrics`` holds the per-side summary numbers the regression
    detector consumes; the key sets and ``changed`` list carry the
    per-key drift for human inspection and the JSON report.
    """

    kind: str
    label_a: str
    label_b: str
    added_keys: List[object]
    removed_keys: List[object]
    changed: List[EntryDelta]
    metrics: Dict[str, Dict[str, float]]

    @property
    def identical(self) -> bool:
        return (
            not self.added_keys
            and not self.removed_keys
            and not self.changed
            and all(
                sides.get("a") == sides.get("b")
                for sides in self.metrics.values()
            )
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "a": self.label_a,
            "b": self.label_b,
            "identical": self.identical,
            "added_keys": [list(k) if isinstance(k, tuple) else k
                           for k in self.added_keys],
            "removed_keys": [list(k) if isinstance(k, tuple) else k
                             for k in self.removed_keys],
            "changed": [delta.to_json() for delta in self.changed],
            "metrics": self.metrics,
        }


def _metric(a: float, b: float) -> Dict[str, float]:
    return {"a": a, "b": b}


# -- per-format diffs ---------------------------------------------------------


def diff_leap(a: LeapProfile, b: LeapProfile,
              label_a: str = "a", label_b: str = "b") -> ProfileDiff:
    keys_a = set(a.entries)
    keys_b = set(b.entries)
    changed: List[EntryDelta] = []
    for key in sorted(keys_a & keys_b):
        entry_a, entry_b = a.entries[key], b.entries[key]
        strides_a = {tuple(l.stride) for l in entry_a.lmads}
        strides_b = {tuple(l.stride) for l in entry_b.lmads}
        delta = EntryDelta(
            key=key,
            lmads_a=len(entry_a.lmads),
            lmads_b=len(entry_b.lmads),
            total_a=entry_a.total_symbols,
            total_b=entry_b.total_symbols,
            strides_added=sorted(strides_b - strides_a),
            strides_removed=sorted(strides_a - strides_b),
        )
        if delta.changed:
            changed.append(delta)

    def bytes_per_access(profile: LeapProfile) -> float:
        if not profile.access_count:
            return 0.0
        return profile.size_bytes() / profile.access_count

    def descriptors_per_entry(profile: LeapProfile) -> float:
        if not profile.entries:
            return 0.0
        total = sum(len(e.lmads) for e in profile.entries.values())
        return total / len(profile.entries)

    metrics = {
        "access_count": _metric(a.access_count, b.access_count),
        "entries": _metric(len(a.entries), len(b.entries)),
        "size_bytes": _metric(a.size_bytes(), b.size_bytes()),
        "bytes_per_access": _metric(bytes_per_access(a), bytes_per_access(b)),
        "accesses_captured": _metric(
            a.accesses_captured(), b.accesses_captured()
        ),
        "instructions_captured": _metric(
            a.instructions_captured(), b.instructions_captured()
        ),
        "descriptors_per_entry": _metric(
            descriptors_per_entry(a), descriptors_per_entry(b)
        ),
        "capture_completeness": _metric(
            a.capture_completeness, b.capture_completeness
        ),
    }
    return ProfileDiff(
        kind="leap",
        label_a=label_a,
        label_b=label_b,
        added_keys=sorted(keys_b - keys_a),
        removed_keys=sorted(keys_a - keys_b),
        changed=changed,
        metrics=metrics,
    )


def _whomp_grammar_symbols(document: Dict[str, object]) -> Dict[str, int]:
    """Per-dimension OMSG size (total RHS symbols) straight off the
    serialized document -- no grammar reconstruction needed."""
    sizes: Dict[str, int] = {}
    for name, grammar in document["grammars"].items():
        sizes[name] = sum(
            len(rhs) for rhs in grammar["productions"].values()
        )
    return sizes


def diff_whomp_documents(
    doc_a: Dict[str, object],
    doc_b: Dict[str, object],
    label_a: str = "a",
    label_b: str = "b",
) -> ProfileDiff:
    sizes_a = _whomp_grammar_symbols(doc_a)
    sizes_b = _whomp_grammar_symbols(doc_b)
    metrics: Dict[str, Dict[str, float]] = {}
    for name in sorted(set(sizes_a) | set(sizes_b)):
        metrics[f"grammar_symbols.{name}"] = _metric(
            sizes_a.get(name, 0), sizes_b.get(name, 0)
        )
    count_a = int(doc_a.get("access_count", 0))
    count_b = int(doc_b.get("access_count", 0))
    total_a = sum(sizes_a.values())
    total_b = sum(sizes_b.values())
    metrics["access_count"] = _metric(count_a, count_b)
    metrics["grammar_symbols.total"] = _metric(total_a, total_b)
    metrics["symbols_per_access"] = _metric(
        total_a / count_a if count_a else 0.0,
        total_b / count_b if count_b else 0.0,
    )
    metrics["groups"] = _metric(
        len(doc_a.get("group_labels", {})), len(doc_b.get("group_labels", {}))
    )
    metrics["capture_completeness"] = _metric(
        document_meta(doc_a)[0], document_meta(doc_b)[0]
    )
    return ProfileDiff(
        kind="whomp",
        label_a=label_a,
        label_b=label_b,
        added_keys=sorted(set(sizes_b) - set(sizes_a)),
        removed_keys=sorted(set(sizes_a) - set(sizes_b)),
        changed=[],
        metrics=metrics,
    )


def diff_dependence(
    a: DependenceProfile,
    b: DependenceProfile,
    label_a: str = "a",
    label_b: str = "b",
) -> ProfileDiff:
    keys_a = set(a.conflicts)
    keys_b = set(b.conflicts)
    changed: List[EntryDelta] = []
    for key in sorted(keys_a & keys_b):
        if a.conflicts[key] != b.conflicts[key]:
            changed.append(
                EntryDelta(
                    key=key,
                    lmads_a=0,
                    lmads_b=0,
                    total_a=a.conflicts[key],
                    total_b=b.conflicts[key],
                    strides_added=[],
                    strides_removed=[],
                )
            )
    metrics = {
        "conflict_pairs": _metric(len(keys_a), len(keys_b)),
        "conflict_total": _metric(
            sum(a.conflicts.values()), sum(b.conflicts.values())
        ),
    }
    return ProfileDiff(
        kind="dependence",
        label_a=label_a,
        label_b=label_b,
        added_keys=sorted(keys_b - keys_a),
        removed_keys=sorted(keys_a - keys_b),
        changed=changed,
        metrics=metrics,
    )


# -- entry points -------------------------------------------------------------


def diff_blobs(
    data_a: Union[bytes, bytearray],
    data_b: Union[bytes, bytearray],
    label_a: str = "a",
    label_b: str = "b",
) -> ProfileDiff:
    """Diff two serialized profile documents of the same format.

    Each side may be either encoding (JSON or BINCAP binary) -- the
    structural diff works off the decoded documents, so a binary run
    diffs cleanly against a JSON baseline.  Every malformed input
    raises :class:`ProfileFormatError` (parse failures included), never
    a bare ``json.JSONDecodeError``.
    """
    doc_a = document_from_bytes(data_a)
    doc_b = document_from_bytes(data_b)
    fmt_a = doc_a.get("format")
    fmt_b = doc_b.get("format")
    if fmt_a != fmt_b:
        raise ProfileFormatError(
            f"cannot diff a {fmt_a} profile against a {fmt_b} profile"
        )
    if fmt_a == "whomp":
        return diff_whomp_documents(doc_a, doc_b, label_a, label_b)
    a = profile_from_document(doc_a)
    b = profile_from_document(doc_b)
    if isinstance(a, LeapProfile) and isinstance(b, LeapProfile):
        return diff_leap(a, b, label_a, label_b)
    if isinstance(a, DependenceProfile) and isinstance(b, DependenceProfile):
        return diff_dependence(a, b, label_a, label_b)
    raise ProfileFormatError(f"format {fmt_a!r} has no structural diff")


def diff_texts(
    text_a: str, text_b: str, label_a: str = "a", label_b: str = "b"
) -> ProfileDiff:
    """Text-level convenience wrapper around :func:`diff_blobs`."""
    return diff_blobs(
        text_a.encode("utf-8"), text_b.encode("utf-8"), label_a, label_b
    )


def detect_regressions(
    diff: ProfileDiff,
    ratio_tolerance: float = DEFAULT_RATIO_TOLERANCE,
    capture_tolerance: float = DEFAULT_CAPTURE_TOLERANCE,
) -> List[Regression]:
    """Degradations from side a (baseline) to side b (candidate).

    Two families of checks:

    * *ratio metrics* (bytes per access, symbols per access,
      descriptors per entry) regress when they **grow** by more than
      ``ratio_tolerance`` relative -- the profile compresses worse or
      the accesses got less regular;
    * *capture metrics* (accesses/instructions captured, capture
      completeness) regress when they **drop** by more than
      ``capture_tolerance`` absolute.
    """
    regressions: List[Regression] = []
    ratio_metrics = {
        "bytes_per_access": "LEAP profile grew per access (compression-"
        "ratio degradation)",
        "symbols_per_access": "OMSG grammar grew per access (compression-"
        "ratio degradation)",
        "descriptors_per_entry": "more LMADs needed per entry (stride-"
        "regularity degradation)",
    }
    capture_metrics = {
        "accesses_captured": "fewer accesses captured inside LMADs",
        "instructions_captured": "fewer instructions completely captured",
        "capture_completeness": "more tuples quarantined during capture",
    }
    for name, explanation in ratio_metrics.items():
        sides = diff.metrics.get(name)
        if not sides:
            continue
        baseline, candidate = sides["a"], sides["b"]
        if baseline > 0 and candidate > baseline * (1.0 + ratio_tolerance):
            regressions.append(
                Regression(name, baseline, candidate, explanation)
            )
    for name, explanation in capture_metrics.items():
        sides = diff.metrics.get(name)
        if not sides:
            continue
        baseline, candidate = sides["a"], sides["b"]
        if candidate < baseline - capture_tolerance:
            regressions.append(
                Regression(name, baseline, candidate, explanation)
            )
    return regressions


def render_diff(diff: ProfileDiff, regressions: List[Regression]) -> str:
    """Human-readable diff report (the CLI's default output)."""
    lines = [
        f"{diff.kind} diff: {diff.label_a} -> {diff.label_b}"
        + ("  (identical)" if diff.identical else ""),
    ]
    if diff.added_keys:
        lines.append(f"  added keys ({len(diff.added_keys)}): "
                     + ", ".join(str(k) for k in diff.added_keys[:8])
                     + ("..." if len(diff.added_keys) > 8 else ""))
    if diff.removed_keys:
        lines.append(f"  removed keys ({len(diff.removed_keys)}): "
                     + ", ".join(str(k) for k in diff.removed_keys[:8])
                     + ("..." if len(diff.removed_keys) > 8 else ""))
    for delta in diff.changed[:12]:
        parts = []
        if delta.lmads_a != delta.lmads_b:
            parts.append(f"LMADs {delta.lmads_a}->{delta.lmads_b}")
        if delta.total_a != delta.total_b:
            parts.append(f"total {delta.total_a}->{delta.total_b}")
        if delta.strides_added:
            parts.append(f"+strides {delta.strides_added}")
        if delta.strides_removed:
            parts.append(f"-strides {delta.strides_removed}")
        lines.append(f"  {delta.key}: " + ", ".join(parts))
    if len(diff.changed) > 12:
        lines.append(f"  ... {len(diff.changed) - 12} more changed keys")
    lines.append("  metrics:")
    for name, sides in sorted(diff.metrics.items()):
        a, b = sides["a"], sides["b"]
        marker = "" if a == b else "  *"
        lines.append(f"    {name:<28} {a:>12.4g} -> {b:<12.4g}{marker}")
    if regressions:
        lines.append(f"  REGRESSIONS ({len(regressions)}):")
        for regression in regressions:
            lines.append(
                f"    {regression.metric}: {regression.baseline:.4g} -> "
                f"{regression.candidate:.4g}  ({regression.detail})"
            )
    else:
        lines.append("  no regressions detected")
    return "\n".join(lines)
