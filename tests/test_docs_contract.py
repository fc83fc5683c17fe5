"""Docs-sync lint: the curated docs must mirror the code contracts.

The guarantees:

* every metric/span registered in ``repro.obs`` is documented in
  docs/OBSERVABILITY.md, and every name documented there is registered —
  the contract cannot drift silently in either direction;
* every scenario-DSL grammar name (workload shapes, spec fields,
  transform keywords — ``repro.sweep.spec``) is documented in
  docs/SCENARIOS.md, and every name documented there exists in the
  grammar;
* every columnar telemetry field (name **and** fixed-width dtype —
  ``repro.telemetry.columnar.COLUMN_SCHEMAS``) is documented in
  docs/TELEMETRY.md, and every documented field/dtype matches the code,
  because string widths are part of the spill-format contract;
* every intra-repo markdown link in the curated docs resolves to a real
  file, so the cross-linked doc set (README → docs/* → DESIGN) never rots;
* the bench numbers docs/PERFORMANCE.md quotes (walls and ratios) are
  records of BENCH_perf.json, never numbers restated from memory.

Run by the CI ``docs`` job and by the tier-1 suite.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import List, Set, Tuple

import pytest

from repro.obs import METRIC_SPECS, SPAN_SPECS, TRACE_EVENT_SPECS
from repro.telemetry.columnar import COLUMN_SCHEMAS, SPILL_KINDS, dtype_token
from repro.sweep import (
    AXIS_FIELDS,
    AXIS_VALUE_FIELDS,
    PERIOD_FIELDS,
    SCENARIO_FIELDS,
    SWEEP_FIELDS,
    TRANSFORM_KEYS,
    WORKLOAD_SHAPES,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
OBSERVABILITY_MD = REPO_ROOT / "docs" / "OBSERVABILITY.md"
SCENARIOS_MD = REPO_ROOT / "docs" / "SCENARIOS.md"
TELEMETRY_MD = REPO_ROOT / "docs" / "TELEMETRY.md"
PERFORMANCE_MD = REPO_ROOT / "docs" / "PERFORMANCE.md"
BENCH_PERF_JSON = REPO_ROOT / "BENCH_perf.json"

#: markdown files whose intra-repo links must resolve (curated docs; the
#: generated reference dumps PAPERS.md / SNIPPETS.md are out of scope)
LINKED_DOCS = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "CHANGES.md",
    "docs/ARCHITECTURE.md",
    "docs/FAULTS.md",
    "docs/OBSERVABILITY.md",
    "docs/PAPER_MAPPING.md",
    "docs/PARALLEL.md",
    "docs/PERFORMANCE.md",
    "docs/SCENARIOS.md",
    "docs/TELEMETRY.md",
]

#: a contract table row: the first cell is a backticked dotted name
_CONTRACT_ROW = re.compile(r"^\|\s*`([a-z][a-z0-9_.]*)`\s*\|")
_MARKDOWN_LINK = re.compile(r"\[[^\]^\[]*\]\(([^)\s]+)\)")
_CODE_FENCE = re.compile(r"```.*?```", re.DOTALL)


def documented_names() -> Set[str]:
    """Names declared in OBSERVABILITY.md's contract tables."""
    names: Set[str] = set()
    for line in OBSERVABILITY_MD.read_text(encoding="utf-8").splitlines():
        match = _CONTRACT_ROW.match(line)
        if match:
            names.add(match.group(1))
    return names


class TestMetricsContractSync:
    def test_observability_doc_exists(self):
        assert OBSERVABILITY_MD.is_file()

    def test_every_registered_name_is_documented(self):
        registered = set(METRIC_SPECS) | set(SPAN_SPECS) | set(TRACE_EVENT_SPECS)
        missing = sorted(registered - documented_names())
        assert not missing, (
            "metrics/spans/trace events registered in repro.obs but "
            f"undocumented in docs/OBSERVABILITY.md: {missing} — add a "
            "contract-table row for each"
        )

    def test_every_documented_name_is_registered(self):
        registered = set(METRIC_SPECS) | set(SPAN_SPECS) | set(TRACE_EVENT_SPECS)
        stale = sorted(documented_names() - registered)
        assert not stale, (
            "names documented in docs/OBSERVABILITY.md but not registered "
            f"in repro.obs: {stale} — remove the row or register the spec"
        )

    def test_contract_is_nontrivial(self):
        # guard against the lint trivially passing on an empty doc
        assert len(documented_names()) >= 35

    def test_trace_event_phases_documented(self):
        # every trace-event row must state its phase (span/instant) so the
        # Chrome-export semantics stay readable from the doc alone
        text = OBSERVABILITY_MD.read_text(encoding="utf-8")
        for name, spec in TRACE_EVENT_SPECS.items():
            row = next(
                (
                    line
                    for line in text.splitlines()
                    if _CONTRACT_ROW.match(line)
                    and _CONTRACT_ROW.match(line).group(1) == name
                ),
                None,
            )
            assert row is not None, name
            assert f"| {spec.phase} |" in row, (
                f"{name}: documented row does not state its phase "
                f"{spec.phase!r}: {row!r}"
            )

    def test_units_documented_for_all_metrics(self):
        # every metric row must carry the spec's unit in its line
        text = OBSERVABILITY_MD.read_text(encoding="utf-8")
        for name, spec in METRIC_SPECS.items():
            row = next(
                (
                    line
                    for line in text.splitlines()
                    if _CONTRACT_ROW.match(line)
                    and _CONTRACT_ROW.match(line).group(1) == name
                ),
                None,
            )
            assert row is not None, name
            assert f"| {spec.unit} |" in row, (
                f"{name}: documented row does not state its unit "
                f"{spec.unit!r}: {row!r}"
            )


# scenario-DSL names may contain hyphens (shape and scenario names),
# unlike the dotted metric names above
_DSL_CONTRACT_ROW = re.compile(r"^\|\s*`([a-z][a-z0-9_.-]*)`\s*\|")


def grammar_names() -> Set[str]:
    """Every name the scenario-DSL grammar declares (repro.sweep.spec)."""
    return (
        set(WORKLOAD_SHAPES)
        | set(SCENARIO_FIELDS)
        | set(PERIOD_FIELDS)
        | set(SWEEP_FIELDS)
        | set(AXIS_FIELDS)
        | set(AXIS_VALUE_FIELDS)
        | set(TRANSFORM_KEYS)
    )


def scenario_documented_names() -> Set[str]:
    """Names declared in SCENARIOS.md's grammar tables."""
    names: Set[str] = set()
    for line in SCENARIOS_MD.read_text(encoding="utf-8").splitlines():
        match = _DSL_CONTRACT_ROW.match(line)
        if match:
            names.add(match.group(1))
    return names


class TestScenarioGrammarSync:
    def test_scenarios_doc_exists(self):
        assert SCENARIOS_MD.is_file()

    def test_every_grammar_name_is_documented(self):
        missing = sorted(grammar_names() - scenario_documented_names())
        assert not missing, (
            "scenario-DSL names declared in repro.sweep.spec but "
            f"undocumented in docs/SCENARIOS.md: {missing} — add a "
            "grammar-table row for each"
        )

    def test_every_documented_name_is_in_the_grammar(self):
        stale = sorted(scenario_documented_names() - grammar_names())
        assert not stale, (
            "names documented in docs/SCENARIOS.md but absent from the "
            f"repro.sweep.spec grammar: {stale} — remove the row or add "
            "the shape/field"
        )

    def test_grammar_is_nontrivial(self):
        # guard against the lint trivially passing on an empty doc
        assert len(scenario_documented_names()) >= 20

    def test_canned_scenarios_documented(self):
        from repro.sweep import CANNED_SCENARIOS

        text = SCENARIOS_MD.read_text(encoding="utf-8")
        for name in CANNED_SCENARIOS:
            assert name in text, f"canned scenario {name!r} not mentioned"


# a columnar-schema table row in TELEMETRY.md: `field` | `dtype` | ...
_SCHEMA_ROW = re.compile(r"^\|\s*`([a-z][a-z0-9_]*)`\s*\|\s*`([A-Za-z][0-9]+)`\s*\|")
_SCHEMA_HEADING = re.compile(r"^###\s+`([a-z_]+)`")
_COUNTER_MENTION = re.compile(r"`(telemetry\.[a-z0-9_.]+)`")


def telemetry_documented_schemas() -> dict:
    """kind -> [(field, dtype token), ...] parsed from TELEMETRY.md."""
    schemas: dict = {}
    rows: List[Tuple[str, str]] = []
    current = None
    for line in TELEMETRY_MD.read_text(encoding="utf-8").splitlines():
        heading = _SCHEMA_HEADING.match(line)
        if heading:
            current = heading.group(1)
            rows = schemas.setdefault(current, [])
            continue
        if line.startswith("## "):  # left the "Columnar layout" sections
            current = None
            continue
        if current is not None:
            row = _SCHEMA_ROW.match(line)
            if row:
                rows.append((row.group(1), row.group(2)))
    return schemas


class TestTelemetrySchemaSync:
    def test_telemetry_doc_exists(self):
        assert TELEMETRY_MD.is_file()

    def test_every_kind_has_a_schema_table(self):
        documented = set(telemetry_documented_schemas())
        assert documented == set(SPILL_KINDS), (
            "docs/TELEMETRY.md schema sections do not match the record "
            f"kinds in COLUMN_SCHEMAS: doc has {sorted(documented)}, "
            f"code has {sorted(SPILL_KINDS)}"
        )

    def test_fields_and_dtypes_match_both_directions(self):
        # field order, names, and fixed widths are all contract: a column
        # added/removed/resized in code must be edited here too (and the
        # spill format version bumped — docs/TELEMETRY.md).
        documented = telemetry_documented_schemas()
        for kind in SPILL_KINDS:
            in_code = [
                (name, dtype_token(kind, name))
                for name in COLUMN_SCHEMAS[kind].field_names
            ]
            assert documented.get(kind) == in_code, (
                f"docs/TELEMETRY.md `{kind}` table out of sync with "
                f"COLUMN_SCHEMAS: doc {documented.get(kind)} != code {in_code}"
            )

    def test_row_bytes_documented(self):
        # each section heading states the packed row size, part of the
        # RSS budget model
        text = TELEMETRY_MD.read_text(encoding="utf-8")
        for kind in SPILL_KINDS:
            stated = f"`{kind}`"
            line = next(
                ln for ln in text.splitlines()
                if ln.startswith("### ") and stated in ln
            )
            assert f"{COLUMN_SCHEMAS[kind].row_bytes} B/row" in line, (
                f"{kind}: heading does not state the packed row size "
                f"{COLUMN_SCHEMAS[kind].row_bytes} B/row: {line!r}"
            )

    def test_spill_counters_documented_and_registered(self):
        # `telemetry.*` names mentioned in TELEMETRY.md must be registered,
        # and every registered telemetry.* metric must be mentioned there
        # (OBSERVABILITY.md coverage is enforced by TestMetricsContractSync)
        text = _CODE_FENCE.sub("", TELEMETRY_MD.read_text(encoding="utf-8"))
        mentioned = set(_COUNTER_MENTION.findall(text))
        registered = {n for n in METRIC_SPECS if n.startswith("telemetry.")}
        assert registered, "expected telemetry.* metrics in the registry"
        assert mentioned == registered, (
            "telemetry.* counters drifted between docs/TELEMETRY.md and "
            f"the registry: doc mentions {sorted(mentioned)}, registry has "
            f"{sorted(registered)}"
        )


def _intra_repo_links(path: Path) -> List[Tuple[str, Path]]:
    """(raw link, resolved target) for each relative link in *path*."""
    text = _CODE_FENCE.sub("", path.read_text(encoding="utf-8"))
    links: List[Tuple[str, Path]] = []
    for raw in _MARKDOWN_LINK.findall(text):
        if raw.startswith(("http://", "https://", "mailto:", "#")):
            continue
        target = raw.split("#", 1)[0]
        if not target:
            continue
        links.append((raw, (path.parent / target).resolve()))
    return links


class TestMarkdownLinks:
    def test_curated_docs_exist(self):
        for name in LINKED_DOCS:
            assert (REPO_ROOT / name).is_file(), f"missing curated doc {name}"

    def test_all_intra_repo_links_resolve(self):
        broken: List[str] = []
        for name in LINKED_DOCS:
            path = REPO_ROOT / name
            for raw, target in _intra_repo_links(path):
                if not target.exists():
                    broken.append(f"{name}: ({raw}) -> {target}")
        assert not broken, "broken intra-repo markdown links:\n" + "\n".join(broken)

    def test_architecture_is_cross_linked(self):
        # satellite requirement: ARCHITECTURE.md reachable from README + DESIGN
        for source in ("README.md", "DESIGN.md"):
            text = (REPO_ROOT / source).read_text(encoding="utf-8")
            assert "ARCHITECTURE.md" in text, (
                f"{source} does not link docs/ARCHITECTURE.md"
            )

    def test_performance_doc_is_cross_linked(self):
        # PERFORMANCE.md reachable from README and the architecture map
        for source in ("README.md", "docs/ARCHITECTURE.md"):
            text = (REPO_ROOT / source).read_text(encoding="utf-8")
            assert "PERFORMANCE.md" in text, (
                f"{source} does not link docs/PERFORMANCE.md"
            )


# the "Service mode" section tables: endpoint rows have a `/path` first
# cell; window/incident field rows use JSON-key style (`"field"`) first
# cells — deliberately distinct from the backticked metric names that
# _CONTRACT_ROW lints, so the two contracts cannot collide
_ENDPOINT_ROW = re.compile(r"^\|\s*`(/[a-z]+)`\s*\|")
_JSON_FIELD = re.compile(r'`"([a-z_]+)"`')


def _serve_subsection(title: str) -> List[str]:
    """Lines of one `###` subsection inside the Service mode section."""
    lines: List[str] = []
    in_service = False
    in_subsection = False
    for line in OBSERVABILITY_MD.read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            in_service = line.strip() == "## Service mode"
            in_subsection = False
            continue
        if in_service and line.startswith("### "):
            in_subsection = line.strip() == f"### {title}"
            continue
        if in_service and in_subsection:
            lines.append(line)
    return lines


class TestServeContractSync:
    """The live-service HTTP/JSONL plane is user-facing API: the endpoint
    table and the window/incident schema tables in OBSERVABILITY.md must
    mirror repro.serve, both directions."""

    def _documented_endpoints(self) -> Set[str]:
        paths: Set[str] = set()
        for line in _serve_subsection("Endpoints"):
            match = _ENDPOINT_ROW.match(line)
            if match:
                paths.add(match.group(1))
        return paths

    def _documented_fields(self, subsection: str) -> Set[str]:
        fields: Set[str] = set()
        for line in _serve_subsection(subsection):
            if line.startswith("|"):
                first_cell = line.split("|")[1]
                fields.update(_JSON_FIELD.findall(first_cell))
        return fields

    def test_every_endpoint_is_documented(self):
        from repro.serve import SERVE_ENDPOINTS

        missing = sorted(set(SERVE_ENDPOINTS) - self._documented_endpoints())
        assert not missing, (
            f"endpoints served by repro.serve.plane but undocumented in "
            f"docs/OBSERVABILITY.md 'Service mode': {missing}"
        )

    def test_every_documented_endpoint_is_served(self):
        from repro.serve import SERVE_ENDPOINTS

        stale = sorted(self._documented_endpoints() - set(SERVE_ENDPOINTS))
        assert not stale, (
            f"endpoints documented in docs/OBSERVABILITY.md but absent "
            f"from repro.serve.plane.SERVE_ENDPOINTS: {stale}"
        )

    def test_window_fields_documented_both_directions(self):
        from repro.serve import WINDOW_DOC_FIELDS

        documented = self._documented_fields("Window schema")
        assert documented == set(WINDOW_DOC_FIELDS), (
            "window document fields drifted between repro.serve.windows "
            f"and docs/OBSERVABILITY.md: doc has {sorted(documented)}, "
            f"code has {sorted(WINDOW_DOC_FIELDS)}"
        )

    def test_incident_fields_documented_both_directions(self):
        from repro.serve import INCIDENT_DOC_FIELDS

        documented = self._documented_fields("Incident schema")
        assert documented == set(INCIDENT_DOC_FIELDS), (
            "incident document fields drifted between repro.serve.online "
            f"and docs/OBSERVABILITY.md: doc has {sorted(documented)}, "
            f"code has {sorted(INCIDENT_DOC_FIELDS)}"
        )

    def test_serve_module_in_architecture_map(self):
        architecture = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(
            encoding="utf-8"
        )
        assert "`repro.serve`" in architecture, (
            "docs/ARCHITECTURE.md module map lacks a repro.serve row"
        )
        assert "repro watch" in architecture or "`watch`" in architecture


#: a quoted before → after pair with its ratio, e.g. "11.41 s → 0.63 s (**18.24×**"
_QUOTED_WALLS = r"([0-9.]+) (m?s) → ([0-9.]+) \2 \(\*\*([0-9.]+)×\*\*"


def _performance_quote(lead: str) -> Tuple[str, ...]:
    """(before, unit, after, ratio) of the quote following *lead*."""
    text = " ".join(PERFORMANCE_MD.read_text(encoding="utf-8").split())
    match = re.search(lead + _QUOTED_WALLS, text)
    assert match, f"docs/PERFORMANCE.md no longer quotes {lead!r} walls"
    return match.groups()


def _same_number(quoted: str, value: float) -> bool:
    """*value* printed with the precision of *quoted* reads *quoted*."""
    decimals = len(quoted.partition(".")[2])
    return f"{value:.{decimals}f}" == quoted


def _bench_records(scenario: str) -> List[dict]:
    return json.loads(BENCH_PERF_JSON.read_text(encoding="utf-8"))[scenario]


class TestPerformanceNumbersSync:
    """Walls and ratios PERFORMANCE.md quotes match BENCH_perf.json records."""

    #: the record field each read-path tier's quote compares against:
    #: the oracle's wall, or the public calls' on separate opens
    BEFORE_FIELD = {
        "read-path": "records_wall_s",
        "read-path-memory": "records_wall_s",
        "read-path-public": "separate_wall_s",
    }

    @pytest.mark.parametrize("scenario", sorted(BEFORE_FIELD))
    def test_read_path_quote_matches_a_record(self, scenario):
        before, unit, after, ratio = _performance_quote(
            rf"`{re.escape(scenario)}` — [^:]*: "
        )
        scale = 1e3 if unit == "ms" else 1.0
        matching = [
            record
            for record in _bench_records(scenario)
            if _same_number(before, record[self.BEFORE_FIELD[scenario]] * scale)
            and _same_number(after, record["wall_s"] * scale)
            and _same_number(ratio, record["speedup"])
        ]
        assert matching, (
            f"docs/PERFORMANCE.md quotes {scenario} as {before} {unit} → "
            f"{after} {unit} ({ratio}×); no BENCH_perf.json record says so"
        )

    def test_stepping_throughput_quotes_match_the_record(self):
        # every wall and throughput figure of the "Stepping" section is
        # the `per-server-heaps` medium record's
        text = " ".join(PERFORMANCE_MD.read_text(encoding="utf-8").split())
        section = text.partition("## Stepping ")[2].partition(" ## ")[0]
        record = {
            record["label"]: record for record in _bench_records("medium")
        }["per-server-heaps"]
        quoted = re.findall(r"([0-9][0-9.]*) (s wall|sessions/s|chunks/s)", section)
        assert sorted(unit for _, unit in quoted) == [
            "chunks/s", "s wall", "sessions/s"
        ], f"docs/PERFORMANCE.md 'Stepping' quotes {quoted}"
        field = {"s wall": "wall_s", "sessions/s": "sessions_per_s",
                 "chunks/s": "chunks_per_s"}
        for number, unit in quoted:
            assert _same_number(number, record[field[unit]]), (
                f"docs/PERFORMANCE.md 'Stepping' quotes {number} {unit}; the "
                f"per-server-heaps record says {record[field[unit]]}"
            )

    def test_pr4_medium_quote_matches_the_records(self):
        before, unit, after, ratio = _performance_quote(
            r"\(`pr4-before`, `pr4-after`\): "
        )
        walls = {record["label"]: record["wall_s"] for record in _bench_records("medium")}
        assert unit == "s"
        assert _same_number(before, walls["pr4-before"])
        assert _same_number(after, walls["pr4-after"])
        assert _same_number(ratio, walls["pr4-before"] / walls["pr4-after"])
