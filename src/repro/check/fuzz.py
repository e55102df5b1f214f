"""Randomized trace fuzzing for the protocol checker and data oracle.

``repro check fuzz`` generates seeded random (scheme, placement, trace)
cases, runs each one against a real :class:`MemoryController` with the
:class:`~repro.check.protocol.TimingProtocolChecker` attached (fed the
*truth* timing table) and the plan/data oracles enabled, and reports any
protocol violation or oracle mismatch.  Failures are shrunk with a
delta-debugging pass to a minimal op sequence and written out as a JSON
reproducer that ``repro check replay`` (or :func:`replay`) re-runs.

Timing-table corruption can be injected on the controller side only
(``inject={"tRCD": 1}``) to prove the checker catches a simulator whose
tables drift from the device contract -- the acceptance test for the
whole subsystem.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.registry import make_scheme, takes_gather_factor
from ..core.scheme import TablePlacement
from ..dram.commands import Request
from ..dram.controller import ControllerConfig, MemoryController
from ..dram.geometry import Geometry
from ..kernel import Kernel, SimulationError
from .oracle import DataOracle, FunctionalMemory, OracleMismatch, PlanValidator
from .protocol import ProtocolError, ProtocolViolation, TimingProtocolChecker

#: schemes every fuzz run covers by default (the six designs the issue's
#: acceptance criterion names; the rest can be opted in via --schemes)
DEFAULT_SCHEMES: Tuple[str, ...] = (
    "baseline",
    "SAM-sub",
    "SAM-IO",
    "SAM-en",
    "GS-DRAM",
    "RC-NVM-wd",
)

#: the subarray-parallel designs, fuzzed via ``--schemes`` (or the CI
#: smoke / equivalence tests).  Kept out of DEFAULT_SCHEMES so the
#: default case stream -- and every seeded reproducer derived from it --
#: stays byte-stable across the SALP landing.
SALP_SCHEMES: Tuple[str, ...] = ("salp1", "salp2", "masa", "SAM-en+masa")

_LINE = 64
#: step budget per case: orders of magnitude above any healthy trace
#: (the whole 200-case default run issues ~10k commands) but small enough
#: that a livelocked controller under corrupted tables fails fast
_MAX_DRAIN_EVENTS = 300_000
#: tight refresh interval used (on BOTH the controller and the checker)
#: by refresh-exercising cases, so short traces still cross tREFI
_FUZZ_TREFI = 400
_FUZZ_TRFC = 60


@dataclass(frozen=True)
class FuzzCase:
    """One fully deterministic fuzz input."""

    seed: int
    index: int
    scheme: str
    gather_factor: int
    record_bytes: int
    n_records: int
    refresh: bool
    #: ops: ("sload"|"sstore", first_record, offset) |
    #:      ("load"|"store", record, offset) |
    #:      ("irr", (record, ...), offset)
    ops: Tuple[Tuple, ...]
    #: controller-side timing-table corruption, e.g. (("tRCD", 1),)
    inject: Tuple[Tuple[str, int], ...] = ()

    def describe(self) -> str:
        tag = f"+{dict(self.inject)}" if self.inject else ""
        return (
            f"case {self.seed}/{self.index}: {self.scheme} g{self.gather_factor} "
            f"{len(self.ops)} ops{tag}"
        )


@dataclass
class CaseResult:
    """Outcome of one case."""

    case: FuzzCase
    violations: List[ProtocolViolation] = field(default_factory=list)
    mismatches: List[OracleMismatch] = field(default_factory=list)
    commands: int = 0
    submitted: int = 0
    completed: int = 0
    cycles: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.violations or self.mismatches)

    def signature(self) -> Optional[str]:
        """Stable label of the first failure, used to steer shrinking."""
        if self.violations:
            return f"protocol:{self.violations[0].rule}"
        if self.mismatches:
            return f"oracle:{self.mismatches[0].kind}"
        return None


@dataclass
class FuzzReport:
    """Outcome of a whole fuzz run."""

    seed: int
    cases: int = 0
    commands: int = 0
    failures: List[CaseResult] = field(default_factory=list)
    reproducer_path: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> dict:
        return {
            "seed": self.seed,
            "cases": self.cases,
            "commands": self.commands,
            "failures": len(self.failures),
            "first_failure": (
                self.failures[0].signature() if self.failures else None
            ),
            "reproducer": self.reproducer_path,
        }


# ------------------------------------------------------------- generation


def generate_case(
    seed: int,
    index: int,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    inject: Tuple[Tuple[str, int], ...] = (),
) -> FuzzCase:
    """Deterministically generate case ``index`` of stream ``seed``."""
    rng = random.Random(f"{seed}/{index}")
    scheme_name = rng.choice(list(schemes))
    gather_factor = rng.choice((4, 8))
    sector = _LINE // gather_factor
    record_bytes = rng.choice((sector, 2 * sector, _LINE, 2 * _LINE, 256))
    n_records = rng.randrange(4, 48) * gather_factor
    refresh = rng.random() < 0.25
    n_groups = n_records // gather_factor
    sectors_per_record = max(1, record_bytes // sector)

    def offset() -> int:
        return sector * rng.randrange(sectors_per_record)

    ops: List[Tuple] = []
    for _ in range(rng.randrange(8, 32)):
        roll = rng.random()
        if roll < 0.45:
            ops.append(
                ("sload", gather_factor * rng.randrange(n_groups), offset())
            )
        elif roll < 0.60:
            ops.append(
                ("sstore", gather_factor * rng.randrange(n_groups), offset())
            )
        elif roll < 0.75:
            # irregular gather: randomly scattered records, one field
            count = rng.randrange(2, gather_factor + 1)
            records = tuple(
                rng.randrange(n_records) for _ in range(count)
            )
            ops.append(("irr", records, offset()))
        elif roll < 0.90:
            ops.append(("load", rng.randrange(n_records), offset()))
        else:
            ops.append(("store", rng.randrange(n_records), offset()))
    return FuzzCase(
        seed=seed,
        index=index,
        scheme=scheme_name,
        gather_factor=gather_factor,
        record_bytes=record_bytes,
        n_records=n_records,
        refresh=refresh,
        ops=tuple(ops),
        inject=tuple(inject),
    )


# -------------------------------------------------------------- execution


def _pump(kernel: Kernel, mc: MemoryController,
          request: Request) -> None:
    """Advance the simulation until the controller can accept ``request``."""
    stepped = 0
    while not mc.can_accept(request):
        if not kernel.step():
            raise SimulationError(
                "controller queue full but no events pending"
            )
        stepped += 1
        if stepped > _MAX_DRAIN_EVENTS:
            raise SimulationError("fuzz case wedged waiting for a slot")


def run_case(case: FuzzCase, registry=None,
             oracle_data: bool = True,
             reference: bool = False,
             stall_ledger=None,
             on_command=None) -> CaseResult:
    """Execute one case with checker + oracles attached (collect mode).

    ``reference`` swaps the controller's incremental FR-FCFS readiness
    index for the full-recompute reference scheduler, ``stall_ledger`` (an
    :class:`~repro.obs.stalls.StallLedger`) captures the controller's
    wait attribution, and ``on_command`` (a controller command listener,
    see :attr:`MemoryController.command_listeners`) observes the issued
    command stream -- together they let the equivalence tests replay one
    fuzzed trace through both scheduler variants and diff streams, cycles
    and ledgers.
    """
    # non-stride schemes reject a gather factor; the case's factor only
    # shapes the generated trace for them
    scheme = make_scheme(
        case.scheme,
        gather_factor=(case.gather_factor
                       if takes_gather_factor(case.scheme) else None),
    )
    geometry = scheme.geometry
    truth = scheme.timing
    if case.refresh:
        truth = replace(truth, tREFI=_FUZZ_TREFI, tRFC=_FUZZ_TRFC)
    corrupted = replace(truth, **dict(case.inject)) if case.inject else truth

    kernel = Kernel()
    mc = MemoryController(
        kernel, corrupted, geometry,
        ControllerConfig(refresh_enabled=case.refresh,
                         reference=reference),
        salp=scheme.salp_mode,
    )
    if on_command is not None:
        mc.command_listeners.append(on_command)
    if stall_ledger is not None:
        mc.stall_ledger = stall_ledger
    checker = TimingProtocolChecker(
        truth, geometry, registry=registry, strict=False,
        salp=scheme.salp_mode,
    ).attach(mc)
    validator = PlanValidator(scheme, registry=registry, strict=False)

    table = TablePlacement(
        base=0, record_bytes=case.record_bytes, n_records=case.n_records
    )
    placement = scheme.placement(table)
    result = CaseResult(case=case)

    def _done(request, _time) -> None:
        result.completed += 1

    def _submit_all(requests: Sequence[Request]) -> None:
        for request in requests:
            request.on_complete = _done
            _pump(kernel, mc, request)
            mc.submit(request)
            result.submitted += 1

    def _gather(kind: str, elements: Sequence[int]) -> None:
        lower = (
            scheme.lower_gather_read
            if kind == "read"
            else scheme.lower_gather_write
        )
        plan = lower(elements)
        if plan is None:
            # no stride hardware: per-element demand traffic
            for addr in elements:
                line = scheme.mapper.line_address(addr)
                _submit_all(
                    scheme.lower_read(line)
                    if kind == "read"
                    else scheme.lower_write(line)
                )
            return
        validator.on_plan(kind, elements, plan)
        _submit_all(plan.requests)

    try:
        for op in case.ops:
            kind = op[0]
            if kind in ("sload", "sstore"):
                first, off = op[1], op[2]
                count = min(case.gather_factor, case.n_records - first)
                elements = placement.element_addrs(first, count, off)
                _gather("read" if kind == "sload" else "write", elements)
            elif kind == "irr":
                records, off = op[1], op[2]
                elements = [placement.addr_of(r, off) for r in records]
                _gather("read", elements)
            else:
                addr = placement.addr_of(op[1], op[2])
                line = scheme.mapper.line_address(addr)
                if kind == "load":
                    _submit_all(scheme.lower_read(line))
                else:
                    _submit_all(scheme.lower_write(line))
        drained = 0
        while kernel.step():
            drained += 1
            if drained > _MAX_DRAIN_EVENTS:
                raise SimulationError("fuzz case failed to drain")
        if not mc.idle():  # pragma: no cover - controller invariant
            raise SimulationError("queues non-empty after event drain")
    except ProtocolError:
        # collect mode hit max_violations: the case has failed loudly
        # enough; its violations are already recorded on the checker
        pass
    except SimulationError as exc:
        result.mismatches.append(OracleMismatch(
            "simulation-error", case.scheme, str(exc)
        ))

    if oracle_data and not case.inject:
        _run_data_oracle(case, result)

    result.violations.extend(checker.violations)
    result.mismatches.extend(validator.mismatches)
    result.commands = checker.commands_seen
    result.cycles = kernel.now
    if result.completed != result.submitted:
        result.mismatches.append(OracleMismatch(
            "lost-requests", case.scheme,
            f"{result.submitted} requests submitted but only "
            f"{result.completed} completed",
        ))
    return result


def _run_data_oracle(case: FuzzCase, result: CaseResult) -> None:
    """Bit-exact datapath / codeword checks derived from the case rng.

    Line contents come from a :class:`FunctionalMemory` (some lines
    written with random data, the rest at their deterministic reference
    pattern), so the datapath gather is compared against what the
    functional model says a software strided read returns.
    """
    rng = random.Random(f"{case.seed}/{case.index}/data")
    oracle = DataOracle(strict=False)
    memory = FunctionalMemory()
    bank = rng.randrange(16)
    row = rng.randrange(256)
    columns = rng.sample(range(128), 4)
    line_addrs = [_LINE * (128 * row + c) for c in columns]
    for addr in line_addrs:
        if rng.random() < 0.5:  # half written, half at reference pattern
            memory.write_line(
                addr, bytes(rng.randrange(256) for _ in range(_LINE))
            )
    lines = [memory.read_line(addr) for addr in line_addrs]
    for layout in ("default", "transposed"):
        oracle.check_line_roundtrip(layout, bank, row, columns[0], lines[0])
        oracle.check_gather(layout, bank, row, columns, rng.randrange(4),
                            lines)
        oracle.check_gather(
            layout, bank, row, columns, rng.randrange(4), lines,
            faulty_chip=rng.randrange(16),
            fault_mask=rng.randrange(1, 1 << 16),
        )
    data = bytes(rng.randrange(256) for _ in range(32))
    single = [0] * 36
    single[rng.randrange(36)] = rng.randrange(1, 256)
    oracle.check_dsd(data, single)
    double = [0] * 36
    for chip in rng.sample(range(36), 2):
        double[chip] = rng.randrange(1, 256)
    oracle.check_dsd(data, double)
    result.mismatches.extend(oracle.mismatches)


# -------------------------------------------------------------- shrinking


def shrink(case: FuzzCase,
           fails: Optional[Callable[[FuzzCase], bool]] = None) -> FuzzCase:
    """Delta-debug ``case.ops`` down to a minimal failing sequence.

    ``fails`` defaults to "re-running reproduces the same first-failure
    signature"."""
    if fails is None:
        target = run_case(case).signature()
        if target is None:
            return case

        def fails(trial: FuzzCase) -> bool:
            return run_case(trial).signature() == target

    ops = list(case.ops)
    chunk = max(1, len(ops) // 2)
    while chunk >= 1:
        i = 0
        while i < len(ops):
            trial_ops = ops[:i] + ops[i + chunk:]
            if trial_ops and fails(replace(case, ops=tuple(trial_ops))):
                ops = trial_ops
            else:
                i += chunk
        chunk //= 2
    minimal = replace(case, ops=tuple(ops))
    if minimal.refresh:
        trial = replace(minimal, refresh=False)
        if fails(trial):
            minimal = trial
    return minimal


# ------------------------------------------------------------ persistence


def case_to_json(case: FuzzCase, result: Optional[CaseResult] = None) -> dict:
    payload = dataclasses.asdict(case)
    payload["ops"] = [list(op) for op in case.ops]
    payload["inject"] = [list(pair) for pair in case.inject]
    if result is not None:
        payload["failure"] = {
            "signature": result.signature(),
            "violations": [v.to_dict() for v in result.violations[:8]],
            "mismatches": [m.to_dict() for m in result.mismatches[:8]],
        }
    return payload


def case_from_json(payload: dict) -> FuzzCase:
    ops = tuple(
        tuple(tuple(part) if isinstance(part, list) else part
              for part in op)
        for op in payload["ops"]
    )
    inject = tuple((name, value) for name, value in payload.get("inject", []))
    return FuzzCase(
        seed=payload["seed"],
        index=payload["index"],
        scheme=payload["scheme"],
        gather_factor=payload["gather_factor"],
        record_bytes=payload["record_bytes"],
        n_records=payload["n_records"],
        refresh=payload["refresh"],
        ops=ops,
        inject=inject,
    )


def load_case(path) -> FuzzCase:
    """Read a JSON reproducer written by :func:`run_fuzz`."""
    return case_from_json(json.loads(Path(path).read_text()))


def replay(path) -> CaseResult:
    """Re-run a JSON reproducer written by :func:`run_fuzz`."""
    return run_case(load_case(path))


# --------------------------------------------------------------- top level


def run_fuzz(
    seed: int,
    cases: int,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    inject: Tuple[Tuple[str, int], ...] = (),
    artifacts_dir=None,
    registry=None,
    progress: Optional[Callable[[str], None]] = None,
    shrink_failures: bool = True,
) -> FuzzReport:
    """Run ``cases`` seeded cases; shrink and persist the first failure."""
    report = FuzzReport(seed=seed)
    for index in range(cases):
        case = generate_case(seed, index, schemes, inject)
        result = run_case(case, registry=registry)
        report.cases += 1
        report.commands += result.commands
        if not result.failed:
            continue
        report.failures.append(result)
        if len(report.failures) == 1:
            minimal = shrink(case) if shrink_failures else case
            minimal_result = run_case(minimal)
            if not minimal_result.failed:  # pragma: no cover - paranoia
                minimal, minimal_result = case, result
            out_dir = Path(artifacts_dir) if artifacts_dir else Path(".")
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / f"fuzz-failure-{seed}-{index}.json"
            path.write_text(json.dumps(
                case_to_json(minimal, minimal_result), indent=2
            ))
            report.reproducer_path = str(path)
            if progress:
                progress(
                    f"FAIL {case.describe()} -> {result.signature()} "
                    f"(reproducer: {path}, {len(minimal.ops)} ops after "
                    f"shrinking from {len(case.ops)})"
                )
        if progress and len(report.failures) > 1:
            progress(f"FAIL {case.describe()} -> {result.signature()}")
    if progress:
        progress(
            f"fuzz: {report.cases} cases, {report.commands} commands, "
            f"{len(report.failures)} failures"
        )
    return report
