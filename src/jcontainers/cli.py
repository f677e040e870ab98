"""Unified command-line entry point.

Subcommands: janson, copies, hardcover, certify-cover, containers,
extend-containers, ramsey (arrows / event / mc).  Structured results go to
stdout as JSON (CSV for trial streams); ``--out DIR`` additionally persists a
run record with input digests and the artifacts.  Exit codes: 0 success,
1 property/theorem violation detected, 2 invalid input, 3 budget exceeded,
4 an undecided verdict, 5 internal error (an unexpected exception, reported
on one stderr line).

Stdout is deterministic for a fixed seed and config: rationals are printed
as ``a/b`` strings, keys are sorted, and timestamps live only in the run
record, never in the payload.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from contextvars import ContextVar
from fractions import Fraction
from pathlib import Path

from . import __version__, fileio
from .containers import (
    cover_certificate,
    extension_containers,
    hardcover_family,
    non_janson_containers,
)
from .copies import extension_hypergraph, induced_copy_hypergraph
from .errors import BudgetError, InputError, UndecidedError
from .hypercore import UNIVERSE_CAP, Graph, bits_of
from .janson import is_janson
from .ramsey import (
    CONFIG_FIELDS,
    ExperimentConfig,
    arrows_induced,
    check_event_bad,
    check_event_bad_prime,
    check_event_inductive,
    chernoff_experiment,
    extension_experiment,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_UNDECIDED = 4
EXIT_INTERNAL = 5

_NAMED_GRAPH = re.compile(r"^([KPCE])(\d+)$")
_BUILT_IN = {"K": Graph.complete, "P": Graph.path, "C": Graph.cycle, "E": Graph.empty}

# run-record key -> sha256 of each input file read by the dispatch call in
# progress; set only when that call persists a run record (``--out``)
_digests: ContextVar = ContextVar("input_digests", default=None)


def _read(path: str, key: str) -> str:
    """The text of one input file.  The file is opened once, and inside a
    dispatch call with ``--out`` the sha256 of the bytes parsed is kept
    under ``key`` (``hypergraph``, ``target``, ``cover``, ``config``, ``G``,
    ``Gprime``, ``F``, ``H`` or ``H[i]``)."""
    data = Path(path).read_bytes()
    digests = _digests.get()
    if digests is not None:
        import hashlib

        digests[key] = hashlib.sha256(data).hexdigest()
    try:
        return data.decode()
    except UnicodeDecodeError:
        raise InputError(f"{key} file {path} is not UTF-8 text") from None


def _graph(spec: str, key: str) -> Graph:
    """A named graph (K5, P4, C6, E3), which reads nothing, or the graph
    file ``spec`` read under ``key``."""
    m = _NAMED_GRAPH.match(spec)
    if not m:
        return fileio.parse_graph(_read(spec, key))
    num = int(m.group(2))
    if num > UNIVERSE_CAP:
        raise InputError(f"graph {spec} exceeds the universe cap {UNIVERSE_CAP}")
    return _BUILT_IN[m.group(1)](num)


def _hypergraph(path: str, key: str):
    return fileio.parse_hypergraph(_read(path, key))


def _jsonable(value):
    if isinstance(value, Fraction):
        try:
            return f"{value.numerator}/{value.denominator}"
        except ValueError:  # past the interpreter's integer-printing limit
            raise BudgetError(
                f"a result rational has more than {sys.get_int_max_str_digits()} digits"
            ) from None
    if isinstance(value, float):
        if value == float("inf"):
            return "inf"
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def emit(payload: dict) -> str:
    return json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n"


class RunRecord:
    __slots__ = (
        "command", "config", "version", "input_digests", "started", "finished", "exit_status",
        "artifacts",
    )

    def __init__(
        self,
        command: list,
        config: dict,
        version: str,
        input_digests: dict,
        started: str,
        exit_status: int,
    ):
        self.command = command
        self.config = config
        self.version = version
        self.input_digests = input_digests
        self.started = started
        self.finished = ""
        self.exit_status = exit_status
        self.artifacts = {}


def persist(outdir: str, record: RunRecord, payload_text: str, extra_files: dict):
    import datetime
    import hashlib

    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "out.json").write_text(payload_text)
    record.artifacts["out.json"] = hashlib.sha256(payload_text.encode()).hexdigest()
    for name, text in extra_files.items():
        (out / name).write_text(text)
        record.artifacts[name] = hashlib.sha256(text.encode()).hexdigest()
    record.finished = datetime.datetime.now(datetime.timezone.utc).isoformat()
    fields = {name: getattr(record, name) for name in RunRecord.__slots__}
    (out / "record.json").write_text(emit(fields))


def _config_keys() -> dict:
    """Config key -> the type its value is read as, one per row of
    ``ramsey.CONFIG_FIELDS``, the table ``ExperimentConfig`` takes its keys
    and defaults from (a seed, delta or p left out is None)."""
    return {key: caster for key, caster, _ in CONFIG_FIELDS}


CONFIG_KEYS = _config_keys()

COUNT_KEYS = {key for key, caster in CONFIG_KEYS.items() if caster is int} - {"seed"}


def _range_problem(key: str, value):
    """Why a parsed config value is out of range, or None."""
    if key == "p" and not 0 < value <= 1:
        return "p must lie in (0, 1]"
    if key == "delta" and not value > 0:
        return "delta must be positive"
    if key in COUNT_KEYS and value < 0:
        return f"{key} must be nonnegative"
    return None


def load_config(path: str) -> ExperimentConfig:
    """Parse ``key = value`` lines into an experiment configuration; a key
    left out takes its ``ExperimentConfig`` default.

    Derived constants follow the canonical formulas unless a key overrides
    them, which flips the scaled flag.  Unknown keys and malformed lines
    are rejected with their line number, and so are a p outside (0, 1], a
    delta that is not positive and a negative count (every integer key but
    the seed)."""
    raw = {}
    for lineno, line in fileio.meaningful_lines(_read(path, "config")):
        if "=" not in line:
            raise InputError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS:
            raise InputError(f"line {lineno}: unknown key {key!r}")
        caster = CONFIG_KEYS[key]
        try:
            if caster in (Fraction, float):
                raw[key] = fileio.parse_number(value, exact=caster is Fraction)
            else:
                raw[key] = caster(value)
        except (ValueError, InputError) as exc:
            raise InputError(f"line {lineno}: bad value for {key}: {exc}") from exc
        problem = _range_problem(key, raw[key])
        if problem:
            raise InputError(f"line {lineno}: {problem}, got {value}")
    return ExperimentConfig(**raw)


def _parse_rational(text: str) -> Fraction:
    return Fraction(fileio.parse_number(text, exact=True))


def _nonnegative_budget(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 0:
        raise argparse.ArgumentTypeError(f"budget must be a nonnegative integer, got {text!r}")
    return value


# every target of ``ramsey arrows`` is the same graph, so a bad colouring
# never needs more colours than the host has edges, at most C(64, 2)
MAX_COLOURS = UNIVERSE_CAP * (UNIVERSE_CAP - 1) // 2


def _colour_count(text: str) -> int:
    value = int(text)
    if value > MAX_COLOURS:
        raise argparse.ArgumentTypeError(f"at most {MAX_COLOURS} colours, got {text!r}")
    return value


# ---------------------------------------------------------------------------
# subcommand handlers (each returns (exit_code, payload_text, extra_files))


def cmd_janson(args):
    h = _hypergraph(args.hypergraph, "hypergraph")
    p = _parse_rational(args.p)
    r = _parse_rational(args.R)
    verdict = is_janson(h, p, r)
    payload = {
        "answer": verdict.answer,
        "r_star": verdict.r_star,
        "gap": verdict.gap,
        "exact": verdict.exact,
    }
    if verdict.witness is not None:
        payload["witness"] = {
            str(i): w for i, w in enumerate(verdict.witness.weights) if w > 0
        }
    if verdict.dual_bound is not None:
        payload["dual_bound"] = verdict.dual_bound
    code = EXIT_UNDECIDED if verdict.answer == "UNDECIDED" else EXIT_OK
    return code, emit(payload), {}


def cmd_copies(args):
    f, gp, g = (_graph(getattr(args, key), key) for key in ("F", "Gprime", "G"))
    copies = induced_copy_hypergraph(f, gp, g)
    hg_text = fileio.write_hypergraph(copies.hyper)
    prov_lines = []
    for e in copies.hyper.edges:
        phi = copies.witnesses[e]
        prov_lines.append(
            " ".join(str(v) for v in bits_of(e))
            + " -> "
            + " ".join(str(x) for x in phi)
        )
    prov_text = "\n".join(prov_lines) + ("\n" if prov_lines else "")
    payload = {
        "n": copies.hyper.n,
        "edge_count": len(copies.hyper.edges),
        "edges": [bits_of(e) for e in copies.hyper.edges],
    }
    return EXIT_OK, emit(payload), {"copies.hg": hg_text, "copies.prov": prov_text}


def cmd_hardcover(args):
    h = _hypergraph(args.hypergraph, "hypergraph")
    family = hardcover_family(
        h,
        _parse_rational(args.q),
        _parse_rational(args.alpha),
        paper_literal=args.paper_literal,
    )
    payload = {
        "fingerprints": [bits_of(t) for t in family.fingerprints],
        "cover_sizes": {str(t): len(family.covers[t]) for t in family.fingerprints},
        "independent_sets": len(family.phi),
        "violations": family.violations,
        "strict_checked": family.strict_checked,
        "paper_literal": family.paper_literal,
    }
    code = EXIT_VIOLATION if family.violations else EXIT_OK
    return code, emit(payload), {}


def cmd_certify_cover(args):
    target = _hypergraph(args.target, "target")
    cover = _hypergraph(args.cover, "cover")
    p = _parse_rational(args.p)
    cert = cover_certificate(target, cover, p)
    payload = {
        "p": p,
        "weight": cert.weight,
        "threshold_bound": cert.weight,
        "cover_edges": len(cover.edges),
        "target_edges": len(target.edges),
    }
    return EXIT_OK, emit(payload), {}


def cmd_containers(args):
    h = _hypergraph(args.hypergraph, "hypergraph")
    family = non_janson_containers(
        h,
        _parse_rational(args.p),
        _parse_rational(args.q),
        _parse_rational(args.R),
        eta=_parse_rational(args.eta) if args.eta else None,
        strict=not args.no_strict,
    )
    certified = {"certified_minimal_sets": [bits_of(m) for m in family.certified_minimals]}
    return _pipeline_result(family, certified)


def cmd_extend_containers(args):
    f, gp, g = (_graph(getattr(args, key), key) for key in ("F", "Gprime", "G"))
    ext = extension_hypergraph(f, args.w, gp, g)
    base = induced_copy_hypergraph(f, gp, g).hyper
    family = extension_containers(
        ext,
        base,
        ext.m,
        _parse_rational(args.p),
        _parse_rational(args.q),
        _parse_rational(args.R),
        _parse_rational(args.Rprime),
        eta=_parse_rational(args.eta) if args.eta else None,
        r_colours=args.r,
        strict=not args.no_strict,
    )
    trimmed = {"trimmed": {str(x): bits_of(y) for x, y in family.shrunk.items()}}
    return _pipeline_result(family, trimmed)


def _pipeline_result(family, extra: dict):
    """Exit code and payload of a container pipeline run; ``extra`` holds
    the pipeline's own keys."""
    payload = {
        "containers": [bits_of(x) for x in family.containers],
        "violations": family.violations,
        "incomplete": family.incomplete,
        "size_bound_ok": family.size_bound_ok,
        "params": family.params,
        **extra,
    }
    code = EXIT_VIOLATION if family.violations else EXIT_OK
    return code, emit(payload), {}


def _seed_from(args, cfg: ExperimentConfig) -> int:
    """``--seed``, else the config's seed, else ``JC_SEED``, else 0."""
    if args.seed is not None:
        return args.seed
    if cfg.seed is not None:
        return cfg.seed
    env = os.environ.get("JC_SEED")
    if not env:
        return 0
    try:
        return int(env)
    except ValueError:
        raise InputError(f"JC_SEED must be an integer, got {env!r}") from None


def cmd_arrows(args):
    g = _graph(args.G, "G")
    h = _graph(args.H, "H")
    result = arrows_induced(g, h, args.r, budget=args.budget)
    return EXIT_OK, emit({"arrows": result, "r": args.r}), {}


def cmd_event(args):
    specs = args.H.split(",")
    if "" in specs:
        raise InputError(f"--H has an empty item: {args.H!r}")
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    g = _graph(args.G, "G")
    keys = ["H"] if len(specs) == 1 else [f"H[{i}]" for i in range(len(specs))]
    targets = [_graph(spec, key) for spec, key in zip(specs, keys)]
    sampling = {"budget_colorings": cfg.budget_colorings, "seed": _seed_from(args, cfg)}
    if args.kind == "B":
        report = check_event_bad(g, targets, cfg.p, **sampling)
    elif args.kind == "Bprime":
        report = check_event_bad_prime(
            g, targets, cfg.p, cfg.delta, budget_subsets=cfg.budget_subsets, **sampling
        )
    else:
        sizes = [t.n for t in targets]
        report = check_event_inductive(
            g, sizes, cfg.p, cfg.delta, budget_subsets=cfg.budget_subsets, **sampling
        )
    payload = {
        "event": report.name,
        "holds": report.holds,
        "exhaustive": report.exhaustive,
        "witness": report.witness,
        "notes": report.notes,
        "scaled": cfg.scaled,
    }
    code = EXIT_UNDECIDED if report.holds is None else EXIT_OK
    return code, emit(payload), {}


def cmd_mc(args):
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    seed = _seed_from(args, cfg)
    if args.experiment == "chernoff":
        report = chernoff_experiment(cfg.n, cfg.usize, cfg.ssize, cfg.trials, seed)
    else:
        report = extension_experiment(
            _graph(cfg.F, "F"),
            cfg.m,
            cfg.r,
            cfg.trials,
            seed,
            kind=cfg.kind,
            p=cfg.p,
            r_prime=cfg.Rprime,
            colorings_per_trial=cfg.colorings,
        )
    lines = ["trial,seed,outcome,statistic"]
    lines += [f"{t},{s},{o},{st}" for t, s, o, st in report.rows]
    comment = (
        f"# frequency={report.frequency} bound={report.theory_bound}"
        + (f" exact={report.exact_reference}" if report.exact_reference is not None else "")
    )
    return EXIT_OK, "\n".join(lines + [comment]) + "\n", {}


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="jc", description=__doc__)
    top.add_argument("--out", help="directory for the run record and artifacts")
    sub = top.add_subparsers(dest="command", required=True)

    pj = sub.add_parser("janson", help="decide the (p, R) property with certificates")
    pj.add_argument("--hypergraph", required=True)
    pj.add_argument("--p", required=True)
    pj.add_argument("--R", required=True)
    pj.set_defaults(handler=cmd_janson)

    pc = sub.add_parser("copies", help="build the induced-copy hypergraph")
    pc.add_argument("--F", required=True)
    pc.add_argument("--Gprime", required=True)
    pc.add_argument("--G", required=True)
    pc.set_defaults(handler=cmd_copies)

    ph = sub.add_parser("hardcover", help="exact fingerprint/cover family")
    ph.add_argument("--hypergraph", required=True)
    ph.add_argument("--q", required=True)
    ph.add_argument("--alpha", required=True)
    ph.add_argument("--paper-literal", action="store_true")
    ph.set_defaults(handler=cmd_hardcover)

    pcc = sub.add_parser("certify-cover", help="p-weight certificate for a cover")
    pcc.add_argument("--target", required=True)
    pcc.add_argument("--cover", required=True)
    pcc.add_argument("--p", required=True)
    pcc.set_defaults(handler=cmd_certify_cover)

    pn = sub.add_parser("containers", help="containers for uncertified vertex sets")
    pn.add_argument("--hypergraph", required=True)
    pn.add_argument("--p", required=True)
    pn.add_argument("--q", required=True)
    pn.add_argument("--R", required=True)
    pn.add_argument("--eta")
    pn.add_argument("--no-strict", action="store_true")
    pn.set_defaults(handler=cmd_containers)

    pe = sub.add_parser("extend-containers", help="two-layer extension containers")
    pe.add_argument("--F", required=True)
    pe.add_argument("--w", type=int, required=True)
    pe.add_argument("--Gprime", required=True)
    pe.add_argument("--G", required=True)
    pe.add_argument("--p", required=True)
    pe.add_argument("--q", required=True)
    pe.add_argument("--R", required=True)
    pe.add_argument("--Rprime", required=True)
    pe.add_argument("--eta")
    pe.add_argument("--r", type=int, default=2)
    pe.add_argument("--no-strict", action="store_true")
    pe.set_defaults(handler=cmd_extend_containers)

    pr = sub.add_parser("ramsey", help="experimental harness")
    rsub = pr.add_subparsers(dest="ramsey_cmd", required=True)
    pa = rsub.add_parser("arrows")
    pa.add_argument("--G", required=True)
    pa.add_argument("--H", required=True)
    pa.add_argument("--r", type=_colour_count, required=True)
    pa.add_argument("--budget", type=_nonnegative_budget)
    pa.set_defaults(handler=cmd_arrows)
    pev = rsub.add_parser("event")
    pev.add_argument("--kind", required=True, choices=["B", "Bprime", "E"])
    pev.add_argument("--G", required=True)
    pev.add_argument("--H", required=True, help="comma-separated targets")
    pev.add_argument("--config")
    pev.add_argument("--seed", type=int)
    pev.set_defaults(handler=cmd_event)
    pmc = rsub.add_parser("mc")
    pmc.add_argument("--experiment", required=True, choices=["chernoff", "extension"])
    pmc.add_argument("--config")
    pmc.add_argument("--seed", type=int)
    pmc.set_defaults(handler=cmd_mc)

    return top


def _run(args, argv) -> int:
    """Run the chosen handler, print its payload and, with ``--out``,
    digest the inputs and persist the run record; returns the exit code.
    Only the run record loads ``datetime`` and ``hashlib``."""
    if not args.out:
        code, payload_text, _ = args.handler(args)
        sys.stdout.write(payload_text)
        return code
    import datetime

    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    digests = {}
    token = _digests.set(digests)
    try:
        code, payload_text, extra_files = args.handler(args)
    finally:
        _digests.reset(token)
    sys.stdout.write(payload_text)
    record = RunRecord(
        command=list(argv),
        config={k: _jsonable(v) for k, v in vars(args).items() if k != "handler"},
        version=__version__,
        input_digests=digests,
        started=started,
        exit_status=code,
    )
    persist(args.out, record, payload_text, extra_files)
    return code


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return _run(args, argv)
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except BudgetError as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return EXIT_BUDGET
    except UndecidedError as exc:
        sys.stderr.write(f"undecided: {exc}\n")
        return EXIT_UNDECIDED
    except OSError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except Exception as exc:
        message = " ".join(str(exc).split())
        sys.stderr.write(f"internal error: {type(exc).__name__}: {message}\n")
        return EXIT_INTERNAL


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
