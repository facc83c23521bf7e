"""Command-line interface: run, sweep, and verify subcommands.

Scenarios come from a strict JSON config file (unknown or repeated keys are
rejected); sweep ranges come from flags.  The keys of each config section
are the fields of its dataclass.  The numeric and oracle sections are
optional, and a key missing from either takes the default of NumericOptions
or OracleConfig; every key of the other sections is required.  Exit codes:
0 success, 1 invalid config or range, 2 verification failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import re
import stat
import sys
from typing import Any, Callable, Iterable, Iterator, Sequence, get_type_hints

import numpy as np

from .dynamics import NumericOptions, _float
from .errors import ConfigError, PhotonBoxError
from .operators import BoxParams, FreeFall, Harmonic, PhysConstants
from .oracle import OracleConfig
from .scenario import SWEEP_DTYPE, Measurement, Scenario, run_scenario, sweep, verify
from .states import _BLOCKS, Route

__all__ = ["main", "load_config", "sci", "sci17", "sweep_csv"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_IO = 3


# =============================================================================
# number formatting
# =============================================================================


def sci(x: float) -> str:
    """Shortest round-trip scientific notation with a bare exponent.

    Examples: 0.5 -> ``5e-1``, 2.0 -> ``2e0``, 0.5000000625 ->
    ``5.000000625e-1``.  Infinities serialize as ``inf``/``-inf``, and zero
    of either sign as ``0e0``.
    """
    return _bare_exponents(np.format_float_scientific(x + 0.0, trim="-"))


def _bare_exponents(text: str) -> str:
    """Rewrite every ``%e`` exponent in text to its bare form: e+05 -> e5, e-05 -> e-5."""
    return text.replace("e+0", "e").replace("e+", "e").replace("e-0", "e-")


def sci17(x: float) -> str:
    """Fixed 17-significant-digit scientific notation with a bare exponent.

    Example: 0.5 -> ``5.0000000000000000e-1``.  Zero of either sign is
    ``0.0000000000000000e0``; nan and infinities are ``nan``/``inf``/``-inf``.
    """
    return _bare_exponents("%.16e" % (x + 0.0))


# The sweep CSV schema is SWEEP_DTYPE: one column per field, in field order.
# Floats print as in sci17 and booleans as true/false.  numpy writes the
# digits of every cell it can certify (see the README) and copies sci17's
# text for zeros, nan and infinities; sci17 writes the rest.
# The decade is decided from the double-double (h, lo), never from the
# rounded h + lo: 1e-6 gives h = 1e16 exactly with lo < 0, so its digits are
# 9.99...95e-7.  (h, lo) is within about 1.7e-15 of the exact product, far
# inside _TIE_MARGIN, so any cell outside the margin rounds as sci17 does.
# Each cell ends in its separator, a comma or, after a row's last cell, a
# newline; the last cell is a flag, so every float cell ends in a comma.
# Rows go in blocks of _BLOCK_ROWS, and the CLI writes each block's text as
# it is made, so the writer holds one block however long the sweep.
SWEEP_HEADER = ",".join(SWEEP_DTYPE.names)
_BLOCK_ROWS = 512
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_DECADES = range(-283, 283)  # every E the fast range reaches, moved by one either way
_TIE_MARGIN = 1e-12


def _words(strings: Iterable[str], width: int, dtype: type = np.uint32) -> np.ndarray:
    """ASCII strings, each zero-padded to ``width`` bytes, as an array of ``dtype``."""
    return np.frombuffer(b"".join(s.encode().ljust(width, b"\0") for s in strings), dtype)


# One row's text as words, in _BLOCKS' order: 7 for each float, 2 for each flag.
_ROW_WORDS = np.dtype([(name, np.uint32, _BLOCKS[name].shape + (width,))
                       for name, width in (("floats", 7), ("flags", 2))])
_BOOL_WORDS = _words(["false,", "true,", "false\n", "true\n"], 8).reshape(4, 2)
# Each flag's index into _BOOL_WORDS past its value: the last one ends the row.
_BOOL_OFFSETS = np.array([0] * (_ROW_WORDS["flags"].shape[0] - 1) + [2])


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of x into two 26-bit halves, whose pairwise products are exact."""
    c = 134217729.0 * x  # 2**27 + 1
    hi = c - (c - x)
    return hi, x - hi


@functools.cache
def _powers_of_ten() -> tuple[np.ndarray, ...]:
    """``10**(16-E)`` for each E in _DECADES as hi + lo: hi, its two halves, lo.

    Built on first use, as are the glyphs, so that importing stays cheap.
    """
    pow_hi, pow_lo = [], []
    for e in _DECADES:
        num, den = 10 ** max(16 - e, 0), 10 ** max(e - 16, 0)
        hi = num / den  # int / int is correctly rounded
        p, q = hi.as_integer_ratio()
        pow_hi.append(hi)
        pow_lo.append((num * q - p * den) / (den * q))
    pow_hi = np.array(pow_hi)
    return pow_hi, *_split(pow_hi), np.array(pow_lo)


@functools.cache
def _glyphs() -> tuple[np.ndarray, ...]:
    """Words of a float cell: sign, lead digit and point; every 4-digit group; ``e<E>,``.

    Last, the whole cells sci17 gives 0, inf, -inf and nan.
    """
    place = np.uint16([1000, 100, 10, 1])
    groups = np.arange(10000, dtype=np.uint16)[:, None] // place % 10 + ord("0")
    return (
        _words([f"{sign}{lead}." for sign in ("", "-") for lead in range(10)], 4),
        groups.astype(np.uint8).view(np.uint32).ravel(),
        _words([f"e{e}," for e in _DECADES], 8).reshape(-1, 2),
        _words([sci17(x) + "," for x in (0.0, math.inf, -math.inf, math.nan)], 28).reshape(4, 7),
    )


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a·10**(16-E)`` as a normalised double-double (h, lo), for E = _DECADES[k]."""
    pow_hi, pow_hh, pow_hl, pow_lo = (t[k] for t in _powers_of_ten())
    a_hi, a_lo = _split(a)
    h = a * pow_hi
    err = ((a_hi * pow_hh - h) + a_hi * pow_hl + a_lo * pow_hh) + a_lo * pow_hl
    tail = err + a * pow_lo
    s = h + tail
    return s, tail - (s - h)


def _decade_shift(h: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """+1 where h + lo >= 1e17, -1 where it is < 1e16, else 0: decided on the pair."""
    above = (h > 1e17) | ((h == 1e17) & (lo >= 0))
    below = (h < 1e16) | ((h == 1e16) & (lo < 0))
    return above.astype(np.intp) - below


def _float_texts(x: np.ndarray, out: np.ndarray) -> None:
    """Write the sci17 text of each cell of a C-contiguous x, and a comma, as 7 zero-padded words of out."""
    heads, groups, exps, fixed = _glyphs()
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a = np.where(fast, a, 2.0)  # a stand-in well inside its decade; its text is overwritten
    k = (np.floor(np.log10(a)) - _DECADES.start).astype(np.intp)  # the decade E, as its index
    h, lo = _scaled(a, k)
    if h.min() <= 1e16 or h.max() >= 1e17:  # some floor(log10) may be off by one
        shift = _decade_shift(h, lo)
        if shift.any():
            k += shift
            h, lo = _scaled(a, k)
            fast &= _decade_shift(h, lo) == 0
    rounded = np.rint(lo)  # ties to even, but a cell near a tie is not fast
    fast &= np.abs(lo - rounded) < 0.5 - _TIE_MARGIN
    digits = h.astype(np.int64) + rounded.astype(np.int64)
    carry = digits == 10**17
    k += carry
    digits[carry | ~fast] = 10**16  # cells that fall back are overwritten below

    for word in (4, 3, 2, 1):
        rest = digits // 10000
        out[..., word] = groups[digits - 10000 * rest]
        digits = rest
    out[..., 0] = heads[digits + 10 * (x < 0)]
    out[..., 5:] = np.take(exps, k, axis=0)
    slow = ~fast
    if slow.any():  # zeros, nan, infinities, ties and magnitudes outside the fast range
        f = x[slow]
        cells = fixed[np.where(np.isnan(f), 3, np.where(f == 0, 0, 1 + (f < 0)))]
        other = np.isfinite(f) & (f != 0)
        cells[other] = _words((sci17(y) + "," for y in f[other].tolist()), 28).reshape(-1, 7)
        out[slow] = cells


def _csv_chunks(rows: np.ndarray | Sequence[tuple]) -> Iterator[bytes]:
    """The sweep CSV as ASCII chunks: the header line, then one chunk per block of rows."""
    blocks = np.asarray(rows, SWEEP_DTYPE).view(_BLOCKS)  # each row: its floats, then its flags
    yield SWEEP_HEADER.encode() + b"\n"
    for start in range(0, len(blocks), _BLOCK_ROWS):
        floats, flags = (blocks[name][start:start + _BLOCK_ROWS] for name in _BLOCKS.names)
        words = np.empty(len(floats), _ROW_WORDS)
        _float_texts(np.ascontiguousarray(floats), words["floats"])
        words["flags"] = np.take(_BOOL_WORDS, flags + _BOOL_OFFSETS, axis=0)
        yield words.tobytes().translate(None, b"\0")


def sweep_csv(rows: np.ndarray | Sequence[tuple]) -> str:
    """The sweep CSV: header, then one sci17-formatted line per row, LF endings.

    ``rows`` is a sweep, or anything ``np.asarray`` reads as records of
    ``SWEEP_DTYPE``, such as a list of 17-tuples.
    """
    return b"".join(_csv_chunks(rows)).decode("ascii")


def _jsonable(x: Any) -> Any:
    return sci(x) if isinstance(x, float) and not math.isfinite(x) else x


# =============================================================================
# config file
# =============================================================================


def _require_mapping(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be an object")
    return value


def _check_keys(doc: dict, path: str, required: set[str], optional: set[str] = frozenset()) -> None:
    unknown = set(doc) - required - optional
    if unknown:
        raise ConfigError(f"unknown key(s) in {path}: {', '.join(sorted(unknown))}")
    missing = required - set(doc)
    if missing:
        raise ConfigError(f"missing key(s) in {path}: {', '.join(sorted(missing))}")


def _number(doc: dict, path: str, key: str, integer: bool = False) -> float:
    """``doc[key]`` as a float (``±inf`` past the float range), or as an int if ``integer``."""
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ConfigError(f"{path}.{key} must be {'an integer' if integer else 'a number'}")
    return value if integer else _float(value)


@functools.cache
def _schema(cls: type) -> dict[str, bool]:
    """The field names of a config dataclass, each mapped to whether it is an integer."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] is int for f in dataclasses.fields(cls)}


def _section(doc: Any, path: str, cls: type, optional: bool = False, **read: Callable) -> Any:
    """Build ``cls`` from the config section at ``path``: its keys are the fields of ``cls``.

    Each key is read as a float, or as an integer where its field is
    an ``int``, unless ``read`` gives a reader for it.  In a required section
    every key must be present; in an optional one a missing key takes the
    field's default.
    """
    section = _require_mapping(doc, path)
    schema = _schema(cls)
    keys = set(schema)
    _check_keys(section, path, required=set() if optional else keys, optional=keys)
    kwargs = {
        key: read[key](section[key]) if key in read else _number(section, path, key, integer)
        for key, integer in schema.items()
        if key in section
    }
    return _build(cls, path, **kwargs)


def _potential(doc: Any) -> FreeFall | Harmonic:
    doc = _require_mapping(doc, "box.potential")
    kind = doc.get("type")
    if kind not in ("free", "harmonic"):
        raise ConfigError("box.potential.type must be 'free' or 'harmonic'")
    fields = {key: value for key, value in doc.items() if key != "type"}
    return _section(fields, "box.potential", FreeFall if kind == "free" else Harmonic)


def _route(value: Any) -> Route:
    if value not in ("p", "q"):
        raise ConfigError("measurement.route must be 'p' or 'q'")
    return Route(value)


def _reject_nonfinite(name: str) -> float:
    raise ConfigError(f"non-finite literal {name} is not allowed in config")


def _reject_repeated(pairs: list[tuple[str, Any]]) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(f"repeated key {key!r} in config")
        doc[key] = value
    return doc


def load_config(path: str) -> Scenario:
    """Load and validate a scenario config file.

    Raises ConfigError for invalid content and OSError for unreadable
    files; the CLI maps those to exit codes 1 and 3.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config is not valid UTF-8: {exc}") from exc
    try:
        doc = json.loads(text, object_pairs_hook=_reject_repeated, parse_constant=_reject_nonfinite)
    except RecursionError as exc:
        raise ConfigError("config is nested too deeply") from exc
    except ValueError as exc:  # malformed JSON, or an integer literal too long to convert
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return build_scenario(doc)


def build_scenario(doc: Any) -> Scenario:
    """Build a Scenario from a parsed config document."""
    doc = _require_mapping(doc, "config")
    _check_keys(doc, "config", {"constants", "box", "measurement", "time"}, {"numeric", "oracle"})
    time_doc = _require_mapping(doc["time"], "time")
    _check_keys(time_doc, "time", required={"t_emit"})
    return _build(
        Scenario,
        "config",
        constants=_section(doc["constants"], "constants", PhysConstants),
        box=_section(doc["box"], "box", BoxParams, potential=_potential),
        measurement=_section(doc["measurement"], "measurement", Measurement, route=_route),
        t_emit=_number(time_doc, "time", "t_emit"),
        numeric=_section(doc.get("numeric", {}), "numeric", NumericOptions, optional=True),
        oracle=_section(doc.get("oracle", {}), "oracle", OracleConfig, optional=True),
    )


def _build(cls, path, **kwargs):
    try:
        return cls(**kwargs)
    except PhotonBoxError as exc:
        raise ConfigError(f"invalid {path}: {exc}") from exc


# =============================================================================
# subcommands
# =============================================================================


def _write_out(path: str, chunks: Iterable[bytes]) -> None:
    """Write an ``--out`` file in place, one chunk at a time, creating it if missing.

    The file is opened without ``O_TRUNC``, overwritten from the start and
    then, if it is a regular file, cut to the length just written: on ext4,
    truncating a just-written file to zero blocks until its old blocks are
    written back (about 60 ms for a 2001-row sweep CSV, more than the sweep
    itself), and replacing it by rename stalls as long.  A symlink is
    followed as ``open`` would; a device or pipe is written through and
    never truncated.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate(fh.tell())


def _text_lines(doc: dict[str, Any], prefix: str = "") -> Iterable[str]:
    """``key = value`` lines of a document, in order; floats in :func:`sci` form.

    A nested value prints under its own key, prefixed with its group's name
    except for the spreads: ``chi.p_qcl`` prints as ``chi_p_qcl`` and
    ``spreads.dq`` as ``dq``.
    """
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _text_lines(value, "" if key == "spreads" else f"{key}_")
        elif isinstance(value, float):
            yield f"{prefix}{key} = {sci(value)}"
        else:  # a string, or a bool, which prints as true/false
            yield f"{prefix}{key} = {str(value).lower()}"


def _cmd_run(args: argparse.Namespace) -> int:
    s = load_config(args.config)
    result = run_scenario(s)
    report = {f.name: getattr(result.report, f.name) for f in dataclasses.fields(result.report)}
    # One ordered mapping is the --out document and, flattened, the stdout
    # lines: route, t_emit, spreads, commutators, then the other report
    # fields in order.  Non-finite values are held as the tokens sci prints.
    doc = {
        "route": report.pop("route").value,
        "t_emit": report.pop("t"),
        "spreads": {"dq": result.dq, "dp": result.dp, "dqcl": result.dqcl},
        "chi": {"p_qcl": result.chi_p_qcl, "q_qcl": result.chi_q_qcl},
        **{name: _jsonable(value) for name, value in report.items()},
    }
    for line in _text_lines(doc):
        print(line)
    if args.out:
        _write_out(args.out, [(json.dumps(doc, indent=2) + "\n").encode()])
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    s = load_config(args.config)
    _write_out(args.out, _csv_chunks(sweep(s, args.t_min, args.t_max, args.steps)))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    s = load_config(args.config)
    kwargs: dict[str, Any] = {"grid": args.grid, "use_oracle": args.oracle}
    if args.tol is not None:
        kwargs["tol"] = args.tol
        kwargs["oracle_tol"] = args.tol
    report = verify(s, **kwargs)
    width = max(len(c.name) for c in report.checks)
    for c in report.checks:
        status = "pass" if c.passed else "FAIL"
        print(f"{c.name:<{width}}  max_dev={c.max_dev:.3e}  tol={c.tol:.1e}  {status}")
    if not report.all_passed:
        return EXIT_VERIFY
    return EXIT_OK


# Every negative float literal: decimal or exponent form, inf, infinity, nan.
_NEGATIVE_FLOAT = re.compile(
    r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE
)


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage errors on the config exit code.

    argparse reads an argument as a negative number, not an option name,
    only if it matches ``_negative_number_matcher``; its own pattern misses
    exponents and ``-inf``, so ``--tol -1e-3`` would fail as a missing value
    before the program's own check could name the fault.  No option here
    looks like a number, so every float literal may be read as one.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_FLOAT

    def error(self, message: str):  # noqa: D102 - argparse override
        raise ConfigError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="photonbox", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario and print the inference report")
    run_p.add_argument("--config", required=True, help="path to the scenario JSON file")
    run_p.add_argument("--out", help="optional path for a JSON copy of the report")
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="sweep the emission time and write a CSV")
    sweep_p.add_argument("--config", required=True, help="path to the scenario JSON file")
    sweep_p.add_argument("--t-min", type=float, required=True, dest="t_min")
    sweep_p.add_argument("--t-max", type=float, required=True, dest="t_max")
    sweep_p.add_argument("--steps", type=int, required=True)
    sweep_p.add_argument("--out", required=True, help="output CSV path")
    sweep_p.set_defaults(func=_cmd_sweep)

    verify_p = sub.add_parser("verify", help="cross-check closed forms against independent routes")
    verify_p.add_argument("--config", required=True, help="path to the scenario JSON file")
    verify_p.add_argument("--grid", type=int, default=100, help="time-grid points (default 100)")
    verify_p.add_argument(
        "--tol",
        type=float,
        default=None,
        help="override every tolerance (defaults: 1e-9 integration, 1e-6 matrix checks)",
    )
    verify_p.add_argument(
        "--oracle", action="store_true", help="also run the truncated-basis matrix checks"
    )
    verify_p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except PhotonBoxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
