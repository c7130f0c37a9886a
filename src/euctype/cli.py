"""Command-line front end.

One verb per invocation; every verb supports ``--json`` for a
machine-readable report with a ``schema_version`` field, an echo of the
input, and any certificates (validation flags, stabilization windows,
counterexamples).  Exit statuses: 0 success, 2 domain error, 3 the
ring-is-not-Euclidean finding, 4 resource bound exceeded, 5 syntax
error.  The finding gets its own status because it is an answer, not a
failure.

Ordinals print with ASCII ``w``; the Unicode letter is accepted on
input.

Each verb's arguments are declared once, in ``_VERBS``.  A small reader
takes a well-formed call, one it reads exactly as argparse would, and
hands anything else (help, ``--``, abbreviations, ``--opt=value``,
negative numbers, usage errors) to the argparse parser built from the
same table.  So a well-formed call never imports argparse.
"""

from __future__ import annotations

import functools
import json
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import List, Optional, Tuple

from .errors import DomainError, EngineError, NotEuclideanRing, ResourceError
from .euclidean import (
    bottom_euclidean,
    check_l_euclidean,
    collapse_pair_table,
    is_euclidean_function,
    nagata_product,
    order_type,
    quotient_euclidean,
    table_to_dict,
)
from .models import (
    RingSpec,
    check_localization_euclidean,
    check_not_l_euclidean_integers,
    check_not_l_euclidean_polys,
    order_type_of_spec,
    product_bounds,
    realize_ordinal,
    windowed_bottom_integers,
    windowed_polynomial_levels,
)
from .ordinal import format_ordinal
from .parsing import _GF_PID, _nat, parse_element, parse_ordinal, parse_ring_spec, table_from_dict
from .rings import FiniteRing, crt_decompose, format_poly

SCHEMA_VERSION = 1


_CONTAINERS = (dict, list, tuple)
_SCALARS = frozenset((str, int, float, bool, type(None)))


@functools.lru_cache(maxsize=None)
def _encoder(separator: str):
    """The C encoder's ``encode``, with ``separator`` between items."""
    return json.JSONEncoder(separators=(separator, ": "), check_circular=False).encode


def _flat(members) -> bool:
    """True when no member is a nonempty container.  The set of member
    types settles, in C, a level of plain scalars however long it is."""
    return (set(map(type, members)) <= _SCALARS
            or not any(isinstance(v, _CONTAINERS) and v for v in members))


def _dumps(obj, level: int = 0) -> str:
    """Exactly ``json.dumps(obj, indent=2)``, with ``obj`` at nesting depth
    ``level``.  With an indent, json encodes in Python; here a dict or list
    whose members are all scalars or empty goes to the C encoder in one
    call, with its line break and indent as the item separator, and any
    other level joins the texts of its members, each written the same way
    one level down.  Keys go to json's C string encoder.  A dict with a key
    that is not a string is left to json whole."""
    if not isinstance(obj, _CONTAINERS) or not obj:
        return json.dumps(obj)
    inner, outer = "\n" + "  " * (level + 1), "\n" + "  " * level
    is_dict = isinstance(obj, dict)
    if _flat(obj.values() if is_dict else obj):
        text = _encoder("," + inner)(obj)
        return text[0] + inner + text[1:-1] + outer + text[-1]
    if not is_dict:
        return "[" + inner + ("," + inner).join([_dumps(v, level + 1) for v in obj]) + outer + "]"
    if not all(isinstance(k, str) for k in obj):
        return json.dumps(obj, indent=2).replace("\n", outer)
    parts = [encode_basestring_ascii(k) + ": " + _dumps(v, level + 1) for k, v in obj.items()]
    return "{" + inner + ("," + inner).join(parts) + outer + "}"


def _finite_ring(spec: str) -> FiniteRing:
    """The concrete ring that ``spec`` names; a spec with a symbolic factor
    is refused under its own text."""
    ring = parse_ring_spec(spec)
    if isinstance(ring, RingSpec):
        raise DomainError(f"'{spec}' contains symbolic factors; a concrete finite ring is required")
    return ring


# ---------------------------------------------------------------------------
# verbs: each returns its report and its text lines; ``main`` writes one


def _cmd_ordinal_eval(args):
    text = format_ordinal(parse_ordinal(args.expr))
    return {"input": args.expr, "result": text}, [text]


def _cmd_ring_analyze(args):
    parsed = parse_ring_spec(args.spec)
    if isinstance(parsed, RingSpec):
        spec, order = str(parsed), format_ordinal(order_type_of_spec(parsed))
        report = {
            "input": args.spec,
            "symbolic": True,
            "spec": spec,
            "pid_factors": list(parsed.pid_factors),
            "artinian_lengths": list(parsed.artinian_lengths),
            "order_type": order,
        }
        return report, [f"symbolic ring spec: {spec}", f"order type: {order}"]
    ring = parsed
    principal = ring.is_principal()
    report = {
        "input": args.spec,
        "symbolic": False,
        "ring": ring.name,
        "size": len(ring),
        "units": ring.unit_count(),
        "principal": principal,
        "ideals": ring.ideal_count(),
    }
    lines = [
        f"ring: {ring.name}",
        f"size: {len(ring)}   units: {report['units']}",
        f"principal: {principal}   ideals: {report['ideals']}",
    ]
    if principal:
        report["length"] = ring.element_length(ring.zero)
        lines.append(f"length of the zero ideal chain: {report['length']}")
        locals_, _ = crt_decompose(ring)
        report["local_factors"] = [loc.name for loc in locals_]
        lines.append("local factors: " + " x ".join(
            f"({loc.name})" if " x " in loc.name else loc.name for loc in locals_))
    return report, lines


def _table_lines(written: dict) -> List[str]:
    """One line per value of a :func:`table_to_dict` table, in order of first
    appearance in the carrier, naming its elements in carrier order."""
    lines = [f"ring: {written['ring']}"]
    by_value = {}
    for name, text in written["values"].items():
        by_value.setdefault(text, []).append(name)
    for text, names in by_value.items():
        lines.append(f"  value {text}: " + ", ".join(names))
    lines.append(f"value at zero: {written['value_at_zero']}")
    return lines


def _cmd_euclid_bottom(args):
    ring = _finite_ring(args.spec)
    table = bottom_euclidean(ring)
    order = format_ordinal(order_type(table))
    report = {
        "input": args.spec,
        "table": table_to_dict(table),
        "order_type": order,
    }
    lines = [] if args.json else _table_lines(report["table"]) + [f"order type: {order}"]
    return report, lines


def _counterexample(ring, cex, report: dict, lines: List[str]) -> None:
    """Adds the least failing pair (a, b), if any, to both reports."""
    if cex is not None:
        a, b = (ring.format_element(x) for x in cex)
        report["counterexample"] = {"a": a, "b": b}
        lines.append(f"counterexample: a={a}, b={b}")


def _cmd_euclid_verify(args):
    try:
        with open(args.file) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        raise DomainError(f"cannot read table file {args.file!r}: {exc}")
    except RecursionError:
        raise ResourceError(f"table file {args.file!r} nests too deeply to read")
    unclaimed = {"validated": False, "bottom": False}  # checked once, below, whatever they claim
    table = table_from_dict({**data, **unclaimed} if isinstance(data, dict) else data)
    ok, cex = is_euclidean_function(table)
    ring = table.ring
    report = {"input": args.file, "ring": ring.name, "euclidean": ok}
    lines = [f"ring: {ring.name}", f"euclidean: {ok}"]
    _counterexample(ring, cex, report, lines)
    return report, lines


def _cmd_euclid_quotient(args):
    ring = _finite_ring(args.spec)
    b = parse_element(ring, args.element)
    table = bottom_euclidean(ring)
    quot = quotient_euclidean(table, b)
    value = format_ordinal(table.value(b))
    report = {
        "input": {"ring": args.spec, "element": args.element},
        "value_of_divisor": value,
        "table": table_to_dict(quot),
    }
    lines = [] if args.json else _table_lines(report["table"]) + [
        f"value of {ring.format_element(b)} in the base ring: {value}"
    ]
    return report, lines


def _cmd_euclid_product(args):
    r1 = _finite_ring(args.spec1)
    r2 = _finite_ring(args.spec2)
    t1 = bottom_euclidean(r1)
    t2 = bottom_euclidean(r2)
    pt = nagata_product(t1, t2)
    product_bottom = bottom_euclidean(pt.ring)
    collapsed = collapse_pair_table(pt, product_bottom)
    o1, o2, product = (format_ordinal(order_type(t)) for t in (t1, t2, product_bottom))
    report = {
        "input": {"factors": [args.spec1, args.spec2]},
        "factor_order_types": [o1, o2],
        "product_order_type": product,
        "collapsed_table": table_to_dict(collapsed),
    }
    lines = [
        f"factors: {r1.name}  and  {r2.name}",
        f"factor order types: {o1}, {o2}",
        f"product order type: {product}",
        f"collapsed pair table validated: {collapsed.validated}",
    ]
    return report, lines


def _cmd_product_bounds(args):
    values = [parse_ordinal(e) for e in args.exprs]
    lower, upper = map(format_ordinal, product_bounds(values))
    report = {"input": args.exprs, "lower": lower, "upper": upper}
    lines = [
        f"lower bound (iterated sum): {lower}",
        f"upper bound (iterated natural sum): {upper}",
    ]
    return report, lines


def _cmd_realize(args):
    a = parse_ordinal(args.expr)
    spec = realize_ordinal(a)
    text = str(spec)
    report = {
        "input": args.expr,
        "spec": text,
        "order_type": format_ordinal(order_type_of_spec(spec)),
    }
    return report, [text]


def _cmd_model_z(args):
    bound = args.window
    model = windowed_bottom_integers(report_bound=bound)
    cert = model.certificate
    report = {
        "input": {"report_bound": bound},
        "values": dict(zip(map(str, model.values), model.values.values())),
        "stabilization_windows": [cert.window_a, cert.window_b],
        "note": "units map to 0; the count of binary digits of |n| is the value plus one",
    }
    lines = [
        f"stabilized on windows {cert.window_a} and {cert.window_b}",
        f"values reported for 1 <= n <= {bound} (symmetric in sign)",
    ]
    for n in sorted(n for n in {1, 2, 3, 4, min(bound, 1000), bound} if n <= bound):
        lines.append(f"  value({n}) = {model.values[n]}")
    return report, lines


def _cmd_model_poly(args):
    degree = args.window
    model = windowed_polynomial_levels(args.q, report_degree=degree)
    cert = model.certificate
    report = {
        "input": {"q": args.q, "report_degree": degree},
        "values_by_degree": {str(d): [v] for d, v in model.values.items()},
        "stabilization_windows": [cert.window_a, cert.window_b],
        "note": "units map to 0; the value of a nonzero polynomial is its degree",
    }
    lines = [f"stabilized on degree windows {cert.window_a} and {cert.window_b}"]
    lines += [f"  degree {d}: values {[v]}" for d, v in model.values.items()]
    return report, lines


def _cmd_model_localize(args):
    primes = args.primes
    result = check_localization_euclidean(primes, samples=args.samples, seed=args.seed)
    report = {
        "input": {"primes": primes, "samples": args.samples, "seed": args.seed},
        "ok": result.ok,
        "samples": result.samples,
        "seed": result.seed,
        "failures": [[str(a), str(b)] for a, b in result.failures],
    }
    lines = [
        f"primes: {primes}   samples: {result.samples}   seed: {result.seed}",
        f"division property held on every sample: {result.ok}",
    ]
    return report, lines


def _cmd_l_euclidean(args):
    target = args.target.strip()
    m = _GF_PID.match(target)
    if target == "Z" or m:
        if m:
            w, fmt = check_not_l_euclidean_polys(_nat(m.group(1))), format_poly
        else:
            w, fmt = check_not_l_euclidean_integers(), str
        report = {
            "input": target,
            "l_euclidean": False,
            "witness": {
                "divisor": fmt(w.divisor),
                "target": fmt(w.target),
                "allowed_remainders": [fmt(r) for r in w.allowed_remainders],
            },
            "description": w.description,
        }
        return report, [f"{target} is not length-Euclidean: {w.description}"]
    ring = _finite_ring(target)
    ok, cex = check_l_euclidean(ring)
    report = {"input": target, "ring": ring.name, "l_euclidean": ok}
    lines = [f"ring: {ring.name}", f"length function is Euclidean: {ok}"]
    _counterexample(ring, cex, report, lines)
    return report, lines


# ---------------------------------------------------------------------------
# argument plumbing: one table declares every verb, and both the reader and
# the argparse parsers are built from it

_JSON = ("--json", {"action": "store_true", "help": "emit a JSON report"})

# verb: (function, help, (option string or positional name, add_argument keywords)...)
_VERBS = {
    "ordinal-eval": (_cmd_ordinal_eval, "evaluate an ordinal expression", ("expr", {})),
    "ring-analyze": (_cmd_ring_analyze, "size, units, ideals, principality", ("spec", {})),
    "euclid-bottom": (_cmd_euclid_bottom, "least Euclidean table and order type", ("spec", {})),
    "euclid-verify": (_cmd_euclid_verify, "validate a serialized table file", ("file", {})),
    "euclid-quotient": (
        _cmd_euclid_quotient, "push the least table down to a quotient ring", ("spec", {}),
        ("element", {"help": "the divisor b; one that starts with '-' goes after "
                     "'--', as in: euclid-quotient SPEC -- -t"})),
    "euclid-product": (_cmd_euclid_product,
                       "pair-valued product construction and its ordinal collapse",
                       ("spec1", {}), ("spec2", {})),
    "product-bounds": (_cmd_product_bounds, "order-type bounds for a product from its factors",
                       ("exprs", {"nargs": "+"})),
    "realize": (_cmd_realize, "small ring spec with the given order type", ("expr", {})),
    "model-z": (_cmd_model_z, "windowed least values on the integers",
                ("--window", {"type": int, "default": 1024, "metavar": "N",
                              "help": "reporting bound on |n| (default %(default)s)"})),
    "model-poly": (_cmd_model_poly, "windowed least values on GF(q)[t]", ("q", {"type": int}),
                   ("--window", {"type": int, "default": 10, "metavar": "D",
                                 "help": "reporting degree bound (default %(default)s)"})),
    "model-localize": (_cmd_model_localize,
                       "sampled division checks for a semilocal localization of Z",
                       ("primes", {"nargs": "+", "type": int}),
                       ("--samples", {"type": int, "default": 10_000, "metavar": "N"}),
                       ("--seed", {"type": int, "default": 0, "metavar": "S"})),
    "l-euclidean": (_cmd_l_euclidean, "is the ideal-chain length a Euclidean function?",
                    ("target", {"help": "'Z', 'GF(q)[t]', or a concrete ring spec"})),
}


def _read(argv: List[str]) -> Optional[SimpleNamespace]:
    """The arguments of a call as argparse reads them, or None for a call
    the reader leaves to argparse: one whose first argument names no verb,
    or with a token that starts with '-' and is none of the verb's option
    strings, an option value that starts with '-' or is missing, a value
    ``int`` refuses, a wrong count of positionals, or a ``+`` positional
    split by an option (argparse takes only its first run)."""
    entry = _VERBS.get(argv[0]) if argv else None
    if entry is None:
        return None
    func, _, *arguments = entry
    options = {flag: kw for flag, kw in arguments if flag[0] == "-"}
    positionals = [(name, kw) for name, kw in arguments if name[0] != "-"]
    values = {"json": False, **{flag[2:]: kw["default"] for flag, kw in options.items()}}
    words, runs, after_option = [], 0, True
    rest = iter(argv[1:])
    try:
        for token in rest:
            if token == "--json":
                values["json"] = after_option = True
            elif token in options:
                value = next(rest, "-")  # a missing value reads as "-"
                if value[:1] == "-":
                    return None
                values[token[2:]], after_option = options[token]["type"](value), True
            elif token[:1] == "-":
                return None
            else:
                words.append(token)
                runs, after_option = runs + after_option, False
        if positionals and positionals[0][1].get("nargs") == "+":  # then the only positional
            name, kw = positionals[0]
            if runs != 1:
                return None
            values[name] = list(map(kw.get("type", str), words))
        elif len(words) == len(positionals):
            values.update((name, kw.get("type", str)(word))
                          for (name, kw), word in zip(positionals, words))
        else:
            return None
    except ValueError:  # a value int() refuses
        return None
    return SimpleNamespace(verb=argv[0], func=func, **values)


@functools.lru_cache(maxsize=None)
def _parser():
    """The full argparse parser, built from ``_VERBS`` on the first call and
    reused after it: help, usage errors and every call the reader leaves
    go to it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="euctype",
        description="Euclidean-function tables, ordinal arithmetic, and "
        "bounded models of the classical domains.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, (func, help_text, *arguments) in _VERBS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kw in (_JSON, *arguments):
            p.add_argument(flag, **kw)
        p.set_defaults(func=func)
    return parser


def _parse(argv: List[str]):
    """The arguments as the full parser reads them: the reader's namespace
    when it takes the call, else the full parser's, with its own usage,
    help and errors."""
    return _read(argv) or _parser().parse_args(argv)


def _not_euclidean_report(exc: NotEuclideanRing) -> Tuple[dict, List[str]]:
    # one pass over the names: x in exc.partial has a level, any other x but 0 is stuck
    ring, partial = exc.ring, exc.partial
    stuck, levels = [], {}
    for x, name in zip(ring.elements, ring.element_names()):
        if x in partial:
            levels[name] = partial[x]
        elif x != ring.zero:
            stuck.append(name)
    report = {"finding": "not-euclidean", "ring": ring.name, "stuck": stuck,
              "assigned_levels": levels}
    return report, [f"finding: {ring.name} admits no Euclidean function",
                    "stuck elements: " + ", ".join(stuck)]


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        (report, lines), code = args.func(args), 0
    except NotEuclideanRing as exc:
        (report, lines), code = _not_euclidean_report(exc), exc.exit_code
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    if args.json:
        print(_dumps({"schema_version": SCHEMA_VERSION, "command": args.verb, **report}))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
