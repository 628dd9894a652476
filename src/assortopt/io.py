"""Instance and run-report file formats.

Everything is a single JSON document. Weights, prices and revenues are
serialized as decimal strings produced by ``repr`` (shortest round-trip
form), so parsing returns bit-identical doubles on any platform and
reports are byte-reproducible. Instances embed into run reports, making
a report self-describing: verification needs no other inputs. Every
document (instance, run report, ``exact`` output, bench.json) is written
by ``dumps_document``, byte for byte as ``json.dumps(doc, indent=2)``
followed by a newline; one loop writes its lists and dicts alike. A flat
record whose document is its fields, named and ordered as declared (the
report's ``GapBound``, ``gen``'s ``GeneratorSpec``), is written by the one
field walk ``fields_to_document``, so a field it gains is written too.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
from contextlib import contextmanager
from json.encoder import c_make_encoder
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Any, Callable, Iterator

from .analysis import GapBound
from .errors import ValidationError
from .greedy import GreedyConfig, IterationRecord, SolveReport
from .instance import Assortment, Instance, Product
from .oracles import NoiseSpec
from .reference import ExactSolution

SCHEMA_VERSION = "1"


def dumps_document(doc: Any) -> str:
    """``json.dumps(doc, indent=2) + "\n"``, byte for byte.

    With ``indent`` set the stdlib encodes item by item in Python. Here a
    leaf (``str``, ``int``, ``float``, ``bool``, None) is written the way
    ``json`` writes it, and a list, tuple or ``str``-keyed dict of leaves is
    written by one call of the stdlib's C encoder, whose item separator
    carries the line break and indent: a traced report is mostly lists of
    product ids and dicts of scalar fields. Any other such container is
    written item by item, a dict's items after their keys. Anything else
    (subclasses, dicts with a key that is not a ``str``) is left to
    ``json.dumps`` and re-indented: encoded JSON holds no raw newline, so
    that is exact.
    """
    out: list[str] = []
    _write_value(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _leaf(value: Any) -> str | None:
    """``json.dumps(value)`` when ``value`` is a leaf, which it encodes alike at any indent."""
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    return "null" if value is None else None


_LEAF_TYPES = frozenset({str, int, float, bool, type(None)})


@functools.cache  # one writer per depth a document reaches
def _flat_writer(inner: str) -> Callable[[Any], str]:
    """``json.dumps`` of a list or ``str``-keyed dict of leaves, one item per ``inner`` line.

    ``encoded[1:-1]`` is the items as ``json.dumps(indent)`` lays them out at
    that depth; the first line break and the closing bracket are the caller's.
    """
    if c_make_encoder is None:  # an interpreter without the C accelerator
        return json.JSONEncoder(separators=("," + inner, ": ")).encode
    encode = c_make_encoder(None, None, _encode_str, None, ": ", "," + inner, False, False, True)
    return lambda value: "".join(encode(value, 0))


def _write_value(value: Any, newline: str, out: list[str]) -> None:
    """Append ``value`` encoded at the depth where a line starts with ``newline``."""
    text = _leaf(value)
    if text is not None:
        out.append(text)
        return
    kind = type(value)
    is_dict = kind is dict and set(map(type, value)) <= {str}
    if not (is_dict or kind is list or kind is tuple):
        out.append(json.dumps(value, indent=2).replace("\n", newline))
        return
    opening, closing = "{}" if is_dict else "[]"
    inner = newline + "  "
    if not value:
        out.append(opening + closing)
    elif set(map(type, value.values() if is_dict else value)) <= _LEAF_TYPES:
        out.append(f"{opening}{inner}{_flat_writer(inner)(value)[1:-1]}{newline}{closing}")
    else:
        out.append(opening)
        for i, item in enumerate(value):  # a dict yields its keys
            out.append("," + inner if i else inner)
            if is_dict:
                out.append(_encode_str(item) + ": ")
                item = value[item]
            _write_value(item, inner, out)
        out.append(newline + closing)


def _format_float(value: float) -> str:
    return repr(float(value))


def fields_to_document(record: Any) -> dict:
    """A flat frozen dataclass as its fields in declaration order, a field declared
    ``float`` as ``_format_float`` text: the report's ``bounds`` and the ``generator``
    metadata of ``gen``."""
    doc = {}
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        doc[field.name] = _format_float(value) if field.type in ("float", float) else value
    return doc


def _parse_float(value: Any, code: str, what: str, *args: Any) -> float:
    """``value`` as a float: a JSON number, or a decimal string with none of what
    ``float`` reads but ignores (surrounding whitespace, ``_`` between digits), so
    ``"10"`` is read and ``" 10"`` and ``"1_0"`` are refused. A refusal raises
    ``code``; its message names the field as ``what % args``, built only then."""
    if isinstance(value, str):
        if "_" not in value and value == value.strip():
            try:
                return float(value)
            except ValueError:
                pass
        raise ValidationError(f"{what % args} is not a valid decimal: {value!r}", code=code)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{what % args} must be a number or decimal string", code=code)
    return float(value)


@contextmanager
def _schema_errors(what: str) -> Iterator[None]:
    """Report a missing field or a badly typed value in ``what`` as a schema error."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed {what}: {exc!r}", code="schema") from None


def instance_to_document(instance: Instance, metadata: dict | None = None) -> dict:
    """Canonical JSON-ready form of an instance."""
    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "products": [
            {"id": p.id, "weight": _format_float(p.weight), "price": _format_float(p.price)}
            for p in instance.products
        ],
        "capacity": instance.capacity_default,
    }
    doc["metadata"] = metadata if metadata is not None else {}
    return doc


def parse_instance(document: dict | str | bytes) -> tuple[Instance, dict]:
    """Validate and load an instance document; returns (instance, metadata).

    Every rejection carries a distinct error code: "schema",
    "duplicate-id", "bad-weight", "bad-price", "bad-capacity".
    """
    if isinstance(document, (str, bytes)):
        document = _parse_json(document)
    if not isinstance(document, dict):
        raise ValidationError("instance document must be a JSON object", code="schema")
    if document.get("schema_version") != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported schema_version {document.get('schema_version')!r}", code="schema"
        )
    raw_products = document.get("products")
    if not isinstance(raw_products, list):
        raise ValidationError("products must be a list", code="schema")

    products = []
    for entry in raw_products:
        try:
            pid, raw_weight, raw_price = entry["id"], entry["weight"], entry["price"]
        except (KeyError, TypeError):  # not an object, or one without all three
            raise ValidationError(
                "each product needs id, weight and price fields", code="schema"
            ) from None
        weight = _parse_float(raw_weight, "bad-weight", "product %s weight", pid)
        price = _parse_float(raw_price, "bad-price", "product %s price", pid)
        products.append(Product(pid, weight, price))

    metadata = document.get("metadata") or {}
    if not isinstance(metadata, dict):
        raise ValidationError("metadata must be an object", code="schema")
    # Instance.__post_init__ checks the ids, their uniqueness, the value ranges and
    # the capacity, with the codes above
    return Instance(tuple(products), document.get("capacity")), metadata


def serialize_instance(instance: Instance, metadata: dict | None = None) -> str:
    return dumps_document(instance_to_document(instance, metadata))


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """The ``object_pairs_hook`` of every document read: an object that names a key
    twice, which ``json.loads`` would quietly give its last value, is a schema error."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen: set[str] = set()
        repeated = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise ValidationError(f"key {repeated!r} appears twice in one object", code="schema")
    return obj


def _parse_json(text: str | bytes) -> Any:
    """Parse JSON text, bytes as UTF-8; bytes that are not UTF-8 or not JSON, and an
    object with a repeated key, are schema errors."""
    try:
        text = text.decode("utf-8") if isinstance(text, bytes) else text
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"not valid JSON: {exc}", code="schema") from None


def _load_json(path: str) -> Any:
    """``_parse_json`` of a file's bytes."""
    with open(path, "rb") as handle:
        return _parse_json(handle.read())


def load_instance(path: str) -> tuple[Instance, dict]:
    return parse_instance(_load_json(path))


def instance_digest(instance: Instance) -> str:
    """Content hash of the instance (metadata excluded)."""
    return _document_digest(instance_to_document(instance))


def _document_digest(doc: dict) -> str:
    """``instance_digest`` of the instance whose ``instance_to_document`` is ``doc``."""
    content = {key: value for key, value in doc.items() if key != "metadata"}
    payload = json.dumps(content, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


# --- run reports -----------------------------------------------------------


#: The report key that holds the noise level of each noisy mode.
_LEVEL_KEYS = {"fixed": "eps_fixed", "seeded-uniform": "eps_max"}


def noise_to_document(spec: NoiseSpec) -> dict:
    """The spec as a report holds it: its level under its mode's key, ``"0.0"`` under
    a key the mode does not read."""
    doc = {"mode": spec.mode, "eps_fixed": "0.0", "eps_max": "0.0", "seed": spec.seed}
    if spec.mode in _LEVEL_KEYS:
        doc[_LEVEL_KEYS[spec.mode]] = _format_float(spec.eps)
    return doc


def noise_from_document(doc: dict) -> NoiseSpec:
    """The spec ``noise_to_document`` wrote: a level under a key its mode does not
    read (either key in mode "none") must be 0."""
    if not isinstance(doc, dict):
        raise ValidationError("noise spec must be an object", code="schema")
    mode = doc.get("mode", "none")
    levels = {
        key: _parse_float(doc.get(key, 0.0), "bad-noise", key) for key in _LEVEL_KEYS.values()
    }
    level_key = _LEVEL_KEYS.get(mode) if isinstance(mode, str) else None
    spec = NoiseSpec(mode, levels.pop(level_key, 0.0), _integer(doc.get("seed", 0), "noise seed"))
    for key, level in levels.items():
        if level != 0.0:
            message = f"noise mode {mode!r} reads no level from {key}, which is {level!r}"
            raise ValidationError(message, code="bad-noise")
    return spec


def record_to_document(record: IterationRecord) -> dict:
    return {
        "step": record.step_index,
        "action": record.action,
        "added": record.added,
        "removed": record.removed,
        "revenue_after": _format_float(record.revenue_after),
        "assortment_before": list(record.assortment_before.ids),
        "assortment_after": list(record.assortment_after.ids),
        "pool_before": list(record.pool_before),
        "universe_size_after": record.universe_size_after,
        "exchange_out_counts": {str(k): v for k, v in sorted(record.exchange_out_counts.items())},
    }


def _integer(value: Any, what: str) -> int:
    """An integer field as a report holds it; anything but a JSON integer is a TypeError.

    ``int`` would truncate 62.5, parse "62" and read ``true`` as 1.
    """
    if type(value) is not int:  # a JSON integer; bool is not one
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


def _product_id(value: Any) -> int:
    return _integer(value, "product id")


def _product_ids(values: Any) -> list[int]:
    """A list of product ids as a report holds it; anything but JSON integers is a TypeError.

    One scan of the item types covers every well-formed list; only a list
    that fails it is read id by id, to raise ``_product_id``'s error.
    """
    if type(values) is list and set(map(type, values)) <= {int}:
        return values
    return list(map(_product_id, values))


def _assortment(values: Any, what: str) -> Assortment:
    """An offer set as a report holds it; ids out of strictly ascending order are a ValueError,
    which ``Assortment`` would instead sort and deduplicate."""
    ids = tuple(_product_ids(values))
    assortment = Assortment(ids)
    if assortment.ids != ids:
        raise ValueError(f"{what} ids {list(ids)} are not strictly ascending")
    return assortment


def _exchange_out_counts(doc: Any) -> dict[int, int]:
    """Exchange-out counts keyed by product id; each key is the id's canonical decimal.

    So ``" +5 "`` and ``"0_5"``, which ``int`` reads as 5, are a ValueError,
    and no two keys can name the same product.
    """
    counts = {}
    for key, value in doc.items():
        product_id = int(key)
        if product_id < 1 or str(product_id) != key:
            raise ValueError(f"exchange_out_counts key {key!r} is not a product id")
        counts[product_id] = _integer(value, "exchange-out count")
    return counts


def record_from_document(doc: dict) -> IterationRecord:
    with _schema_errors("trace record"):
        added, removed = doc["added"], doc["removed"]
        if doc["action"] not in ("add", "exchange", "terminate"):
            raise ValueError(f"unknown action {doc['action']!r}")
        return IterationRecord(
            step_index=_integer(doc["step"], "step"),
            action=doc["action"],
            added=None if added is None else _product_id(added),
            removed=None if removed is None else _product_id(removed),
            revenue_after=_parse_float(doc["revenue_after"], "schema", "revenue_after"),
            assortment_before=_assortment(doc["assortment_before"], "assortment_before"),
            assortment_after=_assortment(doc["assortment_after"], "assortment_after"),
            pool_before=tuple(_product_ids(doc["pool_before"])),
            universe_size_after=_integer(doc["universe_size_after"], "universe_size_after"),
            exchange_out_counts=_exchange_out_counts(doc["exchange_out_counts"]),
        )


def solve_report_to_document(report: SolveReport) -> dict:
    doc: dict[str, Any] = {
        "best_assortment": list(report.best_assortment.ids),
        "best_oracle_revenue": _format_float(report.best_oracle_revenue),
        "oracle_calls": report.oracle_calls,
        "seeds_explored": report.seeds_explored,
    }
    if report.traces is None:
        doc["traces"] = None
    else:
        doc["traces"] = [
            {"seed": list(seed.ids), "records": [record_to_document(r) for r in records]}
            for seed, records in report.traces
        ]
    return doc


def solve_report_from_document(doc: dict) -> SolveReport:
    with _schema_errors("result"):
        traces = None
        if doc.get("traces") is not None:
            traces = tuple(
                (
                    _assortment(entry["seed"], "seed"),
                    tuple(record_from_document(r) for r in entry["records"]),
                )
                for entry in doc["traces"]
            )
        return SolveReport(
            best_assortment=_assortment(doc["best_assortment"], "best_assortment"),
            best_oracle_revenue=_parse_float(doc["best_oracle_revenue"], "schema", "revenue"),
            oracle_calls=_integer(doc["oracle_calls"], "oracle_calls"),
            seeds_explored=_integer(doc["seeds_explored"], "seeds_explored"),
            traces=traces,
        )


def exact_solution_to_document(solution: ExactSolution) -> dict:
    return {
        "assortment": list(solution.assortment.ids),
        "revenue": _format_float(solution.revenue),
        "per_size_optima": {
            str(k): {"assortment": list(a.ids), "revenue": _format_float(r)}
            for k, (a, r) in sorted(solution.per_size_optima.items())
        },
        "candidate_collection_size": solution.candidate_collection_size,
    }


def derived_sections_to_document(
    exact: ExactSolution | None,
    gap: float | None,
    bounds: GapBound | None,
    trace_violations: int,
    delta_cap: float | None,
) -> dict:
    """A run report's ``exact``, ``gap``, ``bounds`` and ``analysis`` sections.

    ``analysis`` is None when ``delta_cap`` is, i.e. when no trace was checked.
    """
    return {
        "exact": exact_solution_to_document(exact) if exact is not None else None,
        "gap": _format_float(gap) if gap is not None else None,
        "bounds": fields_to_document(bounds) if bounds is not None else None,
        "analysis": None if delta_cap is None else {
            "trace_violations": trace_violations, "delta_cap": _format_float(delta_cap),
        },
    }


def run_report_document(
    instance: Instance,
    config: GreedyConfig,
    noise: NoiseSpec,
    result: SolveReport,
    sections: dict,
    timing_ms: float | None = None,
) -> dict:
    """A run report; ``sections`` are its ``derived_sections_to_document`` sections."""
    instance_doc = instance_to_document(instance)
    return {
        "schema_version": SCHEMA_VERSION,
        "instance_digest": _document_digest(instance_doc),
        "instance": instance_doc,
        "config": {
            "S": config.seed_size,
            "C": config.capacity,
            "b": config.exchange_budget,
            "noise": noise_to_document(noise),
        },
        "result": solve_report_to_document(result),
        **sections,
        "timing_ms": timing_ms,
    }


def serialize_report(document: dict) -> str:
    return dumps_document(document)


def load_report(path: str) -> dict:
    doc = _load_json(path)
    if not isinstance(doc, dict) or doc.get("schema_version") != SCHEMA_VERSION:
        raise ValidationError("not a recognizable run report", code="schema")
    return doc


def config_from_document(doc: dict) -> tuple[GreedyConfig, NoiseSpec]:
    cfg = doc.get("config")
    if not isinstance(cfg, dict):
        raise ValidationError("report has no config object", code="schema")
    with _schema_errors("config"):
        config = GreedyConfig(
            seed_size=_integer(cfg["S"], "S"),
            capacity=_integer(cfg["C"], "C"),
            exchange_budget=_integer(cfg["b"], "b"),
        )
        return config, noise_from_document(cfg.get("noise", {}))
